from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from treecvrp.baselines import flow_lower_bound, flow_need, itp_solve
from treecvrp.generate import DEMAND_MODELS, SHAPES, generate
from treecvrp.height import build_reduced_tree
from treecvrp.instance import TreeInstance, save_solution
from treecvrp.verify import check_feasible

from conftest import random_instance
from oracle import itp_reference

STAR = TreeInstance((-1, 0, 0, 0), (0, 1, 1, 1), (0, 1, 1, 1), 2)


def test_flow_lower_bound_star():
    # 3 unit-weight leaf edges, Q=2: each edge crossed once, ceil(1/2)=1
    assert flow_lower_bound(STAR) == 6


def test_flow_lower_bound_ignores_empty_subtrees():
    inst = TreeInstance((-1, 0, 0), (0, 5, 7), (0, 2, 0), 2)
    assert flow_lower_bound(inst) == 2 * 5 * 1


def test_flow_lower_bound_single_leaf():
    inst = TreeInstance((-1, 0), (0, 5), (0, 1), 1)
    assert flow_lower_bound(inst) == 10


def test_flow_lower_bound_is_exact_past_float_precision():
    # float division rounds (2**53 + 1) / 1 down to 2**53
    inst = TreeInstance((-1, 0), (0, 1), (0, 2 ** 53 + 1), 1)
    assert flow_lower_bound(inst) == 18014398509481986


def test_flow_need_is_the_exact_ceiling():
    inst = TreeInstance((-1, 0, 1, 0), (0, 1, 1, 1), (0, 2 ** 53 + 1, 2, 4), 2)
    # subtree demands 2**53 + 7, 2**53 + 3, 2 and 4; a float quotient would
    # read the first two as 2**53 + 8 and 2**53 + 4
    assert flow_need(inst, 1) == [2 ** 53 + 7, 2 ** 53 + 3, 2, 4]
    assert flow_need(inst, 2) == [2 ** 52 + 4, 2 ** 52 + 2, 1, 2]
    assert flow_lower_bound(inst) == 2 * sum(flow_need(inst, 2)[1:])


def test_itp_single_tour_when_total_fits():
    inst = TreeInstance((-1, 0, 1), (0, 2, 1), (0, 1, 1), 4)
    sol = itp_solve(inst)
    assert len(sol.tours) == 1
    assert sol.total_cost == 6


def test_itp_star():
    sol = itp_solve(STAR)
    assert check_feasible(STAR, sol).ok
    assert sol.total_cost == 6


def test_itp_is_deterministic():
    a = itp_solve(STAR)
    b = itp_solve(STAR)
    assert a.canonical() == b.canonical()


def _itp_bound(inst):
    """Each edge is crossed by at most ceil(D_e/Q) + 1 blocks."""
    return flow_lower_bound(inst) + 2 * sum(
        inst.weight[v] for v in range(1, inst.n) if inst.subtree_demand[v])


@given(st.integers(0, 10 ** 6))
def test_itp_feasible_and_above_lower_bound(seed):
    inst = random_instance(seed, max_n=10, unit_demand=False)
    sol = itp_solve(inst)
    assert check_feasible(inst, sol).ok
    assert flow_lower_bound(inst) <= sol.total_cost <= _itp_bound(inst)


def test_itp_tour_count_is_minimal():
    # DFS blocks: ceil(total/Q) tours, the fewest possible
    for seed in range(20):
        inst = random_instance(seed, unit_demand=False)
        sol = itp_solve(inst)
        total = inst.total_demand
        assert len(sol.tours) == -(-total // inst.capacity)


def _families():
    """5 generator shapes x 3 demand models x Q in {1, 3, 10}, and each
    instance's height-reduced tree."""
    for shape in SHAPES:
        for model in DEMAND_MODELS:
            for q in (1, 3, 10):
                inst = generate(shape, 40, q, model, seed=q)
                yield inst
                yield build_reduced_tree(inst, 0.5).tree


HAND_BUILT = {
    "fraction weights": TreeInstance(
        (-1, 0, 1, 1, 0), (0, Fraction(1, 3), Fraction(5, 2), 2, Fraction(7, 6)),
        (0, 2, 1, 3, 2), 3),
    "fraction weights summing to an int": TreeInstance(
        (-1, 0, 0), (0, Fraction(1, 2), Fraction(1, 2)), (0, 1, 1), 1),
    "demand at the depot": TreeInstance(
        (-1, 0, 1, 0), (0, 4, 1, 2), (5, 1, 2, 1), 3),
    "only the depot has demand": TreeInstance(
        (-1, 0, 1), (0, 4, 1), (7, 0, 0), 3),
    "zero-demand subtrees": TreeInstance(
        (-1, 0, 1, 1, 0, 4, 2), (0, 3, 2, 5, 1, 6, 2), (0, 0, 0, 2, 0, 0, 0), 2),
    "zero-weight edges": TreeInstance(
        (-1, 0, 1, 2, 0), (0, 0, 3, 0, 0), (0, 1, 2, 1, 4), 3),
    "total demand 0": TreeInstance((-1, 0, 1), (0, 2, 3), (0, 0, 0), 2),
}


def _assert_matches_reference(inst):
    sol, ref = itp_solve(inst), itp_reference(inst)
    assert sol == ref  # same tours, in the same order, and the same cost
    assert type(sol.total_cost) is type(ref.total_cost)
    assert save_solution(sol) == save_solution(ref)


@given(st.integers(0, 10 ** 6))
def test_itp_matches_token_list_reference(seed):
    _assert_matches_reference(
        random_instance(seed, max_n=12, capacities=(1, 2, 3, 4),
                        unit_demand=False))


def test_itp_matches_reference_on_generator_families():
    for inst in _families():
        _assert_matches_reference(inst)


@pytest.mark.parametrize("name", sorted(HAND_BUILT))
def test_itp_matches_reference_on_hand_built(name):
    _assert_matches_reference(HAND_BUILT[name])


def test_itp_hand_built_costs():
    # the weight-1/2 edges are crossed once each: cost 2, an int
    halves = itp_solve(HAND_BUILT["fraction weights summing to an int"])
    assert halves.total_cost == 2 and type(halves.total_cost) is int
    assert itp_solve(HAND_BUILT["only the depot has demand"]).total_cost == 0
    empty = itp_solve(HAND_BUILT["total demand 0"])
    assert empty.tours == () and empty.total_cost == 0


def test_itp_bound_on_generator_families_and_hand_built():
    for inst in [*_families(), *HAND_BUILT.values()]:
        cost = itp_solve(inst).total_cost
        assert flow_lower_bound(inst) <= cost <= _itp_bound(inst)
