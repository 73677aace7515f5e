import random

import pytest

from treecvrp import exact
from treecvrp.baselines import flow_lower_bound
from treecvrp.exact import OracleSizeError, solve_exact
from treecvrp.generate import SHAPES, generate
from treecvrp.instance import TreeInstance
from treecvrp.verify import check_feasible

from conftest import random_instance
from oracle import solve_exact_naive, solve_residual

STAR = TreeInstance((-1, 0, 0, 0), (0, 1, 1, 1), (0, 1, 1, 1), 2)
PATH = TreeInstance((-1, 0, 1), (0, 1, 2), (0, 1, 1), 2)


def test_star_optimum():
    sol = solve_exact(STAR)
    assert sol.total_cost == 6
    assert check_feasible(STAR, sol).ok


def test_path_optimum_merges_tokens():
    # one tour picking both tokens: 2*(1+2) = 6
    sol = solve_exact(PATH)
    assert sol.total_cost == 6
    assert len(sol.tours) == 1


def test_single_node_demand():
    inst = TreeInstance((-1, 0, 1), (0, 2, 3), (0, 0, 1), 4)
    sol = solve_exact(inst)
    assert sol.total_cost == 2 * (2 + 3)


def test_empty_instance():
    inst = TreeInstance((-1, 0), (0, 1), (0, 0), 2)
    assert solve_exact(inst).tours == ()
    assert solve_exact_naive(inst).tours == ()


def test_token_limit_enforced():
    inst = TreeInstance((-1, 0), (0, 1), (0, 15), 20)
    with pytest.raises(OracleSizeError):
        solve_exact(inst)
    assert solve_exact(inst, max_tokens=15).total_cost == 2


@pytest.mark.parametrize("k", [0, 3, 14])
def test_token_limit_is_checked_before_solving(k, monkeypatch):
    def spread(tokens):  # over two leaves, so no node holds them all
        return TreeInstance((-1, 0, 0), (0, 1, 2),
                            (0, tokens - tokens // 2, tokens // 2), 2)

    at_limit = solve_exact(spread(k), max_tokens=k)
    assert at_limit.total_cost == solve_residual(spread(k)).total_cost

    def no_work(*args, **kwargs):
        raise AssertionError("solved past the token limit")

    monkeypatch.setattr(exact, "solve_structured", no_work)
    with pytest.raises(OracleSizeError):
        solve_exact(spread(k + 1), max_tokens=k)


def test_matches_residual_oracle_on_bench_suite_shapes():
    # the bench suite's instance shape: n=10, Q=3, unit demand
    for shape in SHAPES:
        for seed in range(40):
            inst = generate(shape, 10, 3, "unit", seed)
            sol = solve_exact(inst)
            assert sol.total_cost == solve_residual(inst).total_cost, \
                (shape, seed)
            assert check_feasible(inst, sol).ok, (shape, seed)


def test_hub_of_fourteen_unit_leaves():
    # the residual-vector oracle walks 2**14 residual vectors here and takes
    # seconds; its cost, 32, is pinned: two tours cross the hub edge and
    # each leaf edge is crossed once
    inst = TreeInstance((-1, 0) + (1,) * 14, (0,) + (1,) * 15,
                        (0, 0) + (1,) * 14, 7)
    sol = solve_exact(inst)
    assert sol.total_cost == 32
    assert check_feasible(inst, sol).ok


def test_exact_agrees_with_naive_sample():
    # full 300-instance sweep lives in the acceptance suite
    for seed in range(40):
        inst = random_instance(seed, max_n=7, unit_demand=False, max_tokens=8)
        a = solve_exact(inst)
        b = solve_exact_naive(inst)
        assert a.total_cost == b.total_cost, f"seed {seed}"
        assert check_feasible(inst, a).ok


def test_exact_at_least_lower_bound():
    for seed in range(40):
        inst = random_instance(seed, unit_demand=False, max_tokens=10)
        assert solve_exact(inst).total_cost >= flow_lower_bound(inst)


def test_extra_token_never_cheapens():
    for seed in range(20):
        inst = random_instance(seed, max_n=6, unit_demand=False, max_tokens=6)
        base = solve_exact(inst).total_cost
        for v in range(1, inst.n):
            demand = list(inst.demand)
            demand[v] += 1
            bumped = inst.replace(demand=tuple(demand))
            assert solve_exact(bumped).total_cost >= base


def test_optimum_invariant_under_relabeling():
    rng = random.Random(0)
    for seed in range(15):
        inst = random_instance(seed, max_n=7, unit_demand=False, max_tokens=7)
        perm = list(range(1, inst.n))
        rng.shuffle(perm)
        new_of = [0] + perm  # old id -> new id
        parent = [0] * inst.n
        weight = [0] * inst.n
        demand = [0] * inst.n
        for old in range(inst.n):
            nv = new_of[old]
            parent[nv] = -1 if old == 0 else new_of[inst.parent[old]]
            weight[nv] = inst.weight[old]
            demand[nv] = inst.demand[old]
        relabeled = TreeInstance(tuple(parent), tuple(weight), tuple(demand),
                                 inst.capacity)
        assert solve_exact(relabeled).total_cost == solve_exact(inst).total_cost
