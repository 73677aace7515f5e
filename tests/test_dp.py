import copy
import dataclasses
import gc
import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from treecvrp import dp
from treecvrp.baselines import flow_lower_bound
from treecvrp.dp import (
    DPParams, NoStructuredSolutionError, ResourceLimitError, _Bound,
    _load_cap, _own_tokens, _rebuild, _rounding_filter, _structure_filter,
    _sweep, _to_solution, charge_edge, default_eps_prime, merge_child_table,
    solve_bicriteria, solve_structured)
from treecvrp.generate import generate, stress_instance
from treecvrp.instance import Solution, Tour, TreeInstance
from treecvrp.structure import (
    ThresholdSchedule, TransformParams, profile_complexity, thresholds)
from treecvrp.verify import check_feasible

from conftest import random_instance
from consistency import brute_consistent, check_consistency
from oracle import NoCut, Unbounded, merge_reference, solve_residual

STAR = TreeInstance((-1, 0, 0, 0), (0, 1, 1, 1), (0, 1, 1, 1), 2)

# (cost, stats["states"], unpruned states) of solve_structured with pads, per
# seed of the brute-force family below, keyed by (eps, gamma, g, pad_cap);
# None means NoStructuredSolutionError. The unpruned states were recorded
# before the DP cut states by the deepening bound, which keeps a subset of
# them; costs and None entries are as they were then.
PADDED_FAMILY = {
    (Fraction(1, 2), 1, 0, 1): [
        (44, 19, 43), (12, 6, 13), None, (10, 3, 10), (12, 7, 8), (18, 12, 18),
        (50, 27, 70), (16, 3, 6), (2, 3, 4), (22, 10, 23), None, (36, 16, 50),
        (20, 8, 13), (12, 9, 10), (6, 2, 3), (2, 2, 4), (22, 12, 16), None,
        (12, 3, 5), (42, 20, 25), (32, 25, 59), (20, 6, 7), None, (32, 14, 42),
        None, None, None, (42, 10, 21), (10, 1, 4), (18, 10, 18), (28, 9, 21),
        (8, 2, 2), (6, 1, 2), None, (20, 11, 18), (8, 10, 23), (16, 7, 9),
        (28, 16, 58), (48, 20, 28), (4, 2, 5)],
    (Fraction(1, 2), 1, 0, 2): [
        (44, 19, 70), (12, 6, 19), None, (10, 3, 15), (12, 9, 14),
        (18, 16, 31), (50, 35, 130), (16, 3, 7), (2, 4, 7), (22, 13, 37), None,
        (36, 18, 87), (20, 10, 21), (12, 12, 18), (6, 3, 5), (2, 2, 5),
        (22, 15, 28), None, (12, 3, 5), (42, 20, 32), (32, 29, 90),
        (20, 8, 11), None, (32, 14, 63), None, None, None, (42, 10, 26),
        (10, 1, 6), (18, 10, 24), (28, 10, 28), (8, 3, 4), (6, 1, 2), None,
        (20, 12, 27), (8, 10, 36), (16, 7, 11), (28, 16, 112), (48, 25, 47),
        (4, 2, 7)],
    (Fraction(1, 2), 2, 1, 1): [
        (44, 22, 203), (12, 8, 51), (62, 20, 79), (10, 3, 24), (12, 7, 12),
        (18, 14, 43), (50, 29, 163), (16, 3, 10), (2, 3, 5), (22, 12, 77),
        (30, 10, 53), (36, 18, 166), (20, 8, 24), (12, 9, 15), (6, 2, 5),
        (2, 2, 6), (18, 12, 62), (26, 21, 182), (12, 4, 16), (42, 21, 58),
        (32, 31, 212), (20, 8, 22), (10, 3, 18), (32, 18, 242), (38, 21, 145),
        (26, 10, 67), (46, 14, 102), (42, 11, 87), (10, 1, 11), (18, 10, 35),
        (28, 9, 67), (8, 2, 3), (6, 1, 4), (62, 13, 84), (20, 13, 37),
        (8, 10, 39), (16, 7, 15), (28, 16, 158), (48, 22, 70), (4, 2, 9)],
    (Fraction(1, 2), 2, 1, 2): [
        (44, 22, 528), (12, 8, 104), (62, 20, 162), (10, 3, 54), (12, 9, 27),
        (18, 18, 101), (50, 37, 427), (16, 3, 18), (2, 4, 10), (22, 15, 190),
        (30, 10, 112), (36, 20, 438), (20, 10, 49), (12, 12, 33), (6, 3, 10),
        (2, 2, 11), (18, 14, 137), (26, 25, 457), (12, 4, 30), (42, 21, 122),
        (32, 35, 551), (20, 10, 46), (10, 3, 33), (32, 18, 639), (38, 24, 331),
        (26, 10, 141), (46, 14, 220), (42, 13, 184), (10, 1, 20), (18, 10, 73),
        (28, 11, 148), (8, 3, 6), (6, 1, 7), (62, 13, 177), (20, 14, 77),
        (8, 10, 98), (16, 7, 28), (28, 16, 481), (48, 27, 156), (4, 2, 16)],
    (Fraction(1, 4), 1, 1, 1): [
        (44, 22, 203), (12, 8, 51), (62, 20, 79), (10, 3, 24), (12, 7, 12),
        (18, 14, 43), (50, 29, 163), (16, 3, 10), (2, 3, 5), (22, 12, 77),
        (30, 10, 53), (36, 18, 166), (20, 8, 24), (12, 9, 15), (6, 2, 5),
        (2, 2, 6), (18, 12, 62), (26, 21, 182), (12, 4, 16), (42, 21, 58),
        (32, 31, 212), (20, 8, 22), (10, 3, 18), (32, 18, 242), (38, 21, 145),
        (26, 10, 67), (46, 14, 102), (42, 11, 87), (10, 1, 11), (18, 10, 35),
        (28, 9, 67), (8, 2, 3), (6, 1, 4), (62, 13, 84), (20, 13, 37),
        (8, 10, 39), (16, 7, 15), (28, 16, 158), (48, 22, 70), (4, 2, 9)],
    (Fraction(1, 4), 1, 1, 2): [
        (44, 22, 528), (12, 8, 104), (62, 20, 162), (10, 3, 54), (12, 9, 27),
        (18, 18, 101), (50, 37, 427), (16, 3, 18), (2, 4, 10), (22, 15, 190),
        (30, 10, 112), (36, 20, 438), (20, 10, 49), (12, 12, 33), (6, 3, 10),
        (2, 2, 11), (18, 14, 137), (26, 25, 457), (12, 4, 30), (42, 21, 122),
        (32, 35, 551), (20, 10, 46), (10, 3, 33), (32, 18, 639), (38, 24, 331),
        (26, 10, 141), (46, 14, 220), (42, 13, 184), (10, 1, 20), (18, 10, 73),
        (28, 11, 148), (8, 3, 6), (6, 1, 7), (62, 13, 177), (20, 14, 77),
        (8, 10, 98), (16, 7, 28), (28, 16, 481), (48, 27, 156), (4, 2, 16)],
}


def coarse_family():
    """A path and 9 random instances on which coarse grids overload tours.

    At eps' = 0.5, seed 33's bicriteria cost is below the flow bound at Q.
    """
    path = TreeInstance(tuple([-1] + list(range(7))), (0,) + (1,) * 7,
                        (0, 1, 1, 1, 1, 1, 1, 2), 8)
    return [path] + [
        random_instance(seed, capacities=(5, 6, 8), unit_demand=False,
                        max_tokens=12) for seed in (*range(8), 33)]


def with_depot_demand(seed):
    """Seeded small instance whose depot also holds 1..4 tokens."""
    inst = random_instance(seed, unit_demand=False, max_tokens=7)
    d0 = random.Random(seed).randint(1, 4)
    return inst.replace(demand=(d0,) + inst.demand[1:])


def token_partitions(inst):
    """Every partition of the tokens into tours of load <= Q, once each."""
    tokens = [v for v in range(inst.n) for _ in range(inst.demand[v])]
    seen = set()
    groups: list[list[int]] = []

    def rec(i):
        if i == len(tokens):
            key = tuple(sorted(tuple(sorted(g)) for g in groups))
            if key not in seen:
                seen.add(key)
                yield key
            return
        for g in groups:
            if len(g) < inst.capacity:
                g.append(tokens[i])
                yield from rec(i + 1)
                g.pop()
        groups.append([tokens[i]])
        yield from rec(i + 1)
        groups.pop()

    yield from rec(0)


class TestConsistency:
    """The consistency table, the spec of the DP's fold, on its own."""

    def test_base_case(self):
        assert check_consistency(0, (), (), ())

    def test_simple_cases(self):
        assert check_consistency(1, (3,), (2,), ())
        assert check_consistency(0, (5,), (2,), (3,))
        assert not check_consistency(0, (3,), (2,), ())
        assert not check_consistency(1, (), (), ())
        # both absorbed tours cannot come from the same side
        assert not check_consistency(0, (4,), (2, 2), ())
        assert check_consistency(0, (2, 2), (2, 2), ())

    def test_every_child_tour_must_be_absorbed(self):
        assert not check_consistency(3, (3,), (1, 2), ())

    def test_matches_brute_force_sample(self):
        # the sweep against the DP's fold lives in acceptance criterion 6
        sizes = range(1, 4)
        pools = [()] + [tuple(c) for k in (1, 2)
                        for c in itertools.combinations_with_replacement(sizes, k)]
        for z_v in pools:
            for z1 in pools:
                for z2 in pools:
                    o_v = sum(z_v) - sum(z1) - sum(z2)
                    if o_v < 0:
                        continue
                    assert check_consistency(o_v, z_v, z1, z2) == \
                        brute_consistent(o_v, z_v, z1, z2)

    @given(st.integers(0, 6),
           st.lists(st.integers(1, 8), max_size=3),
           st.lists(st.integers(1, 8), max_size=3),
           st.lists(st.integers(1, 8), max_size=3))
    @settings(max_examples=200)
    def test_matches_brute_force_random(self, o_v, z_v, z1, z2):
        assert check_consistency(o_v, tuple(z_v), tuple(z1), tuple(z2)) == \
            brute_consistent(o_v, z_v, z1, z2)

    def test_memo_is_per_call(self):
        assert check_consistency(1, (3,), (2,), ())
        assert not check_consistency(0, (3,), (2,), ())  # no stale memo hits


class TestBicriteria:
    def test_star(self):
        res = solve_bicriteria(STAR, 0.5)
        assert res.solution.total_cost == 6
        assert res.max_load <= STAR.capacity
        assert res.grid_exact

    def test_never_above_optimum(self):
        for seed in range(30):
            inst = random_instance(seed, unit_demand=False, max_tokens=9)
            opt = solve_residual(inst).total_cost
            res = solve_bicriteria(inst, 0.5)
            assert res.solution.total_cost <= opt

    def test_default_eps_prime_fine_enough_for_small_q(self):
        inst = random_instance(1, max_n=10)
        ep = default_eps_prime(inst, 0.5)
        assert ep <= 0.5 / inst.height

    def test_default_eps_prime_reads_a_float_as_its_decimal(self):
        inst = random_instance(1, max_n=10)
        assert default_eps_prime(inst, 0.1) == default_eps_prime(
            inst, Fraction(1, 10))

    @given(st.integers(1, 10 ** 7), st.integers(0, 200),
           st.fractions(Fraction(1, 10 ** 6), 10, max_denominator=10 ** 6))
    def test_default_eps_prime_is_the_fraction_formula(self, n, height, eps):
        log_n = Fraction(math.log2(max(n, 2)))
        inst = SimpleNamespace(n=n, height=height)
        ep = default_eps_prime(inst, eps)
        assert type(ep) is Fraction
        assert ep == min(eps ** 2 / log_n ** 2, eps / max(height, 1))

    def test_coarse_grid_can_overload(self):
        # coarse grids round sizes down once per non-depot level, so a load
        # may exceed Q by a (1+eps') factor per level but the cost never
        # exceeds the optimum; at least one run must actually overshoot
        overshoots = 0
        for inst in coarse_family():
            opt = solve_residual(inst).total_cost
            for eps_prime in (0.25, 0.5, 1.0):
                res = solve_bicriteria(inst, 0.5, eps_prime=eps_prime)
                bound = inst.capacity * (1 + eps_prime) ** (inst.height - 1)
                assert res.max_load <= bound, (inst, eps_prime)
                assert res.dp_cost <= opt, (inst, eps_prime)
                overshoots += res.max_load > inst.capacity
        assert overshoots > 0
        path = coarse_family()[0]
        assert not solve_bicriteria(path, 0.5, eps_prime=1.0).grid_exact

    def test_coarse_grid_pruning_changes_nothing(self):
        # the bound at load cap L cuts states even where loads overshoot Q,
        # or where the cost is below the flow bound at Q, which a bound at Q
        # would cut: the unpruned sweep gets the same cost and loads
        overshoots = below_flow = 0
        for inst in coarse_family():
            for eps_prime in (0.25, 0.5, 1.0):
                res = solve_bicriteria(inst, 0.5, eps_prime=eps_prime)
                sigma = thresholds(inst.capacity, eps_prime).sigma
                cost, tours = _sweep(inst, _rounding_filter(sigma),
                                     Unbounded(inst, 0, inst.capacity),
                                     10 ** 6)
                loads = [t.load for t in _to_solution(inst, tours).tours]
                assert (res.dp_cost, res.max_load) == (cost, max(loads)), \
                    (inst, eps_prime)
                assert res.max_load <= _load_cap(inst, sigma)
                overshoots += res.max_load > inst.capacity
                below_flow += res.dp_cost < flow_lower_bound(inst)
        assert overshoots > 0 and below_flow > 0

    def test_load_cap(self):
        path = coarse_family()[0]  # Q = 8, 7 levels below the depot
        assert thresholds(8, 1.0).sigma == (1, 2, 4, 8)
        # r = max(1/1, 3/2, 7/4) = 7/4; 8 * (7/4)**7 = 823543/2048
        assert _load_cap(path, (1, 2, 4, 8)) == 402
        for q in range(1, 21):
            inst = TreeInstance((-1, 0, 1), (0, 1, 1), (0, 1, 1), q)
            assert _load_cap(inst, tuple(range(1, q + 1))) == q

    def test_state_budget(self):
        # unpruned, node 1 folds two unit leaves into profiles (1, 1) and
        # (2,); the depot holds no frontier, so the inner node overflows
        inst = TreeInstance((-1, 0, 1, 1), (0, 1, 1, 1), (0, 0, 1, 1), 2)
        with pytest.raises(ResourceLimitError) as info:
            _sweep(inst, _rounding_filter((1, 2)),
                   Unbounded(inst, 0, inst.capacity), 1)
        assert info.value.node == 1

    def test_pruned_state_budget(self):
        # node 1 must send its 4 tokens up edge 1 in two tours of at most 3;
        # (1, 3) and (2, 2) do so at the same cost, so the bound keeps both
        inst = TreeInstance((-1, 0, 1), (0, 4, 2), (0, 3, 1), 3)
        with pytest.raises(ResourceLimitError) as info:
            solve_bicriteria(inst, 0.5, max_states=1)
        assert info.value.node == 1
        assert solve_bicriteria(inst, 0.5, max_states=2).dp_cost == \
            solve_residual(inst).total_cost

    def test_dp_cost_is_solution_cost(self):
        for seed in range(20):
            inst = with_depot_demand(seed)
            for eps_prime in (None, 1.0):
                res = solve_bicriteria(inst, 0.5, eps_prime=eps_prime)
                assert res.dp_cost == res.solution.total_cost, f"seed {seed}"


class TestStructured:
    def test_single_node_demand_below_depot(self):
        inst = TreeInstance((-1, 0, 1), (0, 2, 3), (0, 0, 1), 4)
        sol = solve_structured(inst, 0.5)
        assert sol.total_cost == 2 * 5

    def test_generous_equals_exact(self):
        for seed in range(30):
            inst = random_instance(seed, unit_demand=False, max_tokens=9)
            opt = solve_residual(inst).total_cost
            sol = solve_structured(inst, 0.5)
            assert sol.total_cost == opt, f"seed {seed}"
            assert check_feasible(inst, sol).ok

    def test_above_flow_lower_bound(self):
        for seed in range(20):
            inst = random_instance(seed, unit_demand=False, max_tokens=10)
            assert solve_structured(inst).total_cost >= flow_lower_bound(inst)

    def test_monotone_in_params(self):
        inst = stress_instance(n=17)
        sched = thresholds(inst.capacity, 0.5)
        costs = []
        for gamma in (1, 2, 8):
            params = DPParams(gamma=gamma, groups=2, schedule=sched)
            costs.append(solve_structured(inst, 0.5, params).total_cost)
        assert costs[0] >= costs[1] >= costs[2]

    def test_pads_buy_uniform_sizes(self):
        # three heavy leaves behind one expensive edge; g=1 forces one
        # distinct size in the [5,8) bucket, reachable only by padding
        parent = (-1, 0, 1, 1, 1)
        weight = (0, 5, 1, 1, 1)
        demand = (0, 0, 5, 6, 7)
        inst = TreeInstance(parent, weight, demand, 8)
        sched = thresholds(8, 0.5)
        base = DPParams(gamma=2, groups=1, schedule=sched)
        without = solve_structured(inst, 0.5, base)
        padded = solve_structured(
            inst, 0.5, DPParams(gamma=2, groups=1, schedule=sched, pad_cap=3))
        assert padded.total_cost < without.total_cost
        assert check_feasible(inst, padded).ok
        assert padded.total_cost == 36  # three tours padded to size 7

    def test_pads_may_cross_a_bucket_threshold(self):
        # two leaves of 3 tokens behind a heavy edge; with gamma=1, g=0 each
        # bucket of thresholds(4, 1/2) = (1, 2, 3, 4) holds at most one tour.
        # Padding one tour 3 -> 4 moves it into the next bucket: cost 44.
        # Every bucket holds a single size, so padding only up to a size
        # already in the tour's bucket changes nothing: the unpadded 46.
        inst = TreeInstance((-1, 0, 1, 1), (0, 10, 1, 1), (0, 0, 3, 3), 4)
        sched = thresholds(4, Fraction(1, 2))
        sols = [solve_structured(inst, Fraction(1, 2), DPParams(
            gamma=1, groups=0, schedule=sched, pad_cap=pad_cap))
            for pad_cap in (0, 2)]
        assert [sol.total_cost for sol in sols] == [46, 44]
        assert check_feasible(inst, sols[1]).ok

    def test_filter_sees_only_final_profiles(self):
        # the cheapest structured solution, tours {2:3} and {3:4, 4:1}, passes
        # an unstructured fold at node 1 before node 1's final profile
        inst = TreeInstance((-1, 0, 1, 1, 1), (0, 3, 2, 5, 4), (0, 0, 3, 4, 1),
                            5)
        params = DPParams(gamma=1, groups=1, schedule=thresholds(5, 0.5))
        assert solve_structured(inst, 0.5, params).total_cost == 34

    def test_cheapest_structured_matches_brute_force(self):
        for seed in range(40):
            inst = random_instance(seed, unit_demand=False, max_tokens=8)
            partitions = [Solution.of(inst, [Tour.of(Counter(g)) for g in p])
                          for p in token_partitions(inst)]
            for eps, gamma, groups in ((0.5, 1, 0), (0.25, 1, 1), (0.5, 2, 1)):
                sched = thresholds(inst.capacity, eps)
                tp = TransformParams(gamma, groups)
                best = min((sol.total_cost for sol in partitions
                            if profile_complexity(inst, sol, sched, tp).ok),
                           default=None)
                params = DPParams(gamma=gamma, groups=groups, schedule=sched)
                if best is None:
                    with pytest.raises(NoStructuredSolutionError):
                        solve_structured(inst, eps, params)
                    continue
                sol = solve_structured(inst, eps, params)
                assert sol.total_cost == best, f"seed {seed} {params}"
                assert profile_complexity(inst, sol, sched, tp).ok

    def test_filter_can_rule_out_everything(self):
        # gamma=1 with g=0 allows at most one tour per bucket; the five
        # buckets of thresholds(8, 0.5) can carry at most 1+2+4+7+8 = 22
        # tokens, but the subtree holds 24
        parent = (-1, 0, 1, 1, 1)
        weight = (0, 5, 1, 1, 1)
        demand = (0, 0, 8, 8, 8)
        inst = TreeInstance(parent, weight, demand, 8)
        sched = thresholds(8, 0.5)
        with pytest.raises(NoStructuredSolutionError):
            solve_structured(inst, 0.5, DPParams(gamma=1, groups=0,
                                                 schedule=sched))

    def test_stats_reported(self):
        stats = {}
        solve_structured(STAR, 0.5, stats=stats)
        assert stats["states"] > 0

    @pytest.mark.parametrize("field,value", [
        ("gamma", -1), ("groups", -1), ("pad_cap", -1), ("max_states", 0)])
    def test_params_reject_negative_counts(self, field, value):
        fields = dict(gamma=1, groups=1, schedule=thresholds(4, 0.5))
        fields[field] = value
        with pytest.raises(ValueError, match=field):
            DPParams(**fields)
        DPParams(gamma=0, groups=0, schedule=fields["schedule"], pad_cap=0,
                 max_states=1)

    def test_generous_eps_is_exact(self):
        # the schedule of every oracle call; the float 0.5 it replaced gave
        # the same thresholds
        params = DPParams.generous(STAR)
        assert params.schedule.eps == Fraction(1, 2)
        assert isinstance(params.schedule.eps, Fraction)
        for q in range(1, 21):
            assert thresholds(q, Fraction(1, 2)).sigma == \
                thresholds(q, 0.5).sigma, q


def hub_tree(seed, hubs, capacity=5, leaves=(2, 4), max_tokens=None):
    """Seeded depot with ``hubs`` bin-packing gadgets below it.

    Each gadget is a heavy edge to a hub with ``leaves`` (a range) leaves of
    demand in (Q/2, Q), so no two leaves share a tour and, with three leaves
    or more, the flow bound is often loose at the heavy edge. Draws repeat
    until the tokens are at most ``max_tokens``, which the smallest draw
    must meet.
    """
    rng = random.Random(seed)
    while True:
        parent, weight, demand = [-1], [0], [0]
        for _ in range(hubs):
            hub = len(parent)
            parent.append(0)
            weight.append(rng.randint(10, 20))
            demand.append(0)
            for _ in range(rng.randint(*leaves)):
                parent.append(hub)
                weight.append(rng.randint(1, 9))
                demand.append(rng.randint(capacity // 2 + 1, capacity - 1))
        if max_tokens is None or sum(demand) <= max_tokens:
            return TreeInstance(tuple(parent), tuple(weight), tuple(demand),
                                capacity)


def sweep_both_ways(inst, params):
    """(cost, canonical solution) or the failing node, pruned and not."""
    out = []
    for kind in (Unbounded, _Bound):
        try:
            cost, tours = _sweep(inst, _structure_filter(params),
                                 kind(inst, params.pad_cap, inst.capacity),
                                 params.max_states)
        except NoStructuredSolutionError as exc:
            out.append(exc.node)
        else:
            out.append((cost, _to_solution(inst, tours).canonical()))
    return out


class TestBoundPruning:
    """The deepening bound cuts states but never changes the answer."""

    def test_one_round_per_depot_child_when_the_bound_is_tight(self):
        stats = {}
        assert solve_structured(STAR, 0.5, stats=stats).total_cost == 6
        assert stats["rounds"] == 3

    def test_failure_is_the_first_in_sweep_order(self):
        # unpruned, nodes 1 and 2 each hold (1, 1) and (2,), over a budget
        # of one state; depot subtree 1 comes first in child order, so the
        # run stops at node 1 and never sweeps subtree 2. Pruned, (1, 1)
        # would cross edge 1 or 2 twice, above the flow bound, so the budget
        # holds.
        inst = TreeInstance((-1, 0, 0, 1, 1, 2, 2), (0,) + (1,) * 6,
                            (0, 0, 0, 1, 1, 1, 1), 2)
        rounding, seen = _rounding_filter((1, 2)), set()

        def recording(acc):
            # the nodes whose tokens the filtered profiles carry
            for key, (_, back) in acc.items():
                seen.update(v for _, phys in _rebuild(key, back)
                            for v, _ in phys)
            return rounding(acc)

        with pytest.raises(ResourceLimitError) as info:
            _sweep(inst, recording, Unbounded(inst, 0, inst.capacity), 1)
        assert info.value.node == 1
        assert seen == {3, 4}
        params = DPParams(gamma=9, groups=1, schedule=thresholds(2, 0.5),
                          max_states=1)
        assert solve_structured(inst, 0.5, params).total_cost == \
            solve_bicriteria(inst, 0.5, max_states=1).dp_cost == \
            solve_residual(inst).total_cost == 12

    def test_roadmap_hub_is_not_tight(self):
        inst = TreeInstance((-1, 0, 1, 1, 1), (0, 10, 9, 9, 9),
                            (0, 0, 2, 2, 2), 3)
        stats = {}
        sol = solve_structured(inst, stats=stats)
        assert flow_lower_bound(inst) == 94
        assert sol.total_cost == solve_residual(inst).total_cost == 112
        assert stats["rounds"] == 2

    def test_hub_gadgets_match_exact(self):
        loose = 0
        for seed in range(32):
            if seed % 2:  # one hub of 3 or 4 leaves, Q = 4 or 5
                inst = hub_tree(seed, 1, 4 + seed % 4 // 2, (3, 4), 12)
            else:  # two hubs of 1 to 3 leaves, Q = 5
                inst = hub_tree(seed, 2, 5, (1, 3), 14)
            opt = solve_residual(inst).total_cost
            sol = solve_structured(inst)
            assert sol.total_cost == opt, f"seed {seed}"
            assert check_feasible(inst, sol).ok
            loose += opt > flow_lower_bound(inst)
        assert loose >= 8

    def test_six_hubs_match_unpruned(self):
        inst = hub_tree(0, 6, leaves=(4, 4))
        assert 75 <= inst.total_demand <= 95
        sched = thresholds(inst.capacity, 0.5)
        for params in (DPParams.generous(inst),
                       DPParams(gamma=1, groups=1, schedule=sched, pad_cap=1)):
            unpruned, pruned = sweep_both_ways(inst, params)
            assert pruned == unpruned
        stats = {}
        opt = solve_structured(inst, stats=stats).total_cost
        assert opt == sweep_both_ways(inst, DPParams.generous(inst))[0][0]
        assert opt > flow_lower_bound(inst) and stats["rounds"] > 6

    def test_pruning_changes_nothing(self):
        failed = 0
        for seed in range(40):
            inst = random_instance(seed, unit_demand=False, max_tokens=8)
            for eps, gamma, groups in ((Fraction(1, 2), 1, 0),
                                       (Fraction(1, 2), 2, 1),
                                       (Fraction(1, 4), 1, 1)):
                for pad_cap in (0, 1, 2):
                    params = DPParams(gamma, groups,
                                      thresholds(inst.capacity, eps), pad_cap)
                    unpruned, pruned = sweep_both_ways(inst, params)
                    assert pruned == unpruned, (seed, params)
                    failed += isinstance(pruned, int)
        assert failed > 0

    def test_first_child_passes_the_cut(self):
        # a node starts from its first child's charged table with no cut:
        # after folded(first child), every entry must already be kept, in
        # every round of both solvers, with and without pads
        class Checked(_Bound):
            # keeps each node's filtered table; the sweep filters node v
            # after enter(v), so ``node`` names it
            passed = 0

            def __init__(self, inst, pad_cap, load_cap, node_filter):
                super().__init__(inst, pad_cap, load_cap)
                self.node_filter, self.tables = node_filter, {}

            def enter(self, v):
                super().enter(v)
                self.node = v

            def filter(self, acc):
                self.tables[self.node] = self.node_filter(acc)
                return self.tables[self.node]

            def folded(self, u):
                super().folded(u)
                if u != self.inst.children[self.node][0]:
                    return
                over = self.over
                for key, (cost, _) in charge_edge(
                        self.tables[u], self.inst.weight[u]).items():
                    assert self.keeps(cost, len(key))
                assert self.over == over
                Checked.passed += 1

        family = ([generate(shape, 16, q, model, seed)
                   for shape in ("random", "binary", "parallel-paths")
                   for model in ("unit", "uniform", "heavy")
                   for q, seed in ((2, 0), (3, 1), (5, 2))]
                  + [random_instance(seed, unit_demand=False, max_tokens=8)
                     for seed in range(20)]
                  + [hub_tree(seed, 2, 5, (1, 3), 14) for seed in range(10)])
        deepened = 0
        for inst in family:
            sigmas = [thresholds(inst.capacity, ep).sigma for ep in
                      (default_eps_prime(inst, 0.5), Fraction(1, 4))]
            runs = [(_structure_filter(params), pad_cap, inst.capacity)
                    for pad_cap in (0, 1)
                    for params in (DPParams.generous(inst),
                                   DPParams.defaults(inst, 0.5, pad_cap))]
            runs += [(_rounding_filter(sigma), 0, _load_cap(inst, sigma))
                     for sigma in sigmas]
            for node_filter, pad_cap, load_cap in runs:
                bound = Checked(inst, pad_cap, load_cap, node_filter)
                try:
                    _sweep(inst, bound.filter, bound, 10 ** 4)
                except (NoStructuredSolutionError, ResourceLimitError):
                    pass
                deepened += bound.rounds > len(inst.children[0])
        assert Checked.passed > 1000 and deepened > 5

    def test_path_term_is_its_definition(self):
        # extra[m] is the direct sum of 2*w(e)*max(0, m - need(e)) over the
        # edges e from v up to its depot child, at integer and Fraction
        # weights, with pads and at a load cap above Q
        for shape in ("path", "random", "binary"):
            for model in ("unit", "heavy"):
                base = generate(shape, 16, 3, model, 0)
                thirds = TreeInstance(
                    base.parent, tuple(Fraction(w, 3) for w in base.weight),
                    base.demand, base.capacity)
                for inst, pad_cap, load_cap in itertools.product(
                        (base, thirds), (0, 2), (3, 9)):
                    bound = _Bound(inst, pad_cap, load_cap)
                    for v in range(1, inst.n):
                        path, u = [], v
                        while u:
                            path.append(u)
                            u = inst.parent[u]
                        assert bound._path_term(v) == [
                            sum(2 * inst.weight[e] * max(0, m - bound.need[e])
                                for e in path)
                            for m in range(bound.tour_cap[v] + 1)]

    def test_keeps_is_most_tours_and_fold_matches_reference(self):
        # on random bounds, keeps(c, m) holds exactly for m <= most_tours(c),
        # and a fold leaves the keys, costs and least overshoot of the fold
        # that asks the bound about every pair and every new tour
        rng = random.Random(7)
        cut = kept = 0
        for trial in range(60):
            base = generate(("random", "binary", "star")[trial % 3], 12, 4,
                            "heavy", trial)
            inst = base if trial % 2 else TreeInstance(
                base.parent, tuple(Fraction(w, 3) for w in base.weight),
                base.demand, base.capacity)
            bound = _Bound(inst, trial % 2, rng.choice((4, 6)))
            v = max(range(1, inst.n), key=lambda u: bound.tour_cap[u])
            t = v
            while inst.parent[t]:
                t = inst.parent[t]
            bound.start(t)
            bound.ub += rng.randint(0, 40)
            bound.enter(v)
            for u in inst.children[v][:rng.randint(0, 2)]:
                bound.folded(u)
            top = bound.slack + bound.extra[-1]
            # random costs, and each cost at which m tours are just kept
            for c in ([Fraction(rng.randint(-20, 20), 20) * top
                       for _ in range(20)]
                      + [bound.slack - x for x in bound.extra]):
                most = bound.most_tours(c)
                for m in range(len(bound.extra)):
                    assert bound.keeps(c, m) == (m <= most)
            half = bound.tour_cap[v] // 2

            def table():
                return {tuple(sorted(rng.randint(1, inst.capacity)
                                     for _ in range(rng.randint(0, half)))):
                        (rng.randint(0, max(0, math.floor(top))), None)
                        for _ in range(rng.randint(1, 5))}

            acc, child = table(), table()
            ours, theirs = copy.copy(bound), copy.copy(bound)
            ours.over = theirs.over = None
            out = merge_child_table(acc, child, inst.capacity, 10 ** 6, v,
                                    ours)
            assert {k: c for k, (c, _) in out.items()} == merge_reference(
                acc, child, inst.capacity, theirs)
            assert ours.over == theirs.over
            cut += ours.over is not None
            kept += bool(out)
        assert cut > 10 and kept > 10

    def test_coarse_leaf_records_its_shortest_cut_key(self):
        # at a load cap L = 6 > Q = 2 one tour may cross the leaf edge, so the
        # first round keeps at most one tour there; every own key of six
        # tokens holds at least three, and the least overshoot is that of
        # (2, 2, 2), two tours over need, not of a two-tour key
        inst = TreeInstance((-1, 0), (0, 3), (0, 6), 2)
        bound = _Bound(inst, 0, 6)
        bound.start(1)
        assert dp._sweep_subtree(inst, (1,), None, 100, bound) is None
        assert bound.most_tours(0) == 1
        assert bound.over == 2 * 3 * 2
        bound.deepen()
        table, _ = dp._sweep_subtree(inst, (1,), None, 100, bound)
        assert table == {(2, 2, 2): (18, (1, 6))}


def sweep_outcome(inst, node_filter, pad_cap, load_cap, budget):
    """(cost, states, rounds, canonical solution) of one sweep, or the
    failing node."""
    stats = {}
    try:
        cost, tours = _sweep(inst, node_filter,
                             _Bound(inst, pad_cap, load_cap), budget, stats)
    except (NoStructuredSolutionError, ResourceLimitError) as exc:
        return exc.node
    return (cost, stats["states"], stats["rounds"],
            _to_solution(inst, tours).canonical())


class TestSkippedWork:
    """The solvers skip a node filter that cannot act and the own-token fold
    of a node with no tokens or pads; neither changes a table."""

    def test_skipped_filter_changes_nothing(self, monkeypatch):
        # each solver's own choice of filter against the filter forced on,
        # at generous, default and tight parameters, with and without pads
        monkeypatch.syspath_prepend(Path(__file__).parents[1] / "perfbench")
        from workloads import hub_instances
        family = [random_instance(seed, unit_demand=False, max_tokens=8)
                  for seed in range(40)] + hub_instances(1)
        chosen, sweep = [], dp._sweep

        def spy(inst, node_filter, *args, **kwargs):
            chosen.append(node_filter)
            return sweep(inst, node_filter, *args, **kwargs)

        monkeypatch.setattr(dp, "_sweep", spy)
        skipped = 0
        for inst in family:
            q = inst.capacity
            gen = DPParams.generous(inst)
            for params in (gen, dataclasses.replace(gen, pad_cap=1),
                           DPParams.defaults(inst, 0.5),
                           DPParams(1, 1, thresholds(q, 0.5))):
                try:
                    solve_structured(inst, 0.5, params)
                except NoStructuredSolutionError:
                    pass
                own = sweep_outcome(inst, chosen[-1], params.pad_cap, q,
                                    params.max_states)
                forced = sweep_outcome(inst, _structure_filter(params),
                                       params.pad_cap, q, params.max_states)
                assert own == forced, (inst, params)
                skipped += chosen[-1] is None
            solve_bicriteria(inst, 0.5)
            assert chosen[-1] is None  # the default grid is 1..Q here
            assert sweep_outcome(inst, None, 0, q, 200_000) == sweep_outcome(
                inst, _rounding_filter(tuple(range(1, q + 1))), 0, q, 200_000)
        assert skipped >= 2 * len(family)

    def test_admits_runs_only_where_it_can_act(self, monkeypatch):
        calls = []
        rule = ThresholdSchedule.admits

        def spy(self, *args):
            calls.append(args)
            return rule(self, *args)

        monkeypatch.setattr(ThresholdSchedule, "admits", spy)
        inst = hub_tree(0, 2, 5, (1, 3), 14)
        generous = solve_structured(inst)
        assert calls == []
        tight = DPParams(gamma=1, groups=1, schedule=thresholds(5, 0.5))
        assert solve_structured(inst, 0.5, tight).total_cost >= \
            generous.total_cost
        assert calls

    def test_no_own_token_fold_without_tokens_or_pads(self, monkeypatch):
        # node 1 is a hub of demand 0 with three leaves: its child folds run
        # at any pad_cap, its own-token fold (a table of back (1, 0)) only
        # when it may add pads
        inst = TreeInstance((-1, 0, 1, 1, 1), (0, 10, 9, 9, 9),
                            (0, 0, 2, 2, 2), 3)
        folds, merge = [], dp.merge_child_table

        def spy(acc, child, capacity, budget, node, bound):
            own = {b for _, b in child.values()} == {(node, 0)}
            folds.append((node, own))
            return merge(acc, child, capacity, budget, node, bound)

        monkeypatch.setattr(dp, "merge_child_table", spy)
        sched = thresholds(3, 0.5)
        for pad_cap in (0, 1):
            folds.clear()
            sol = solve_structured(inst, 0.5,
                                   DPParams(9, 1, sched, pad_cap=pad_cap))
            assert sol.total_cost == 112
            assert (1, False) in folds
            assert ((1, True) in folds) == bool(pad_cap)


class TestCollapsedRoot:
    def test_depot_demand_above_capacity(self):
        inst = TreeInstance((-1, 0, 0, 0, 3), (0, 1, 2, 3, 1),
                            (7, 1, 1, 0, 2), 3)
        opt = solve_residual(inst).total_cost
        sol = solve_structured(inst)
        res = solve_bicriteria(inst, 0.5)
        for s in (sol, res.solution):
            assert s.total_cost == opt
            assert check_feasible(inst, s).ok
            assert sorted(t.load for t in s.tours
                          if t.as_dict().keys() == {0}) == [1, 3, 3]

    def test_solvers_match_exact_with_depot_demand(self):
        for seed in range(30):
            inst = with_depot_demand(seed)
            opt = solve_residual(inst).total_cost
            sol = solve_structured(inst)
            assert sol.total_cost == opt, f"seed {seed}"
            assert check_feasible(inst, sol).ok
            res = solve_bicriteria(inst, 0.5)
            assert res.solution.total_cost == opt, f"seed {seed}"
            assert check_feasible(inst, res.solution).ok


class TestTableHelpers:
    def test_edge_charge_is_per_tour(self):
        table = {(1, 2): (10, ()), (3,): (4, ())}
        charged = charge_edge(table, 5)
        assert charged[(1, 2)][0] == 10 + 2 * 5 * 2
        assert charged[(3,)][0] == 4 + 2 * 5 * 1

    def test_merge_respects_capacity(self):
        acc = {(2,): (0, (5, 2))}
        child = {(3,): (0, (6, 3))}
        merged = merge_child_table(acc, child, 4, 10 ** 9, 1, NoCut())
        # 2+3 > 4: only the "keep separate" outcome exists
        assert set(merged) == {(2, 3)}
        roomy = merge_child_table(acc, child, 6, 10 ** 9, 1, NoCut())
        assert set(roomy) == {(2, 3), (5,)}
        assert witnesses(roomy)[(5,)] == (0, [(5, ((5, 2), (6, 3)))])

    def test_merge_leaves_no_reference_cycle(self):
        # the fold's enumeration refers to itself; freed on every exit, a
        # merge leaves nothing for the garbage collector, whether bounded,
        # unbounded or stopped by the state budget
        inst = TreeInstance((-1, 0, 1, 1), (0, 3, 1, 2), (0, 1, 2, 2), 3)
        acc = _own_tokens(2, 2, 3, 0)
        child = _own_tokens(3, 2, 3, 0)
        bound = _Bound(inst, 0, inst.capacity)
        bound.start(1)
        bound.enter(1)
        bound.folded(2)
        bound.folded(3)
        gc.collect()
        gc.disable()
        try:
            assert merge_child_table(acc, child, 3, 10 ** 9, 1, bound)
            merged = merge_child_table(acc, child, 3, 10 ** 9, 1, NoCut())
            assert len(acc) > 1 and len(merged) > 1
            assert merge_child_table(merged, _own_tokens(1, 1, 3, 0), 3,
                                     10 ** 9, 1, NoCut())
            try:
                merge_child_table(acc, child, 3, 1, 1, NoCut())
            except ResourceLimitError:
                pass
            else:
                pytest.fail("the budget of 1 state was not enforced")
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_own_tokens_spawn_new_tours(self):
        out = merge_child_table({(): (0, None)}, _own_tokens(1, 3, 2, 0), 2,
                                10 ** 9, 1, NoCut())
        assert set(out) == {(1, 2), (1, 1, 1)}

    def test_own_tokens_join_existing_tours(self):
        # a tour of size 1 (node 2's token) takes 0 or 2 of the node's 2
        # tokens, or 1 while the other starts a new tour; (1, 2) keeps its
        # first witness
        acc = {(1,): (5, (2, 1))}
        out = merge_child_table(acc, _own_tokens(1, 2, 3, 0), 3, 10 ** 9, 1,
                                NoCut())
        assert witnesses(out) == {
            (3,): (5, [(3, ((2, 1), (1, 2)))]),
            (1, 2): (5, [(1, ((2, 1),)), (2, ((1, 2),))]),
            (1, 1, 1): (5, [(1, ((2, 1),)), (1, ((1, 1),)), (1, ((1, 1),))]),
        }

    def test_pads_tracked_separately(self):
        # two pads raise a tour of load 1 to size 3; they never enter phys,
        # and the solution keeps only the physical pickup
        inst = TreeInstance((-1, 0, 1), (0, 1, 1), (0, 0, 1), 3)
        table = {(1,): (0, (2, 1))}
        out = merge_child_table(table, _own_tokens(1, 0, 3, 2), 3, 10 ** 9, 1,
                                NoCut())
        assert (3,) in out
        (tour,) = _rebuild((3,), out[(3,)][1])
        assert tour == (3, ((2, 1),))
        sol = _to_solution(inst, (tour,))
        assert sol.tours == (Tour(((2, 1),)),)

    def test_own_tokens_fill_physical_tokens_first(self):
        table = _own_tokens(4, 3, 4, 2)
        assert set(table) == {z[::-1] for total in (3, 4, 5)
                              for z in _partitions_brute(total, 4)}
        assert all(cost == 0 for cost, _ in table.values())
        # 3 tokens and 2 pads as (1, 4): the size-4 tour holds the 3 tokens
        assert witnesses(table)[(1, 4)] == (0, [(1, ()), (4, ((4, 3),))])


class TestRebuild:
    """Witnesses rebuilt from back-pointers."""

    def test_deep_path_needs_no_recursion(self):
        # one fold per node nests the back-pointers about 1100 deep, past
        # the interpreter's default recursion limit of 1000
        n = 1100
        inst = TreeInstance((-1,) + tuple(range(n - 1)), (0,) + (1,) * (n - 1),
                            tuple(2 if v % 100 == 99 else 0 for v in range(n)),
                            3)
        for sol in (solve_structured(inst),
                    solve_bicriteria(inst, 0.5).solution):
            assert sol.total_cost == 9584
            assert check_feasible(inst, sol).ok

    def test_replayed_pairs_match_the_fold(self):
        # every entry a fold makes rebuilds to tours of its key's sizes, each
        # one accumulated tour, one child tour or one of each, using every
        # tour of the pair its back names, at the pair's cost
        rng = random.Random(5)
        for capacity in (3, 4, 6):
            for _ in range(30):
                acc, child = {}, {}
                for table, first in ((acc, 1), (child, 20)):
                    for _ in range(rng.randint(1, 4)):
                        key, back = entry_of(
                            [(first + j, rng.randint(1, capacity))
                             for j in range(rng.randint(1, 4))])
                        table.setdefault(key, (rng.randint(0, 9), back))
                for key, (cost, back) in merge_child_table(
                        acc, child, capacity, 10 ** 9, 1, NoCut()).items():
                    k_acc, b_acc, k_ch, b_ch, _ = back
                    assert cost == acc[k_acc][0] + child[k_ch][0]
                    left = _rebuild(k_acc, b_acc) + _rebuild(k_ch, b_ch)
                    tours = _rebuild(key, back)
                    assert tuple(size for size, _ in tours) == key
                    for size, phys in tours:
                        parts = [t for t in left if t[1] in (
                            phys, phys[:1], phys[1:])]
                        assert sum(p for p, _ in parts) == size <= capacity
                        assert tuple(v for _, ph in parts for v in ph) == phys
                        for t in parts:
                            left.remove(t)
                    assert not left

    def test_sweep_cost_is_solution_cost(self, monkeypatch):
        # at pad_cap 0 every tour holds a physical token, so the DP pays for
        # exactly the edges its tours cross: a rebuild that joined tours into
        # a witness of another key would show here
        monkeypatch.syspath_prepend(Path(__file__).parents[1] / "perfbench")
        from workloads import hub_instances
        family = [random_instance(seed, unit_demand=False, max_tokens=8)
                  for seed in range(40)] + hub_instances(1)
        checked = 0
        for inst in family:
            sched = thresholds(inst.capacity, Fraction(1, 2))
            for params in (DPParams(gamma=1, groups=1, schedule=sched),
                           DPParams.defaults(inst, 0.5)):
                try:
                    cost, tours = _sweep(inst, _structure_filter(params),
                                         _Bound(inst, 0, inst.capacity),
                                         params.max_states)
                except NoStructuredSolutionError:
                    continue
                assert cost == _to_solution(inst, tours).total_cost, inst
                checked += 1
        assert checked > 100


def entry_of(tours):
    """A table entry (key, back) whose rebuilt tours are ``tours``, given as
    (node, size) pairs: each tour is one node's tokens, the first as a node's
    own-token entry and each other folded in as a tour of its own."""
    (v, size), *rest = tours
    key, back = (size,), (v, size)
    for v, size in rest:
        cur = key + (size,)
        key, back = tuple(sorted(cur)), (key, back, (size,), (v, size), cur)
    return key, back


def witnesses(table):
    """Each entry's cost and rebuilt tours, as (size, phys) pairs."""
    return {k: (c, _rebuild(k, b)) for k, (c, b) in table.items()}


def _partitions_brute(total, max_part):
    """Every non-increasing tuple of parts <= max_part summing to total."""
    return {tuple(sorted(c, reverse=True))
            for k in range(total + 1)
            for c in itertools.product(range(1, max_part + 1), repeat=k)
            if sum(c) == total}


def test_padded_family_is_pinned():
    # pads are exercised elsewhere only by three hand-built cases
    for seed in range(40):
        inst = random_instance(seed, unit_demand=False, max_tokens=8)
        for (eps, gamma, groups, pad_cap), pinned in PADDED_FAMILY.items():
            params = DPParams(gamma=gamma, groups=groups,
                              schedule=thresholds(inst.capacity, eps),
                              pad_cap=pad_cap)
            stats = {}
            try:
                sol = solve_structured(inst, eps, params, stats=stats)
            except NoStructuredSolutionError:
                got = None
            else:
                got = (sol.total_cost, stats["states"])
                assert check_feasible(inst, sol).ok
                assert stats["states"] <= pinned[seed][2]
            assert got == (pinned[seed] and pinned[seed][:2]), (
                seed, eps, gamma, groups, pad_cap)
