from fractions import Fraction

import pytest

from treecvrp.baselines import flow_lower_bound, itp_solve
from treecvrp.exact import solve_exact
from treecvrp.instance import Solution, Tour, TreeInstance
from treecvrp.verify import check_feasible, ratio_report

from conftest import random_instance

STAR = TreeInstance((-1, 0, 0, 0), (0, 1, 1, 1), (0, 1, 1, 1), 2)


def test_clean_report_on_exact_output():
    for seed in range(15):
        inst = random_instance(seed, unit_demand=False, max_tokens=9)
        rep = check_feasible(inst, solve_exact(inst))
        assert rep.ok
        assert not rep.violations


def test_capacity_violation_names_tour():
    sol = Solution.of(STAR, [Tour.of({1: 1, 2: 1, 3: 1})])
    rep = check_feasible(STAR, sol)
    assert not rep.ok
    assert any("tour 0" in v and "load 3" in v for v in rep.violations)


def test_moved_pickup_hits_exactly_two_nodes():
    good = solve_exact(STAR)
    tours = list(good.tours)
    # move one token from node 1 to node 2
    mutated = []
    moved = False
    for t in tours:
        d = t.as_dict()
        if not moved and d.get(1):
            d[1] -= 1
            d[2] = d.get(2, 0) + 1
            moved = True
        mutated.append(Tour.of(d))
    assert moved
    rep = check_feasible(STAR, Solution.of(STAR, mutated))
    coverage = [v for v in rep.violations if "covered" in v]
    assert len(coverage) == 2


def test_wrong_declared_cost_detected():
    sol = solve_exact(STAR)
    lied = Solution(sol.tours, sol.total_cost + 1)
    rep = check_feasible(STAR, lied)
    assert any("declared" in v for v in rep.violations)
    assert rep.recomputed_cost == sol.total_cost


def test_unknown_node_detected():
    sol = Solution(tuple([Tour.of({99: 1})]), 0)
    rep = check_feasible(STAR, sol)
    assert any("unknown node" in v for v in rep.violations)


def test_violations_are_pinned_in_text_and_order():
    inst = TreeInstance((-1, 0, 0, 0), (0, 1, 1, 1), (0, 1, 1, 2), 2)
    short = Tour.of({3: 1})  # node 3 gets 1 of its 2 tokens
    # tour 0 is overloaded and names unknown nodes: per tour the load comes
    # first; an unknown node stops the check before coverage and cost
    bad = Solution((Tour.of({1: 1, 2: 1, 9: 1, -1: 1}), short), 0)
    rep = check_feasible(inst, bad)
    assert rep.violations == (
        "tour 0: load 4 exceeds capacity 2",
        "tour 0: unknown node -1",
        "tour 0: unknown node 9",
    )
    assert (rep.ok, rep.recomputed_cost) == (False, 0)
    # without the unknown nodes: loads, then coverage by node, then cost
    bad = Solution((Tour.of({1: 1, 2: 2}), short), 0)
    rep = check_feasible(inst, bad)
    assert rep.violations == (
        "tour 0: load 3 exceeds capacity 2",
        "node 2: covered 2 tokens, demand is 1",
        "node 3: covered 1 tokens, demand is 2",
        "declared cost 0 != recomputed 6",
    )
    assert (rep.ok, rep.recomputed_cost) == (False, 6)


class TestRatioReport:
    def test_oracle_reference_is_one_for_exact(self):
        sol = solve_exact(STAR)
        rep = ratio_report(STAR, sol, "oracle")
        assert rep.ratio == 1
        assert not rep.fell_back

    def test_itp_vs_lower_bound_on_star(self):
        rep = ratio_report(STAR, itp_solve(STAR), "lower_bound")
        assert rep.ratio == Fraction(6, 6)

    def test_fallback_when_oracle_too_big(self):
        inst = TreeInstance((-1, 0), (0, 1), (0, 30), 2)
        from treecvrp.instance import Tour as T
        tours = [T.of({1: 2}) for _ in range(15)]
        rep = ratio_report(inst, Solution.of(inst, tours), "oracle")
        assert rep.fell_back
        assert rep.reference == "lower_bound"
        assert rep.reference_value == flow_lower_bound(inst)

    def test_ratio_at_least_one_against_oracle(self):
        for seed in range(10):
            inst = random_instance(seed, unit_demand=False, max_tokens=9)
            rep = ratio_report(inst, itp_solve(inst), "oracle")
            assert rep.ratio >= 1

    def test_rejects_unknown_reference(self):
        with pytest.raises(ValueError):
            ratio_report(STAR, solve_exact(STAR), "vibes")
