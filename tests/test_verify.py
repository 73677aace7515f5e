import random
from collections import Counter
from fractions import Fraction

import pytest

from treecvrp.baselines import flow_lower_bound, itp_solve
from treecvrp.exact import solve_exact
from treecvrp.instance import Solution, Tour, TreeInstance
from treecvrp.verify import check_feasible, ratio_report

from conftest import edge_count_cost, random_instance, relabeled
from oracle import check_feasible_reference

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


def _random_case(rng, fractional):
    """A random relabeled tree and a random packing of its tokens into
    tours, then up to two defects: an overloaded tour, short or extra
    coverage, an unknown node, a wrong declared cost."""
    n = rng.randint(1, 40)
    deep = rng.random() < 0.5
    parent = [-1] + [v - 1 if deep and rng.random() < 0.8 else rng.randrange(v)
                     for v in range(1, n)]
    if fractional:
        weight = [0] + [Fraction(rng.randint(0, 12), rng.randint(1, 4))
                        for _ in range(1, n)]
    else:
        weight = [0] + [rng.randint(0, 9) for _ in range(1, n)]
    demand = [rng.randint(0, 3) for _ in range(n)]
    q = rng.randint(1, 5)
    inst = TreeInstance(tuple(parent), tuple(weight), tuple(demand), q)
    ids = list(range(1, n))
    rng.shuffle(ids)
    inst = relabeled(inst, ids)
    tokens = [v for v in range(n) for _ in range(inst.demand[v])]
    rng.shuffle(tokens)
    tours = []
    while tokens:
        size = rng.randint(1, q)
        tours.append(Counter(tokens[:size]))
        tokens = tokens[size:]
    if rng.random() < 0.2:
        tours.insert(rng.randrange(len(tours) + 1), Counter())
    defects = rng.sample(["capacity", "short", "extra", "unknown", "cost"],
                         rng.choice([0, 0, 1, 1, 2]))
    if "capacity" in defects and len(tours) > 1:
        i = rng.randrange(len(tours) - 1)
        tours[i] += tours.pop(i + 1)
        tours[i][rng.randrange(n)] += q
    if "short" in defects and any(tours):
        t = rng.choice([t for t in tours if t])
        t[rng.choice(list(t))] -= 1
    if "extra" in defects and tours:
        rng.choice(tours)[rng.randrange(n)] += 1
    if "unknown" in defects and tours:
        rng.choice(tours)[rng.choice([n, n + 3, -1, -n - 1])] += 1
    tours = [Tour.of(t) for t in tours]
    cost = edge_count_cost(inst, Solution(tuple(tours), 0))
    if "cost" in defects:
        cost += rng.choice([1, -2, Fraction(1, 2)])
    return inst, Solution(tuple(tours), cost)


@pytest.mark.parametrize("fractional", [False, True], ids=["int", "fraction"])
def test_report_equals_reference(fractional):
    """The whole report, cost type included, equals the node-list
    reference's on feasible and broken solutions."""
    rng = random.Random(2024 + fractional)
    seen = Counter()
    for _ in range(400):
        inst, sol = _random_case(rng, fractional)
        rep = check_feasible(inst, sol)
        assert repr(rep) == repr(check_feasible_reference(inst, sol))
        seen["ok" if rep.ok else "broken"] += 1
        for text in rep.violations:
            kind = next(k for k in ("exceeds", "covered", "unknown",
                                    "declared") if k in text)
            seen[kind] += 1
    # every kind of report was met, each many times
    assert min(seen.values()) >= 20 and len(seen) == 6, seen


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
