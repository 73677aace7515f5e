import random

import pytest
from hypothesis import given, strategies as st

from treecvrp.instance import (
    InstanceError, Solution, Tour, TreeInstance, load_instance, load_solution,
    normalize_demands, pickup_set_cost, save_instance, save_solution,
    solution_cost, tour_cost)

from conftest import edge_count_cost, random_instance

STAR = TreeInstance((-1, 0, 0, 0), (0, 1, 1, 1), (0, 1, 1, 1), 2)


def test_validation_errors():
    with pytest.raises(InstanceError):
        TreeInstance((0,), (0,), (0,), 2)  # root must have parent -1
    with pytest.raises(InstanceError):
        TreeInstance((-1, 0), (0, -1), (0, 1), 2)  # negative weight
    with pytest.raises(InstanceError):
        TreeInstance((-1, 0), (0, 1), (0, -1), 2)  # negative demand
    with pytest.raises(InstanceError):
        TreeInstance((-1, 0), (0, 1), (0, 1), 0)  # bad capacity
    with pytest.raises(InstanceError):
        # 1 and 2 form a parent cycle that never reaches the depot
        TreeInstance((-1, 2, 1), (0, 1, 1), (0, 1, 1), 2)


def test_depth_and_children():
    assert STAR.depth == (1, 2, 2, 2)
    assert STAR.children[0] == (1, 2, 3)
    assert STAR.height == 2
    assert STAR.subtree_demand[0] == 3


def test_tour_basics():
    t = Tour.of({3: 2, 1: 1})
    assert t.pickups == ((1, 1), (3, 2))
    assert t.load == 3
    with pytest.raises(ValueError):
        Tour(((1, 0),))
    with pytest.raises(ValueError):
        Tour(((1, 1), (1, 2)))


def test_tour_cost_on_star():
    assert tour_cost(STAR, Tour.of({1: 1, 2: 1})) == 4
    assert tour_cost(STAR, Tour.of({1: 2})) == 2
    assert pickup_set_cost(STAR, ()) == 0


def test_cost_against_edge_counting_oracle():
    for seed in range(40):
        inst = random_instance(seed, unit_demand=False)
        # arbitrary but deterministic split into tours of <= Q tokens
        tours, cur, load = [], {}, 0
        for v in range(inst.n):
            for _ in range(inst.demand[v]):
                cur[v] = cur.get(v, 0) + 1
                load += 1
                if load == inst.capacity:
                    tours.append(Tour.of(cur))
                    cur, load = {}, 0
        if cur:
            tours.append(Tour.of(cur))
        sol = Solution.of(inst, tours)
        assert sol.total_cost == edge_count_cost(inst, sol)


def test_normalize_demands_peels_full_loads():
    inst = TreeInstance((-1, 0), (0, 3), (0, 7), 3)
    residual, peeled = normalize_demands(inst)
    assert residual.demand == (0, 1)
    assert len(peeled.tours) == 2
    assert all(t.load == 3 for t in peeled.tours)
    assert peeled.total_cost == 12


def test_cost_matches_explicit_closed_walk():
    # build the actual depot-to-depot walk and price it edge by edge
    for seed in range(25):
        inst = random_instance(seed, max_n=9, unit_demand=False)
        rng = random.Random(seed)
        nodes = [v for v in range(1, inst.n) if rng.random() < 0.5]
        needed = set()
        for v in nodes:
            u = v
            while u and u not in needed:
                needed.add(u)
                u = inst.parent[u]
        walk = [0]

        def visit(u):
            for c in inst.children[u]:
                if c in needed:
                    walk.append(c)
                    visit(c)
                    walk.append(u)

        visit(0)
        assert walk[0] == walk[-1] == 0
        cost = sum(inst.weight[a if inst.parent[a] == b else b]
                   for a, b in zip(walk, walk[1:]))
        assert cost == pickup_set_cost(inst, nodes)


def test_merged_tour_costs_at_most_sum():
    for seed in range(30):
        inst = random_instance(seed, max_n=9, unit_demand=False)
        rng = random.Random(seed + 1)
        nodes = list(range(1, inst.n))
        a = {v: 1 for v in rng.sample(nodes, min(3, len(nodes)))}
        b = {v: 1 for v in rng.sample(nodes, min(2, len(nodes)))}
        merged = dict(a)
        for v, c in b.items():
            merged[v] = merged.get(v, 0) + c
        assert tour_cost(inst, Tour.of(merged)) <= \
            tour_cost(inst, Tour.of(a)) + tour_cost(inst, Tour.of(b))


def test_normalize_demands_noop_below_capacity():
    residual, peeled = normalize_demands(STAR)
    assert residual.demand == STAR.demand
    assert not peeled.tours


def test_normalize_token_conservation():
    for seed in range(40):
        inst = random_instance(seed, max_n=8, unit_demand=False)
        residual, peeled = normalize_demands(inst)
        assert sum(residual.demand) + sum(t.load for t in peeled.tours) == \
            inst.total_demand
        assert all(d < inst.capacity for d in residual.demand)


def test_normalize_composes_with_oracle():
    from treecvrp.exact import solve_exact
    # a node holding 2Q+1 tokens: peeling two full loads is lossless
    q = 2
    inst = TreeInstance((-1, 0, 1), (0, 2, 3), (0, 0, 2 * q + 1), q)
    residual, peeled = normalize_demands(inst)
    assert residual.demand == (0, 0, 1)
    assert len(peeled.tours) == 2
    assert solve_exact(residual).total_cost + peeled.total_cost == \
        solve_exact(inst).total_cost
    for seed in range(10):
        base = random_instance(seed, max_n=5, unit_demand=False, max_tokens=5)
        v = 1 + seed % (base.n - 1) if base.n > 1 else 0
        if v == 0:
            continue
        demand = list(base.demand)
        demand[v] += base.capacity
        inst = base.replace(demand=tuple(demand))
        residual, peeled = normalize_demands(inst)
        assert solve_exact(residual).total_cost + peeled.total_cost == \
            solve_exact(inst).total_cost


# --- file formats -----------------------------------------------------------

@given(st.integers(0, 10 ** 6))
def test_instance_round_trip(seed):
    inst = random_instance(seed, max_n=10, unit_demand=False)
    assert load_instance(save_instance(inst)) == inst


def test_instance_format_is_stable():
    text = save_instance(STAR)
    assert text.splitlines()[0] == "cvrp-tree v1"
    assert "edge 0 1 1" in text
    assert "demand 3 1" in text


def test_solution_round_trip():
    sol = Solution.of(STAR, [Tour.of({1: 1, 2: 1}), Tour.of({3: 1})])
    again = load_solution(save_solution(sol))
    assert again.canonical() == sol.canonical()
    assert again.total_cost == sol.total_cost
    assert save_solution(again) == save_solution(sol)


@pytest.mark.parametrize("line", ["tour 1:1 1:2", "tour 1:x", "tour 1:-2"])
def test_load_solution_rejects_bad_pickups(line):
    with pytest.raises(InstanceError):
        load_solution(f"{line}\ncost 2\n")


def test_load_instance_rejects_garbage():
    with pytest.raises(InstanceError):
        load_instance("not a header\n")
    with pytest.raises(InstanceError):
        load_instance("cvrp-tree v1\nn 2\nQ 2\nedge 0 1 one\n")
    with pytest.raises(InstanceError):
        load_instance("cvrp-tree v1\nn 3\nQ 2\nedge 0 1 1\n")  # missing edge
