import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from treecvrp import build_reduced_tree, generate, itp_solve
from treecvrp.generate import SHAPES
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


@pytest.mark.parametrize("parent, node", [
    ((-1, 2, 3, 2), 1),  # 1 hangs below the cycle 2 <-> 3
    ((-1, 2, 4, 4, 3, 0), 1),  # the chain 1 -> 2 hangs below 3 <-> 4
    ((-1, 0, 3, 4, 2, 2), 2),  # 5 hangs below the cycle 2 -> 3 -> 4 -> 2
    ((-1, 0, 1, 4, 3), 3),
])
def test_cycle_names_smallest_node_off_the_depot(parent, node):
    n = len(parent)
    msg = f"node {node}: parent chain never reaches the depot"
    with pytest.raises(InstanceError, match=f"^{msg}$"):
        TreeInstance(parent, (0,) * n, (0,) * n, 2)


def test_validation_builds_no_tree_tables():
    inst = TreeInstance((-1, 0, 1, 1), (0, 2, 3, 4), (0, 1, 1, 1), 2)
    again = inst.replace(demand=(0, 0, 2, 1))
    assert again.demand == (0, 0, 2, 1) and again.parent == inst.parent
    for t in (inst, again):
        assert vars(t).keys() == {"parent", "weight", "demand", "capacity"}


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


def _relabeled(inst, rng):
    """The same tree with node ids 1..n-1 shuffled, so parents can outnumber
    their children."""
    ids = list(range(1, inst.n))
    rng.shuffle(ids)
    new = [0] + ids  # old id -> new id
    parent, weight, demand = [-1] * inst.n, [0] * inst.n, [0] * inst.n
    for v in range(1, inst.n):
        parent[new[v]] = new[inst.parent[v]]
        weight[new[v]] = inst.weight[v]
        demand[new[v]] = inst.demand[v]
    return TreeInstance(tuple(parent), tuple(weight), tuple(demand),
                        inst.capacity)


def _closed_walk_cost(inst, nodes):
    """Build the depot-to-depot walk through ``nodes``; price it edge by edge."""
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
    return sum(inst.weight[a if inst.parent[a] == b else b]
               for a, b in zip(walk, walk[1:]))


def test_cost_matches_explicit_closed_walk():
    trees = []
    for seed in range(25):
        rng = random.Random(seed)
        inst = random_instance(seed, max_n=9, unit_demand=False)
        trees += [inst, _relabeled(inst, rng)]
    for seed in range(15):
        rng = random.Random(seed)
        # a long path is compressed into zero-weight fans below anchors
        base = _relabeled(generate("path", 30 + seed, 3, "unit", seed), rng)
        reduced = build_reduced_tree(base, Fraction(1, 2)).tree
        assert 0 in reduced.weight[1:]
        assert any(reduced.parent[v] > v for v in range(1, reduced.n))
        trees += [base, reduced]
    for i, inst in enumerate(trees):
        rng = random.Random(i)
        for _ in range(4):
            nodes = [v for v in range(1, inst.n) if rng.random() < 0.4]
            assert pickup_set_cost(inst, nodes) == _closed_walk_cost(inst, nodes)
            # repeats and the depot add nothing
            noisy = nodes * 2 + [0, 0]
            rng.shuffle(noisy)
            assert pickup_set_cost(inst, noisy) == _closed_walk_cost(inst, nodes)
        assert pickup_set_cost(inst, ()) == pickup_set_cost(inst, [0]) == 0


def test_cost_on_long_path_in_closed_form():
    n = 20000
    weight = (0,) + tuple(1 + v % 7 for v in range(1, n))
    inst = TreeInstance((-1,) + tuple(range(n - 1)), weight, (0,) * n, 1)
    dist = [0] * n
    for v in range(1, n):
        dist[v] = dist[v - 1] + weight[v]
    for v in (0, 1, 2, 777, n // 2, n - 2, n - 1):
        assert pickup_set_cost(inst, [v]) == 2 * dist[v]
        assert pickup_set_cost(inst, [v, 1, v // 2]) == 2 * dist[max(v, 1)]


# ITP costs of every generator shape (n=300, Q=10, uniform demand, seed 0)
# and of its height-reduced tree at eps 1/2; exact integers, pinned.
ITP_COSTS_300 = {
    "random": (11144, 11144),
    "star": (850, 850),
    "path": (221570, 184576),
    "binary": (12672, 12672),
    "parallel-paths": (22836, 19924),
}


@pytest.mark.parametrize("shape", SHAPES)
def test_itp_costs_are_pinned(shape):
    inst = generate(shape, 300, 10, "uniform", 0)
    reduced = build_reduced_tree(inst, Fraction(1, 2)).tree
    assert (itp_solve(inst).total_cost,
            itp_solve(reduced).total_cost) == ITP_COSTS_300[shape]


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
