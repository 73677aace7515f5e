import dataclasses
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

from conftest import edge_count_cost, random_instance, relabeled
from oracle import heavy_paths_reference

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


TABLE_READS = (
    lambda t: t.children, lambda t: t.topo_order, lambda t: t.subtree_sizes(),
    lambda t: t.subtree_demand, lambda t: t.dist_root, lambda t: t.depth,
    lambda t: t.preorder)


@pytest.mark.parametrize("reads", [TABLE_READS, TABLE_READS[::-1]],
                         ids=["forward", "backward"])
def test_one_walk_per_instance(reads, monkeypatch):
    walks = []
    subtree = TreeInstance.subtree

    def counted(self, v):
        walks.append(v)
        return subtree(self, v)

    monkeypatch.setattr(TreeInstance, "subtree", counted)
    inst = generate("random", 300, 4, "uniform", seed=2)
    for read in reads + reads:
        read(inst)
    assert walks == [0]


@pytest.mark.parametrize("shape", SHAPES)
def test_topo_order_is_the_depot_subtree(shape):
    inst = generate(shape, 200, 4, "unit", seed=5)
    assert list(inst.topo_order) == list(inst.subtree(0))
    shuffled = _relabeled(inst, random.Random(5))
    assert list(shuffled.topo_order) == list(shuffled.subtree(0))


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


@pytest.mark.parametrize("pickups, text", [
    (((1, 1), (2, 0)), "non-positive pickup 0 at node 2"),
    (((2, -1),), "non-positive pickup -1 at node 2"),
    (((1, 1), (1, 2)), "duplicate pickup entry for node 1"),
    # the first offender in order is named; a count is checked before a repeat
    (((3, 0), (3, 1)), "non-positive pickup 0 at node 3"),
    (((1, 1), (1, 0)), "non-positive pickup 0 at node 1"),
    (((2, 1), (1, 1), (2, 1), (3, 0)), "duplicate pickup entry for node 2"),
])
def test_tour_names_its_first_bad_pickup(pickups, text):
    with pytest.raises(ValueError) as exc:
        Tour(pickups)
    assert str(exc.value) == text


def test_tour_is_slotted_and_frozen():
    t = Tour.of({1: 2, 3: 1})
    assert not hasattr(t, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        t.pickups = ()
    assert t.pickups == ((1, 2), (3, 1))


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
    return relabeled(inst, ids)


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


def _random_tours(inst, rng):
    """Tours over random node sets, some empty, some with depot pickups."""
    tours = []
    for _ in range(rng.randrange(6)):
        nodes = [v for v in range(inst.n) if rng.random() < 0.3]
        tours.append(Tour.of({v: rng.randrange(1, 3) for v in nodes}))
    return tours


def _weight_type(value):
    return int if Fraction(value).denominator == 1 else Fraction


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
    # rational weights: thirds, and integers held as Fractions
    trees += [t.replace(weight=tuple(Fraction(w, k) for w in t.weight))
              for k in (3, 1) for t in trees[k::4]]
    for i, inst in enumerate(trees):
        rng = random.Random(i)
        for _ in range(4):
            nodes = [v for v in range(1, inst.n) if rng.random() < 0.4]
            assert pickup_set_cost(inst, nodes) == _closed_walk_cost(inst, nodes)
            # repeats and the depot add nothing
            noisy = nodes * 2 + [0, 0]
            rng.shuffle(noisy)
            assert pickup_set_cost(inst, noisy) == _closed_walk_cost(inst, nodes)
            # a solution costs the sum of its tours' walks, as an int when
            # that sum is integral
            tours = _random_tours(inst, rng)
            want = sum(_closed_walk_cost(inst, [v for v, _ in t.pickups])
                       for t in tours)
            got = solution_cost(inst, tours)
            assert got == want and type(got) is _weight_type(want)
            for t in tours:
                cost = tour_cost(inst, t)
                assert type(cost) is _weight_type(cost)
        assert pickup_set_cost(inst, ()) == pickup_set_cost(inst, [0]) == 0
        assert solution_cost(inst, []) == 0
        assert solution_cost(inst, [Tour(()), Tour.of({0: 2})]) == 0


def test_fraction_tours_with_an_integral_total_cost_an_int():
    # each leaf tour costs 2 * 1/4 = 1/2; two of them cost exactly 1
    inst = TreeInstance((-1, 0, 0), (0, Fraction(1, 4), Fraction(1, 4)),
                        (0, 1, 1), 1)
    tours = [Tour.of({1: 1}), Tour.of({2: 1})]
    assert tour_cost(inst, tours[0]) == Fraction(1, 2)
    cost = solution_cost(inst, tours)
    assert cost == 1 and type(cost) is int
    assert type(Solution.of(inst, tours).total_cost) is int


@pytest.mark.parametrize("shape", SHAPES)
def test_preorder_tables_are_the_heavy_paths_by_position(shape):
    """pos is the node-indexed reference's; head, jump and dist are its
    head node, that head's parent and dist_root, read by position."""
    for seed in range(6):
        rng = random.Random(seed)
        base = generate(shape, 2 + 9 * seed, 3, "unit", seed)
        for inst in (base, _relabeled(base, rng)):
            pos, head, jump, dist = inst.preorder
            ref_pos, ref_head = heavy_paths_reference(inst)
            assert pos == ref_pos
            for v in range(inst.n):
                h = ref_head[v]
                assert head[pos[v]] == pos[h]
                assert jump[pos[v]] == (pos[inst.parent[h]] if h else -1)
                assert dist[pos[v]] == inst.dist_root[v]


def test_pickup_set_cost_keeps_the_callers_order():
    inst = generate("random", 50, 3, "unit", 7)
    nodes = list(range(inst.n - 1, 0, -3)) + [0, 5, 5]
    before = list(nodes)
    assert pickup_set_cost(inst, nodes) == _closed_walk_cost(inst, nodes)
    assert nodes == before


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


def test_normalize_demands_returns_its_input_when_nothing_peels():
    insts = [random_instance(seed, max_n=8, unit_demand=False)
             for seed in range(40)]
    insts += [generate(shape, 200, q, model, seed) for shape in SHAPES
              for q, model in ((3, "uniform"), (10, "heavy"))
              for seed in range(2)]
    peeled_some = 0
    for inst in insts:
        residual, peeled = normalize_demands(inst)
        full = any(d >= inst.capacity for d in inst.demand)
        peeled_some += full
        assert (residual is inst) == (not full)
        assert bool(peeled.tours) == full
        if not full:
            assert peeled == Solution((), 0)
    assert 0 < peeled_some < len(insts)


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


def test_load_solution_drops_zero_counts_and_keeps_error_text():
    sol = load_solution("tour 3:0 2:1 1:2\ncost 4\n")
    assert sol.tours == (Tour(((1, 2), (2, 1))),)
    # a repeated node is rejected even at count 0
    for line in ("tour 1:0 1:0", "tour 2:1 2:0", "tour 1:-1"):
        with pytest.raises(InstanceError, match=(
                f"^negative or repeated pickup '.*' in {line!r}$")):
            load_solution(f"{line}\ncost 2\n")


def test_load_solution_rejects_second_cost_line():
    with pytest.raises(InstanceError, match="duplicate cost line"):
        load_solution("tour 1:1\ncost 5\ncost 7\n")


@pytest.mark.parametrize("line", ["n 3", "Q 5"])
def test_load_instance_rejects_second_n_or_q_line(line):
    text = "cvrp-tree v1\nn 2\nQ 2\nedge 0 1 1\n"
    load_instance(text)
    with pytest.raises(InstanceError, match=f"duplicate {line[0]} line"):
        load_instance(text + line + "\n")


def test_load_instance_rejects_garbage():
    with pytest.raises(InstanceError):
        load_instance("not a header\n")
    with pytest.raises(InstanceError):
        load_instance("cvrp-tree v1\nn 2\nQ 2\nedge 0 1 one\n")
    with pytest.raises(InstanceError):
        load_instance("cvrp-tree v1\nn 3\nQ 2\nedge 0 1 1\n")  # missing edge
