import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from treecvrp import height, instance, verify
from treecvrp.exact import solve_exact
from treecvrp.generate import SHAPES, generate
from treecvrp.height import (
    build_reduced_tree, decompose_paths, lift_solution, path_length_trigger,
    select_anchors)
from treecvrp.instance import Solution, Tour, TreeInstance
from treecvrp.verify import check_feasible

from conftest import random_instance, relabeled
from oracle import decompose_reference


def long_path(n, q=3):
    parent = tuple([-1] + list(range(n - 1)))
    weight = (0,) + (1,) * (n - 1)
    demand = (0,) * (n - 1) + (2,)
    return TreeInstance(parent, weight, demand, q)


class TestDecomposition:
    def test_path_is_one_level(self):
        d = decompose_paths(long_path(10))
        assert d.num_levels == 1
        assert d.levels[0] == (tuple(range(10)),)

    def test_edges_partitioned(self):
        for seed in range(30):
            inst = random_instance(seed, max_n=12)
            d = decompose_paths(inst)
            owned = []
            for lvl, level in enumerate(d.levels, start=1):
                for path in level:
                    # non-root paths start at their attachment node
                    if lvl > 1:
                        assert d.node_level[path[0]] < lvl
                    owned.extend(zip(path, path[1:]))
            assert sorted(owned) == sorted(
                (inst.parent[v], v) for v in range(1, inst.n))

    def test_perfect_binary_tree_levels(self):
        parent = tuple([-1] + [(v - 1) // 2 for v in range(1, 15)])
        inst = TreeInstance(parent, (0,) + (1,) * 14, (0,) * 14 + (1,), 2)
        d = decompose_paths(inst)
        assert d.num_levels == 4  # floor(log2(15)) + 1

    def test_level_count_logarithmic(self):
        for n in (10, 50, 200, 1000):
            inst = generate("random", n, 3, "unit", seed=n)
            d = decompose_paths(inst)
            assert d.num_levels <= math.floor(math.log2(n)) + 1


REDUCE_EPS = (Fraction(1, 4), Fraction(1, 2), 1)


def _assert_matches_reference(inst):
    """decompose_paths and build_reduced_tree equal the descent reference,
    on the tree and on each of its height-reduced trees."""
    for tree in [inst] + [build_reduced_tree(inst, eps).tree
                          for eps in REDUCE_EPS]:
        got, ref = decompose_paths(tree), decompose_reference(tree)
        assert got.levels == ref.levels
        assert got.node_level == ref.node_level
        built = [build_reduced_tree(tree, eps) for eps in REDUCE_EPS]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(height, "decompose_paths", decompose_reference)
            want = [build_reduced_tree(tree, eps) for eps in REDUCE_EPS]
        assert [(rt.tree, rt.zeroed_edges) for rt in built] == \
            [(rt.tree, rt.zeroed_edges) for rt in want]
    _assert_identity_rule(inst)


def _assert_identity_rule(inst):
    """The reduced tree is the input itself exactly when no edge is zeroed;
    a zeroed edge always moves some node's parent."""
    for eps in REDUCE_EPS:
        rt = build_reduced_tree(inst, eps)
        assert rt.original is inst
        assert (rt.tree is inst) == (rt.zeroed_edges == ())
        if rt.zeroed_edges:
            assert rt.tree.parent != inst.parent


@st.composite
def shuffled_trees(draw):
    """Random trees, deep or bushy, with node ids 1..n-1 shuffled so that a
    parent can outnumber its children."""
    n = draw(st.integers(1, 60))
    deep = draw(st.booleans())
    parent = [-1] + [v - 1 - draw(st.integers(0, min(2, v - 1))) if deep
                     else draw(st.integers(0, v - 1)) for v in range(1, n)]
    weight = [0] + [draw(st.integers(0, 4)) for _ in range(1, n)]
    inst = TreeInstance(tuple(parent), tuple(weight), (0,) * n, 3)
    return relabeled(inst, draw(st.permutations(range(1, n))))


class TestDecompositionReference:
    """decompose_paths reads preorder's heavy paths; the descent is the
    reference."""

    @given(shuffled_trees())
    def test_shuffled_trees(self, inst):
        _assert_matches_reference(inst)

    @pytest.mark.parametrize("shape", ["star", "binary", "parallel-paths"])
    def test_tied_sizes(self, shape):
        for n in (2, 3, 7, 15, 31, 64):
            inst = generate(shape, n, 3, "unit", seed=n)
            _assert_matches_reference(inst)
            ids = list(range(1, n))
            random.Random(n).shuffle(ids)
            _assert_matches_reference(relabeled(inst, ids))

    def test_perfect_binary_tree_reversed_ids(self):
        parent = tuple([-1] + [(v - 1) // 2 for v in range(1, 31)])
        inst = TreeInstance(parent, (0,) + (1,) * 30, (0,) * 31, 2)
        _assert_matches_reference(relabeled(inst, range(30, 0, -1)))

    def test_single_node(self):
        inst = TreeInstance((-1,), (0,), (0,), 1)
        assert decompose_paths(inst).levels == (((0,),),)
        _assert_matches_reference(inst)

    def test_substrate_shapes(self):
        for shape in ("random", "path", "binary"):
            _assert_matches_reference(generate(shape, 400, 10, "unit", 7))


# (shape, n, demand model) of the substrate benchmark trees, at Q = 10
SUBSTRATE_SIZES = (
    ("path", 1500, "uniform"), ("path", 2000, "unit"),
    ("random", 16000, "heavy"), ("binary", 16000, "uniform"),
    ("star", 16000, "uniform"), ("random", 400, "uniform"),
    ("binary", 400, "uniform"), ("path", 300, "uniform"),
    ("star", 300, "uniform"), ("random", 600, "uniform"),
    ("binary", 600, "uniform"), ("path", 600, "uniform"),
    ("star", 600, "uniform"))


class TestIdentityReduction:
    """A reduction that zeroes no edge returns its input."""

    @pytest.mark.parametrize("shape", SHAPES)
    def test_generator_shapes(self, shape):
        for n in (2, 9, 40, 300):
            for seed in range(3):
                _assert_identity_rule(generate(shape, n, 3, "uniform", seed))

    def test_substrate_sizes(self):
        kept = 0
        for shape, n, model in SUBSTRATE_SIZES:
            inst = generate(shape, n, 10, model, 1)
            _assert_identity_rule(inst)
            kept += build_reduced_tree(inst, Fraction(1, 2)).tree is inst
        # every tree but the paths keeps its shape at eps 1/2
        assert kept == 9

    def test_triggered_path_with_one_edge_steps(self):
        # doubling weights outgrow eps times the weight above them, so every
        # anchor step spans one edge: the path triggers but nothing moves
        inst = TreeInstance(tuple(range(-1, 63)),
                            (0,) + tuple(2 ** i for i in range(63)),
                            (0,) * 63 + (1,), 3)
        assert 63 > path_length_trigger(inst.n, 0.5)
        assert select_anchors(list(inst.weight[1:]), 0.5) == list(range(64))
        rt = build_reduced_tree(inst, 0.5)
        assert rt.tree is inst and rt.zeroed_edges == ()


class TestAnchors:
    def test_unit_path_example(self):
        assert select_anchors([1, 1, 1, 1], 1.0) == [0, 1, 3, 4]

    def test_endpoints_always_anchored(self):
        for eps in (0.25, 0.5, 1.0, 2.0):
            a = select_anchors([3, 1, 4, 1, 5, 9], eps)
            assert a[0] == 0 and a[1] == 1 and a[-1] == 6
            assert a == sorted(set(a))

    def test_huge_budget_collapses_to_three(self):
        assert select_anchors([1, 2, 3, 4], 100.0) == [0, 1, 4]

    def test_zero_weight_head_is_skipped(self):
        # the zero-weight stretch after anchor 1 compresses onto one anchor
        assert select_anchors([0, 0, 0, 1, 1], 0.5) == [0, 1, 4, 5]

    @given(st.lists(st.integers(0, 9), max_size=40),
           st.sampled_from([Fraction(1, 10), Fraction(1, 3), Fraction(1, 2),
                            Fraction(2), 0.5]))
    def test_int_weights_match_fraction_weights(self, w, eps):
        # int weights are compared with the floor of the budget
        assert select_anchors(w, eps) == select_anchors(
            [Fraction(x) for x in w], eps)

    def test_float_eps_budget_is_its_decimal(self):
        # 0.3's binary value is below 3/10, so 3 would not fit 0.3 * 10
        w = [10, 3, 1]
        assert select_anchors(w, Fraction(3, 10)) == [0, 1, 3]
        assert select_anchors(w, Fraction(0.3)) == [0, 1, 2, 3]
        assert select_anchors(w, 0.3) == [0, 1, 3]

    def test_anchor_growth_and_count_bound(self):
        rng = random.Random(5)
        for _ in range(30):
            w = [rng.randint(1, 9) for _ in range(rng.randint(3, 40))]
            eps = rng.choice([0.25, 0.5, 1.0])
            a = select_anchors(w, eps)
            prefix = [0]
            for x in w:
                prefix.append(prefix[-1] + x)
            # every non-final anchor step grows the span geometrically ...
            for i, j in zip(a[1:], a[2:]):
                if j != len(w):
                    assert prefix[j] > (1 + eps) * prefix[i]
            # ... so the anchor count is logarithmic in the path weight
            assert len(a) <= 3 + math.log(sum(w), 1 + eps)

    def test_span_within_budget(self):
        w = [2, 1, 1, 1, 1, 1, 8, 1, 1]
        eps = 0.5
        a = select_anchors(w, eps)
        prefix = [0]
        for x in w:
            prefix.append(prefix[-1] + x)
        for i, j in zip(a[1:], a[2:]):
            # nodes strictly between consecutive anchors stay within budget
            if j - i > 1:
                assert prefix[j - 1] - prefix[i] <= eps * prefix[i]


class TestReducedTree:
    def test_short_paths_untouched(self):
        inst = random_instance(3, max_n=6)
        rt = build_reduced_tree(inst, 0.5)
        assert rt.tree == inst  # all paths below the trigger

    def test_distances_never_increase(self):
        for seed in range(20):
            inst = generate("random", 60, 3, "unit", seed)
            rt = build_reduced_tree(inst, 0.5)
            for v in range(inst.n):
                assert rt.tree.dist_root[v] <= inst.dist_root[v]

    def test_height_shrinks_on_long_path(self):
        inst = long_path(64)
        rt = build_reduced_tree(inst, 0.5)
        assert rt.tree.height < inst.height
        trigger = path_length_trigger(inst.n, 0.5)
        assert inst.n - 1 > trigger  # the path did trigger

    def test_trigger_is_an_exact_int_floor(self):
        assert path_length_trigger(1024, Fraction(1, 10)) == 100
        assert path_length_trigger(1000, Fraction(1, 2)) == 19
        assert path_length_trigger(4, Fraction(1, 10 ** 400)) == 2 * 10 ** 400

    @pytest.mark.parametrize("edges", [100, 101])
    def test_float_eps_is_its_decimal(self, edges):
        # the float 0.1 is just above 1/10; read as the decimal it prints,
        # it gives the trigger 100 at n = 1024 that 1/10 gives, so a
        # 100-edge D-path stays and a 101-edge one is compressed at both
        n = 1024
        parent = (-1,) + tuple(range(edges)) + (0,) * (n - edges - 1)
        inst = TreeInstance(parent, (0,) + (1,) * (n - 1),
                            (0,) * edges + (1,) + (0,) * (n - edges - 1), 1)
        assert path_length_trigger(n, 0.1) == 100
        decimal, exact = (build_reduced_tree(inst, eps)
                          for eps in (0.1, Fraction(1, 10)))
        assert decimal.tree == exact.tree
        assert decimal.zeroed_edges == exact.zeroed_edges
        assert bool(exact.zeroed_edges) == (edges > 100)

    def test_anchor_distance_preserved(self):
        # the leaf is always an anchor; its depot distance is exact
        inst = long_path(40)
        rt = build_reduced_tree(inst, 0.5)
        assert rt.tree.dist_root[39] == inst.dist_root[39]

    def test_zeroed_edges_recorded(self):
        inst = long_path(40)
        rt = build_reduced_tree(inst, 0.5)
        assert rt.zeroed_edges
        for v in rt.zeroed_edges:
            assert rt.tree.weight[v] == 0

    def test_compression_conserves_total_weight(self):
        inst = long_path(64)
        rt = build_reduced_tree(inst, 0.5)
        assert sum(rt.tree.weight) == sum(inst.weight)

    def test_up_pushed_nodes_stay_within_eps(self):
        # an up-pushed node sits at its anchor; the forgotten stub was within
        # the eps budget, so lifting a visit back costs at most a 1+eps factor
        inst = long_path(64)
        rt = build_reduced_tree(inst, 0.5)
        assert rt.zeroed_edges
        for v in rt.zeroed_edges:
            assert inst.dist_root[v] <= (1 + 0.5) * rt.tree.dist_root[v]

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            build_reduced_tree(long_path(10), 0)


class TestProjectLift:
    def test_project_never_costs_more(self):
        from treecvrp.baselines import itp_solve
        for seed in range(15):
            inst = generate("path", 20, 3, "unit", seed)
            rt = build_reduced_tree(inst, 0.5)
            sol = itp_solve(inst)
            proj = Solution.of(rt.tree, sol.tours)  # same node ids
            assert proj.total_cost <= sol.total_cost

    def test_lift_round_trips_feasibility(self):
        inst = generate("path", 20, 3, "unit", 1)
        rt = build_reduced_tree(inst, 0.5)
        from treecvrp.baselines import itp_solve
        red_sol = itp_solve(rt.tree)
        lifted = lift_solution(rt, red_sol)
        assert check_feasible(inst, lifted).ok

    def test_project_lift_round_trip(self):
        from treecvrp.baselines import itp_solve
        inst = generate("path", 20, 3, "unit", 1)
        rt = build_reduced_tree(inst, 0.5)
        sol = itp_solve(rt.tree)
        back = Solution.of(rt.tree, lift_solution(rt, sol).tours)
        assert back.canonical() == sol.canonical()
        assert back.total_cost == sol.total_cost

    def test_lift_rejects_infeasible(self):
        inst = generate("path", 20, 3, "unit", 1)
        rt = build_reduced_tree(inst, 0.5)
        bogus = Solution.of(rt.tree, [Tour.of({1: 1})])
        with pytest.raises(ValueError):
            lift_solution(rt, bogus)

    @pytest.mark.parametrize("shape", ["path", "random"])
    def test_lift_prices_on_the_original(self, shape, monkeypatch):
        from treecvrp.baselines import itp_solve
        inst = generate(shape, 60, 3, "uniform", 2)
        rt = build_reduced_tree(inst, 0.5)
        # the path is compressed, the random tree comes back as it was
        assert (rt.tree is inst) == (shape == "random")
        sol = itp_solve(rt.tree)
        calls = []
        price = instance._positions_cost

        def spy(*args):
            calls.append(1)
            return price(*args)

        # check_feasible imports the pricing primitive by name; solution_cost
        # reads it from its own module
        for module in (instance, verify):
            monkeypatch.setattr(module, "_positions_cost", spy)
        lifted = lift_solution(rt, sol)
        # one pricing when the trees coincide, one per tree otherwise
        assert len(calls) == (1 if rt.tree is inst else 2)
        monkeypatch.undo()
        assert lifted == Solution.of(inst, sol.tours)

    def test_identity_lift_still_checks(self):
        inst = generate("random", 30, 3, "unit", 1)
        rt = build_reduced_tree(inst, 0.5)
        assert rt.tree is inst
        with pytest.raises(ValueError, match="infeasible on reduced tree"):
            lift_solution(rt, Solution.of(inst, [Tour.of({1: 1})]))
        sol = Solution.of(inst, [Tour.of({v: 1}) for v in range(1, inst.n)])
        assert lift_solution(rt, sol) == sol
        wrong = Solution(sol.tours, sol.total_cost + 1)
        with pytest.raises(ValueError, match="declared cost"):
            lift_solution(rt, wrong)


def test_sandwich_on_small_paths():
    # opt' <= opt <= (1 + 3*eps) * opt'; the full 100-instance sweep is in
    # the acceptance suite
    eps = 0.5
    for seed in range(10):
        inst = generate("path", 9, 2, "unit", seed)
        rt = build_reduced_tree(inst, eps)
        opt = solve_exact(inst).total_cost
        opt_red = solve_exact(rt.tree).total_cost
        assert opt_red <= opt <= (1 + 3 * eps) * opt_red
