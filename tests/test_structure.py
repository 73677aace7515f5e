import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from treecvrp.baselines import itp_solve
from treecvrp.exact import solve_exact
from treecvrp.generate import generate, stress_instance
from treecvrp.instance import Solution, Tour, TreeInstance
from treecvrp.structure import (
    TransformInfeasible, TransformParams, _bucket_views, coverage,
    profile_complexity, thresholds, transform)
from treecvrp.verify import check_feasible


def hub_instance(leaves=12, q=3):
    """One internal hub with many unit-demand leaf children."""
    n = leaves + 2
    parent = (-1, 0) + (1,) * leaves
    weight = (0, 1) + (1,) * leaves
    demand = (0, 0) + (1,) * leaves
    return TreeInstance(parent, weight, demand, q)


def views_at(inst, sol, v, gamma=None, groups=1):
    """The bucket views at v under thresholds(Q, 1/2); every bucket is small
    unless ``gamma`` is given."""
    here = coverage(inst, [t.as_dict() for t in sol.tours])[v]
    return _bucket_views(here, v, thresholds(inst.capacity, 0.5),
                         len(sol.tours) if gamma is None else gamma, groups)


def hub_solution(inst, per_tour=3):
    leaves = [v for v in range(2, inst.n)]
    tours = [Tour.of({v: 1 for v in leaves[i:i + per_tour]})
             for i in range(0, len(leaves), per_tour)]
    return Solution.of(inst, tours)


class TestThresholds:
    def test_paper_example(self):
        assert thresholds(10, 0.5).sigma == (1, 2, 3, 5, 8, 10)

    def test_small_capacity_collapses(self):
        assert thresholds(3, 0.5).sigma == (1, 2, 3)
        assert thresholds(1, 0.5).sigma == (1,)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            thresholds(0, 0.5)
        with pytest.raises(ValueError):
            thresholds(5, 0)

    @given(st.integers(1, 10 ** 6), st.floats(0.05, 2.0))
    def test_properties(self, q, eps):
        sched = thresholds(q, eps)
        sigma = sched.sigma
        assert sigma[0] == 1 and sigma[-1] == q
        assert all(a < b for a, b in zip(sigma, sigma[1:]))
        head = min(math.ceil(1 / eps), q)
        assert sigma[:head] == tuple(range(1, head + 1))
        for a, b in zip(sigma, sigma[1:]):
            assert b <= max(math.ceil(a * (1 + eps)), a + 1)

    def test_length_bound(self):
        for q, eps in [(10, 0.5), (1000, 0.25), (10 ** 6, 0.1)]:
            sigma = thresholds(q, eps).sigma
            assert len(sigma) <= \
                math.ceil(1 / eps) + math.ceil(math.log(q, 1 + eps)) + 1

    def test_bucket_of(self):
        sched = thresholds(10, 0.5)
        assert sched.bucket_of(1) == 0
        assert sched.bucket_of(4) == 2  # sigma = 1,2,3,5,8,10
        assert sched.bucket_of(10) == 5
        with pytest.raises(ValueError):
            sched.bucket_of(0)
        with pytest.raises(ValueError):
            sched.bucket_of(11)

    def test_bucket_rule_by_hand(self):
        sched = thresholds(10, 0.5)  # sigma = 1,2,3,5,8,10
        # buckets: 5,6,7 -> 3 (three distinct); 8,8 -> 4; 1 -> 0
        sizes = [5, 8, 6, 1, 8, 7]
        assert sched.bucket_rule(sizes, gamma=2, groups=2) == {
            3: (3, False), 4: (1, True), 0: (1, True)}
        # three tours in bucket 3 are small once gamma reaches 3
        assert sched.bucket_rule(sizes, gamma=3, groups=2)[3] == (3, True)
        # or admissible with g = 3 distinct sizes
        assert sched.bucket_rule(sizes, gamma=1, groups=3)[3] == (3, True)
        # g = 0 admits only buckets of at most gamma tours
        assert sched.bucket_rule([8, 8], gamma=1, groups=0) == {4: (1, False)}
        assert sched.bucket_rule([8, 8], gamma=2, groups=0) == {4: (1, True)}
        assert sched.bucket_rule([], gamma=0, groups=0) == {}


class TestParams:
    def test_default_formulas(self):
        p = TransformParams.defaults(256, 0.5)
        assert p.gamma == math.ceil(8 ** 3 / 0.25)
        assert p.groups == math.ceil(2 * 8 / 0.25)

    def test_floor_at_one(self):
        p = TransformParams.defaults(2, 10.0)
        assert p.gamma >= 1 and p.groups >= 1


class TestBucketViews:
    def test_partial_coverage(self):
        inst = hub_instance()
        sol = hub_solution(inst)
        cov = coverage(inst, [t.as_dict() for t in sol.tours])
        assert cov[1] == {0: 3, 1: 3, 2: 3, 3: 3}
        assert cov[2] == {0: 1}  # leaf 2 sits in tour 0 only
        assert cov[5] == {1: 1}

    def test_coverage_matches_subtree_scan(self):
        inst = generate("random", 40, 4, "uniform", 3)
        picks = [t.as_dict() for t in itp_solve(inst).tours]
        cov = coverage(inst, picks)
        for v in range(1, inst.n):
            sub = set(inst.subtree(v))
            scan = {tid: sum(c for u, c in p.items() if u in sub)
                    for tid, p in enumerate(picks)}
            assert cov[v] == {tid: c for tid, c in scan.items() if c}
            assert list(cov[v]) == sorted(cov[v])

    def test_small_bucket_classification(self):
        inst = hub_instance()
        sol = hub_solution(inst)
        views = views_at(inst, sol, 1)
        assert len(views) == 1
        assert views[0].small
        assert views[0].coverages == [3, 3, 3, 3]

    def test_big_bucket_grouping(self):
        inst = hub_instance()
        sol = hub_solution(inst)
        views = views_at(inst, sol, 1, gamma=2, groups=2)
        (view,) = views
        assert not view.small
        assert len(view.groups) == 2
        assert all(len(g) == 2 for g in view.groups)
        assert view.group_maxima == [3, 3]

    def test_coverages_5_and_7_share_a_bucket(self):
        sched = thresholds(10, 0.5)  # sigma = 1,2,3,5,8,10
        assert sched.bucket_of(5) == sched.bucket_of(7) == 3

    def test_bucket_counts_partition_tours(self):
        inst = hub_instance()
        sol = hub_solution(inst, per_tour=2)
        views = views_at(inst, sol, 1)
        assert sum(len(v.coverages) for v in views) == len(sol.tours)

    def test_twelve_singletons_group_into_fours(self):
        inst = hub_instance()
        sol = hub_solution(inst, per_tour=1)
        (view,) = views_at(inst, sol, 1, gamma=2, groups=3)
        assert not view.small
        assert [len(g) for g in view.groups] == [4, 4, 4]
        assert view.group_maxima == [1, 1, 1]

    def test_null_padding_in_front(self):
        inst = hub_instance(leaves=9)
        sol = hub_solution(inst)  # 3 tours
        views = views_at(inst, sol, 1, gamma=1, groups=2)
        (view,) = views
        # 3 tours into 2 groups of 2: one null slot, padded at the front
        assert view.groups[0][0] is None


class TestProfileComplexity:
    def test_flags_crowded_big_bucket(self):
        inst = hub_instance(leaves=18, q=10)
        leaves = list(range(2, 20))
        tours = [Tour.of({v: 1 for v in leaves[:5]}),
                 Tour.of({v: 1 for v in leaves[5:11]}),
                 Tour.of({v: 1 for v in leaves[11:18]})]
        sol = Solution.of(inst, tours)
        sched = thresholds(10, 0.5)
        # coverages 5, 6, 7 at the hub: one bucket, three distinct sizes
        bad = profile_complexity(inst, sol, sched,
                                 TransformParams(gamma=2, groups=2))
        assert not bad.ok
        assert any("node 1" in v for v in bad.violations)
        ok = profile_complexity(inst, sol, sched,
                                TransformParams(gamma=3, groups=2))
        assert ok.ok  # three tours now count as a small bucket

    def test_single_tour_has_one_size_everywhere(self):
        inst = hub_instance(leaves=3, q=10)
        sol = Solution.of(inst, [Tour.of({v: 1 for v in range(2, 5)})])
        rep = profile_complexity(inst, sol, thresholds(10, 0.5),
                                 TransformParams(gamma=1, groups=1))
        assert rep.ok
        assert set(rep.distinct_sizes.values()) == {1}


class TestTransform:
    def test_feasible_and_bookkeeping(self):
        inst = hub_instance()
        sol = hub_solution(inst)
        params = TransformParams(gamma=2, groups=2)
        successes = 0
        for seed in range(80):
            try:
                inst2, sol2, rep = transform(inst, sol, 0.5, params, seed)
            except TransformInfeasible:
                continue
            successes += 1
            assert check_feasible(inst2, sol2).ok
            delta = sol2.total_cost - sol.total_cost
            assert delta == 2 * (rep.sampled_cost - rep.shortcut_savings)
            assert rep.pad_tokens == sum(inst2.demand) - sum(inst.demand)
        assert successes > 0

    def test_big_buckets_compressed(self):
        inst = hub_instance()
        sol = hub_solution(inst)
        params = TransformParams(gamma=2, groups=2)
        sched = thresholds(inst.capacity, 0.5)
        for seed in range(80):
            try:
                inst2, sol2, rep = transform(inst, sol, 0.5, params, seed)
            except TransformInfeasible:
                continue
            assert rep.big_buckets >= 1
            assert profile_complexity(inst2, sol2, sched, params).ok

    def test_tour_count_accounting(self):
        inst = hub_instance()
        sol = hub_solution(inst)
        params = TransformParams(gamma=2, groups=2)
        for seed in range(40):
            try:
                _, sol2, rep = transform(inst, sol, 0.5, params, seed)
            except TransformInfeasible:
                continue
            assert len(sol2.tours) == len(sol.tours) + 2 * len(rep.sampled_ids)

    def test_generous_params_are_identity(self):
        inst = hub_instance()
        sol = hub_solution(inst)
        params = TransformParams(gamma=99, groups=1)
        inst2, sol2, rep = transform(inst, sol, 0.5, params, seed=0)
        assert rep.big_buckets == 0
        assert rep.pad_tokens == 0
        # sampling still duplicates tours, but nothing is repacked
        nonempty = [t for t in sol2.tours if t.pickups]
        assert Solution.of(inst, nonempty).canonical() == sol.canonical()

    def test_infeasible_names_node_and_bucket(self):
        inst = hub_instance()
        sol = hub_solution(inst)
        params = TransformParams(gamma=2, groups=2)
        raised = False
        for seed in range(80):
            try:
                transform(inst, sol, 0.5, params, seed)
            except TransformInfeasible as exc:
                raised = True
                assert 0 <= exc.node < inst.n
                break
        assert raised  # at this scale some seeds must lack hosts

    def test_savings_exact_on_fractional_weights(self):
        # delta = 2/3 here; halving it with // used to read savings 24, the
        # whole sampled cost, and broke the identity below
        inst = generate("random", 14, 3, "unit", 42)
        inst = inst.replace(weight=tuple(Fraction(w, 3) for w in inst.weight))
        sol = itp_solve(inst)
        _, sol2, rep = transform(inst, sol, 0.5, TransformParams(1, 2), 42)
        assert rep.cost_after - rep.cost_before == Fraction(2, 3)
        assert rep.shortcut_savings == rep.sampled_cost - Fraction(1, 3)
        assert sol2.total_cost - sol.total_cost == \
            2 * (rep.sampled_cost - rep.shortcut_savings)

    @pytest.mark.parametrize("groups", [0, -1])
    def test_needs_a_group(self, groups):
        inst = generate("random", 40, 3, "unit", 0)
        with pytest.raises(ValueError, match="groups"):
            transform(inst, itp_solve(inst), 1, TransformParams(1, groups), 0)

    def test_needs_nonnegative_gamma(self):
        inst = generate("random", 8, 3, "unit", 0)
        with pytest.raises(ValueError, match="gamma"):
            transform(inst, itp_solve(inst), 0.5, TransformParams(-1, 1), 0)

    def test_deterministic_per_seed(self):
        inst = stress_instance()
        sol = solve_exact(inst)
        params = TransformParams.defaults(inst.n, 0.5)
        a = transform(inst, sol, 0.5, params, seed=7)
        b = transform(inst, sol, 0.5, params, seed=7)
        assert a[1].canonical() == b[1].canonical()
        assert a[0] == b[0]
