import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from treecvrp.baselines import itp_solve
from treecvrp.exact import solve_exact
from treecvrp.generate import generate, stress_instance
from treecvrp.instance import Solution, Tour, TreeInstance
from treecvrp.structure import (
    TransformInfeasible, TransformParams, _big_buckets, _shift_bucket, coverage,
    profile_complexity, thresholds, transform)
from treecvrp.verify import check_feasible

from oracle import bucket_rule_reference


def hub_instance(leaves=12, q=3):
    """One internal hub with many unit-demand leaf children."""
    n = leaves + 2
    parent = (-1, 0) + (1,) * leaves
    weight = (0, 1) + (1,) * leaves
    demand = (0, 0) + (1,) * leaves
    return TreeInstance(parent, weight, demand, q)


def big_at(inst, sol, v, gamma, groups=1):
    """The big buckets at v under thresholds(Q, 1/2), and the coverage there."""
    here = coverage(inst, [t.as_dict() for t in sol.tours])[v]
    return _big_buckets(here, thresholds(inst.capacity, 0.5), gamma,
                        groups), here


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
        # a float eps is read as the decimal it prints
        sched = thresholds(q, eps)
        sigma, eps = sched.sigma, Fraction(str(eps))
        assert sched.eps == eps
        assert sigma[0] == 1 and sigma[-1] == q
        assert all(a < b for a, b in zip(sigma, sigma[1:]))
        head = min(math.ceil(1 / eps), q)
        assert sigma[:head] == tuple(range(1, head + 1))
        for a, b in zip(sigma, sigma[1:]):
            assert b <= max(math.ceil(a * (1 + eps)), a + 1)

    @given(st.integers(1, 2000),
           st.fractions(Fraction(1, 100), 3, max_denominator=1000))
    def test_is_the_fraction_formula(self, q, eps):
        # the integer arithmetic gives the Fraction formulas' ceilings
        sigma = list(range(1, min(math.ceil(1 / eps), q) + 1))
        while sigma[-1] < q:
            sigma.append(min(q, math.ceil(sigma[-1] * (1 + eps))))
        assert thresholds(q, eps).sigma == tuple(sigma)

    def test_float_eps_is_its_decimal(self):
        # in floats, 170 * 1.1 is 187.00000000000003, so the float grid of
        # 0.1 would skip 187
        assert 187 in thresholds(188, Fraction(1, 10)).sigma
        assert thresholds(188, 0.1) == thresholds(188, Fraction(1, 10))

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

        def rule(sizes, gamma, groups):
            return bucket_rule_reference(sched, sizes, gamma, groups)
        # buckets: 5,6,7 -> 3 (three distinct); 8,8 -> 4; 1 -> 0
        sizes = [5, 8, 6, 1, 8, 7]
        assert rule(sizes, gamma=2, groups=2) == {
            3: (3, False), 4: (1, True), 0: (1, True)}
        # three tours in bucket 3 are small once gamma reaches 3
        assert rule(sizes, gamma=3, groups=2)[3] == (3, True)
        # or admissible with g = 3 distinct sizes
        assert rule(sizes, gamma=1, groups=3)[3] == (3, True)
        # g = 0 admits only buckets of at most gamma tours
        assert rule([8, 8], gamma=1, groups=0) == {4: (1, False)}
        assert rule([8, 8], gamma=2, groups=0) == {4: (1, True)}
        assert rule([], gamma=0, groups=0) == {}

    @given(st.integers(1, 20),
           st.sampled_from([Fraction(1, 10), Fraction(1, 4), Fraction(1, 2),
                            Fraction(1), Fraction(2), 0.5]),
           st.integers(0, 3), st.integers(0, 3), st.data())
    def test_admits_is_bucket_rule(self, q, eps, gamma, groups, data):
        sched = thresholds(q, eps)
        sizes = data.draw(st.lists(st.integers(1, q), max_size=12))
        rule = bucket_rule_reference(sched, sizes, gamma, groups)
        assert sched.admits(sorted(sizes), gamma, groups) == all(
            ok for _, ok in rule.values())

    def test_admits_by_hand(self):
        sched = thresholds(10, 0.5)  # buckets as in test_bucket_rule_by_hand
        assert not sched.admits((1, 5, 6, 7, 8, 8), gamma=2, groups=2)
        assert sched.admits((1, 5, 6, 7, 8, 8), gamma=3, groups=2)
        assert sched.admits((1, 5, 6, 7, 8, 8), gamma=1, groups=3)
        # the last run is checked too
        assert not sched.admits((1, 8, 9), gamma=1, groups=1)
        assert sched.admits((), gamma=0, groups=0)


class TestParams:
    def test_default_formulas(self):
        p = TransformParams.defaults(256, 0.5)
        assert p.gamma == math.ceil(8 ** 3 / 0.25)
        assert p.groups == math.ceil(2 * 8 / 0.25)

    def test_floor_at_one(self):
        p = TransformParams.defaults(2, 10.0)
        assert p.gamma >= 1 and p.groups >= 1

    def test_exact_at_a_tiny_eps(self):
        # eps**2 of a float 1e-400 is 0.0; exact arithmetic keeps it
        p = TransformParams.defaults(256, Fraction(1, 10 ** 400))
        assert p.gamma == 8 ** 3 * 10 ** 800
        assert p.groups == 2 * 8 * 10 ** 800

    @given(st.integers(1, 10 ** 7),
           st.fractions(Fraction(1, 10 ** 6), 10, max_denominator=10 ** 6))
    def test_is_the_fraction_formula(self, n, eps):
        # the integer arithmetic gives the Fraction formulas' ceilings
        log_n = Fraction(math.log2(max(n, 2)))
        p = TransformParams.defaults(n, eps)
        assert p.gamma == max(1, math.ceil(log_n ** 3 / eps ** 2))
        assert p.groups == max(1, math.ceil(2 * log_n / eps ** 2))


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
        big, here = big_at(inst, sol, 1, gamma=4)
        assert big == []  # four tours are a small bucket at gamma 4
        assert list(here.values()) == [3, 3, 3, 3]
        [(bucket, groups)], _ = big_at(inst, sol, 1, gamma=3)
        assert bucket == 2 and groups == [[0, 1, 2, 3]]

    def test_small_buckets_are_skipped(self):
        # coverages 1, 1, 1 (bucket 0) and 3 (bucket 2) at the hub
        inst = hub_instance(leaves=6)
        sol = Solution.of(inst, [Tour.of({2: 1}), Tour.of({3: 1}),
                                 Tour.of({4: 1}), Tour.of({5: 1, 6: 1, 7: 1})])
        big, _ = big_at(inst, sol, 1, gamma=2)
        assert big == [(0, [[0, 1, 2]])]
        big, _ = big_at(inst, sol, 1, gamma=0)
        assert [b for b, _ in big] == [0, 2]  # ascending by bucket

    def test_big_bucket_grouping(self):
        inst = hub_instance()
        sol = hub_solution(inst)
        [(bucket, groups)], _ = big_at(inst, sol, 1, gamma=2, groups=2)
        assert bucket == 2
        assert groups == [[0, 1], [2, 3]]

    def test_coverages_5_and_7_share_a_bucket(self):
        sched = thresholds(10, 0.5)  # sigma = 1,2,3,5,8,10
        assert sched.bucket_of(5) == sched.bucket_of(7) == 3

    def test_bucket_counts_partition_tours(self):
        inst = hub_instance()
        sol = hub_solution(inst, per_tour=2)
        for gamma, groups in [(0, 1), (0, 2), (0, 4), (5, 4)]:
            big, _ = big_at(inst, sol, 1, gamma, groups)
            tids = [t for _, grps in big for grp in grps for t in grp
                    if t is not None]
            assert sorted(tids) == list(range(len(sol.tours)))

    def test_twelve_singletons_group_into_fours(self):
        inst = hub_instance()
        sol = hub_solution(inst, per_tour=1)
        [(_, groups)], _ = big_at(inst, sol, 1, gamma=2, groups=3)
        assert [len(g) for g in groups] == [4, 4, 4]
        assert groups == [list(range(i, i + 4)) for i in (0, 4, 8)]

    def test_null_padding_in_front(self):
        inst = hub_instance(leaves=9)
        sol = hub_solution(inst)  # 3 tours
        [(_, groups)], _ = big_at(inst, sol, 1, gamma=1, groups=2)
        # 3 tours into 2 groups of 2: one null slot, padded at the front
        assert groups == [[None, 0], [1, 2]]

    def test_groups_ascend_by_coverage_then_id(self):
        # coverages 5, 7, 6, 5 at the hub share bucket 3 of sigma 1,2,3,5,8,10
        inst = hub_instance(leaves=23, q=10)
        sizes = [5, 7, 6, 5]
        leaves = iter(range(2, inst.n))
        tours = [Tour.of({next(leaves): 1 for _ in range(k)}) for k in sizes]
        sol = Solution.of(inst, tours)
        [(bucket, groups)], _ = big_at(inst, sol, 1, gamma=1, groups=2)
        assert bucket == 3
        assert groups == [[0, 3], [2, 1]]


class TestShiftBucket:
    """The shift map on one big bucket: each group takes the bottoms of the
    group before it, padded up to that group's maximum, and the last group's
    bottoms leave as orphan units padded to its own maximum."""

    def test_pads_to_group_maxima(self):
        # coverages 5, 6, 6, 7 at the hub share bucket 3 of sigma 1,2,3,5,8,10
        inst = hub_instance(leaves=24, q=10)
        leaves = iter(range(2, inst.n))
        picks = [{next(leaves): 1 for _ in range(k)} for k in (5, 6, 6, 7)]
        here = coverage(inst, picks)[1]
        [(_, groups)] = _big_buckets(here, thresholds(10, 0.5), 1, 2)
        assert groups == [[0, 1], [2, 3]]  # maxima 6 and 7
        pad_demand = [0] * inst.n
        orphans = _shift_bucket(picks, pad_demand, 1, set(inst.subtree(1)),
                                groups, here)
        # group 2 takes the bottoms of tours 0 and 1, tour 0's padded from 5
        # to 6 at the hub; group 1 is emptied below the hub
        assert here == {2: 6, 3: 6}
        assert picks[2] == dict.fromkeys([2, 3, 4, 5, 6, 1], 1)
        assert picks[3] == dict.fromkeys(range(7, 13), 1)
        assert picks[0] == picks[1] == {}
        assert pad_demand[1] == 1
        # the old bottoms of tours 2 and 3 leave as orphan units, padded to
        # the last group's maximum 7; the caller counts those pads
        assert orphans == [(dict.fromkeys(range(13, 19), 1), 1),
                           (dict.fromkeys(range(19, 26), 1), 0)]


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

    def test_matches_bucket_rule_reference(self):
        # ITP, exact and transform outputs at several (eps, gamma, g): the
        # counts, the verdict and the violated (node, bucket) pairs are the
        # reference's, on coverages from a subtree scan
        sols = []
        for shape in ("random", "binary", "star", "parallel-paths"):
            for seed in range(3):
                inst = generate(shape, 8, 3, "unit", seed)
                sols += [(inst, itp_solve(inst)), (inst, solve_exact(inst))]
                big = generate(shape, 40, 10, "uniform", seed)
                itp = itp_solve(big)
                sols.append((big, itp))
                for gamma, g in ((0, 1), (1, 2), (2, 1)):
                    for t_seed in range(5):  # resample as the caller would
                        try:
                            out = transform(big, itp, 0.5,
                                            TransformParams(gamma, g), t_seed)
                        except TransformInfeasible:
                            continue
                        sols.append(out[:2])
                        break
        violated = 0
        for inst, sol in sols:
            picks = [t.as_dict() for t in sol.tours]
            sizes = {}
            for v in range(1, inst.n):
                sub = set(inst.subtree(v))
                sizes[v] = [c for p in picks
                            if (c := sum(n for u, n in p.items() if u in sub))]
            for eps in (Fraction(1, 2), Fraction(1, 4), Fraction(1)):
                sched = thresholds(inst.capacity, eps)
                for gamma, g in ((0, 1), (1, 2), (2, 3), (4, 2)):
                    want, bad = {}, set()
                    for v, here in sizes.items():
                        for b, (d, ok) in bucket_rule_reference(
                                sched, here, gamma, g).items():
                            want[(v, b)] = d
                            if not ok:
                                bad.add((v, b))
                    rep = profile_complexity(inst, sol, sched,
                                             TransformParams(gamma, g))
                    got = {tuple(map(int, re.match(
                        r"node (\d+) bucket (\d+):", text).groups()))
                        for text in rep.violations}
                    assert rep.distinct_sizes == want
                    assert (rep.ok, got) == (not bad, bad)
                    assert len(rep.violations) == len(got)
                    violated += bool(bad)
        assert len(sols) > 40 and violated > 40

    @pytest.mark.parametrize("q", [3, 9])
    def test_refuses_a_schedule_of_another_capacity(self, q):
        inst = hub_instance(leaves=3, q=5)
        sol = Solution.of(inst, [Tour.of({v: 1 for v in range(2, 5)})])
        with pytest.raises(ValueError, match=f"Q={q}, instance has Q=5"):
            profile_complexity(inst, sol, thresholds(q, 0.5),
                               TransformParams(gamma=1, groups=1))


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

    def test_orphaned_pad_stays_a_pad(self):
        # node 3's bottom of tour 1 is padded at node 1 and then orphaned at
        # node 1 itself; the pad used to become a physical pickup of the
        # extra copy, leaving node 3 covered 8 times against demand 7
        inst = TreeInstance((-1, 0, 1, 1, 1), (0, 1, 4, 2, 5),
                            (0, 3, 4, 7, 3), 8)
        sol = Solution.of(inst, [
            Tour.of({1: 1, 2: 1, 3: 2, 4: 1}), Tour.of({1: 1, 2: 2, 3: 1, 4: 2}),
            Tour.of({3: 2}), Tour.of({1: 1}), Tour.of({2: 1, 3: 2})])
        assert sol.total_cost == 70
        inst2, sol2, rep = transform(inst, sol, Fraction(2),
                                     TransformParams(0, 3), seed=0)
        assert check_feasible(inst2, sol2).ok
        assert inst2.demand[3] == 8
        assert rep.pad_tokens == 1 == sum(inst2.demand) - sum(inst.demand)

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


def _deep_case():
    """Depth 5, tours of mixed sizes: big buckets at two levels."""
    inst = TreeInstance((-1, 0, 1, 2, 3, 2), (0, 3, 1, 4, 1, 4),
                        (0, 1, 3, 2, 0, 3), 5)
    sol = Solution.of(inst, [Tour(((2, 2), (3, 1))),
                             Tour(((1, 1), (2, 1), (3, 1), (5, 1))),
                             Tour(((5, 2),))])
    return inst, sol


def _padded_orphan_case():
    inst = TreeInstance((-1, 0, 1, 1, 1), (0, 1, 4, 2, 5), (0, 3, 4, 7, 3), 8)
    sol = Solution.of(inst, [
        Tour.of({1: 1, 2: 1, 3: 2, 4: 1}), Tour.of({1: 1, 2: 2, 3: 1, 4: 2}),
        Tour.of({3: 2}), Tour.of({1: 1}), Tour.of({2: 1, 3: 2})])
    return inst, sol


def _itp_case():
    inst = generate("random", 8, 5, "uniform", 0)
    return inst, itp_solve(inst)


class TestTransformPinned:
    """Whole outputs of ``transform`` on fixed cases, as first recorded."""

    @pytest.mark.parametrize("case, eps, params, demand, tours, report", [
        # shift pads at the depth-2 node, orphans at two levels
        (_deep_case, Fraction(1), (1, 2), (0, 1, 4, 2, 0, 3),
         [(), ((1, 1), (2, 2)), (), ((2, 1), (5, 2)), ((3, 1),),
          ((2, 1), (3, 1), (5, 1)), (), (), ()],
         (56, 64, 56, 1, [0, 1, 2], 2, 52)),
        # a pad made at node 1 and orphaned there stays a pad
        (_padded_orphan_case, Fraction(2), (0, 3), (0, 3, 4, 8, 3),
         [(), (), ((1, 1),), ((1, 1),), ((1, 1), (2, 1), (4, 1)),
          ((2, 2), (3, 2), (4, 2)), ((3, 2),), ((3, 2),), ((2, 1), (3, 2)),
          (), (), (), (), (), ()],
         (70, 74, 70, 1, [0, 1, 2, 3, 4], 5, 68)),
        # one tour of four sampled; it hosts the one orphan unit
        (_itp_case, Fraction(1, 2), (1, 2), (0, 4, 1, 3, 4, 2, 2, 1),
         [((1, 4),), ((3, 3), (5, 2)), ((2, 1), (4, 4)), ((6, 2),),
          ((7, 1),), ()],
         (126, 142, 42, 0, [2], 1, 34)),
    ])
    def test_outputs(self, case, eps, params, demand, tours, report):
        inst, sol = case()
        inst2, sol2, rep = transform(inst, sol, eps, TransformParams(*params),
                                     seed=0)
        assert inst2 == inst.replace(demand=demand)
        assert [t.pickups for t in sol2.tours] == tours
        assert (rep.cost_before, rep.cost_after, rep.sampled_cost,
                rep.pad_tokens, rep.sampled_ids, rep.big_buckets,
                rep.shortcut_savings) == report
        assert check_feasible(inst2, sol2).ok

    @pytest.mark.parametrize("case, eps, params, seed, text, node, bucket", [
        (_deep_case, Fraction(1), (0, 2), 0,
         "level 4: only 0 sampled hosts for 1 orphan units at node 5 bucket 1",
         5, 1),
        (lambda: (hub_instance(), hub_solution(hub_instance())), 0.5, (2, 2),
         1, "level 2: only 1 sampled hosts for 2 orphan units at node 1 "
         "bucket 2", 1, 2),
    ])
    def test_raises(self, case, eps, params, seed, text, node, bucket):
        inst, sol = case()
        with pytest.raises(TransformInfeasible) as exc:
            transform(inst, sol, eps, TransformParams(*params), seed)
        assert (str(exc.value), exc.value.node, exc.value.bucket) == \
            (text, node, bucket)
