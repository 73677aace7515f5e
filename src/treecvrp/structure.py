"""Executable structure transform: thresholds, buckets, grouping and repacking.

Given a feasible solution and an RNG seed, produce a modified instance (extra
"pad" tokens at some nodes) and solution in which, at every node and size
bucket, partial tours either number at most gamma (small bucket, kept verbatim)
or take at most g distinct sizes (big bucket, compressed by the shift map).
Orphan tokens vacated from each big bucket's largest group are repacked onto
duplicated randomly sampled tours designated to that level.

A tour's pads share its one token map with its physical pickups, and each pad
is counted where it is made, so the returned instance's demand is the input
demand plus every pad added, each pad is a pickup of exactly one returned
tour, and ``report.pad_tokens`` counts them.
"""

from __future__ import annotations

import bisect
import functools
import random
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, groupby
from typing import Callable, Mapping, Sequence

from .instance import (Solution, Tour, TreeInstance, Weight, _as_weight,
                       as_fraction, log2_ratio, tour_cost)


class TransformInfeasible(RuntimeError):
    """Retry-able: a level's sampled extra tours cannot host its orphan load."""

    def __init__(self, message: str, node: int, bucket: int):
        super().__init__(message)
        self.node = node
        self.bucket = bucket


@dataclass(frozen=True)
class ThresholdSchedule:
    sigma: tuple[int, ...]
    eps: Fraction
    capacity: int

    def bucket_of(self, size: int) -> int:
        """0-based bucket index for a coverage in [1, Q]."""
        if not 1 <= size <= self.capacity:
            raise ValueError(f"coverage {size} outside [1, {self.capacity}]")
        return bisect.bisect_right(self.sigma, size) - 1

    def require_capacity(self, capacity: int) -> None:
        """Refuse an instance of another capacity than the schedule's."""
        if capacity != self.capacity:
            raise ValueError(f"schedule built for Q={self.capacity}, "
                             f"instance has Q={capacity}")

    @functools.cached_property
    def bucket(self) -> tuple[int, ...]:
        """``bucket_of(s)`` at index s for s in [1, Q]; index 0 is unused."""
        return (-1,) + tuple(map(self.bucket_of, range(1, self.capacity + 1)))

    def admits(self, sorted_sizes: Sequence[int], gamma: int,
               groups: int) -> bool:
        """The structure rule on ascending sizes in [1, Q], in one pass: each
        bucket holds at most ``gamma`` sizes or at most ``groups`` distinct
        ones. The DP filters and ``profile_complexity`` reports by it."""
        if len(sorted_sizes) <= gamma:
            return True
        table = self.bucket
        run, tours, distinct, prev = -1, 0, 0, 0
        for s in sorted_sizes:
            b = table[s]
            if b != run:
                if tours > gamma and distinct > groups:
                    return False
                run, tours, distinct = b, 0, 0
            tours += 1
            if s != prev:
                distinct += 1
                prev = s
        return tours <= gamma or distinct <= groups


def thresholds(capacity: int, eps: Fraction | float) -> ThresholdSchedule:
    """The bucket thresholds 1..ceil(1/eps), then each step times (1+eps)
    rounded up, up to Q, exact: in integers on eps = p/q, where a float eps
    counts as the decimal it prints (``as_fraction``), so 0.1 and 1/10 give
    one grid."""
    if capacity < 1 or eps <= 0:
        raise ValueError("need Q >= 1 and eps > 0")
    eps = as_fraction(eps)
    p, q = eps.numerator, eps.denominator
    sigma = list(range(1, min(-(-q // p), capacity) + 1))
    while sigma[-1] < capacity:
        sigma.append(min(capacity, -(-sigma[-1] * (p + q) // q)))
    return ThresholdSchedule(tuple(sigma), eps, capacity)


@dataclass(frozen=True)
class TransformParams:
    gamma: int  # small-bucket tour cap
    groups: int  # g: group count for big buckets

    @classmethod
    def defaults(cls, n: int, eps: Fraction | float) -> "TransformParams":
        """gamma = ceil(log2(n)^3/eps^2) and g = ceil(2*log2(n)/eps^2), at
        least 1, exact: in integers on log2(n) = a/b and eps = p/q, as a
        float eps**2 is 0 for a tiny eps. A float eps counts as the decimal
        it prints (``as_fraction``)."""
        a, b = log2_ratio(n)
        eps = as_fraction(eps)
        p2, q2 = eps.numerator ** 2, eps.denominator ** 2
        gamma = max(1, -(-a ** 3 * q2 // (b ** 3 * p2)))
        g = max(1, -(-2 * a * q2 // (b * p2)))
        return cls(gamma, g)


def coverage(inst: TreeInstance, pickups: Sequence[Mapping[int, int]],
             visit: Callable[[int, dict[int, int]], None] | None = None
             ) -> list[dict[int, int]]:
    """One bottom-up pass: ``cov[v]`` maps tour id -> its tokens in subtree(v).

    ``pickups[tid]`` maps node -> tokens of tour tid; only nonzero entries are
    stored. Nodes finish deepest level first, ascending ids within a level,
    and a finished entry lists ids ascending. ``visit(v, cov[v])`` runs on
    every non-depot node once its entry is complete and may rewrite it before
    it is added into the parent's.
    """
    cov: list[dict[int, int]] = [{} for _ in range(inst.n)]
    for tid, p in enumerate(pickups):
        for u, c in p.items():
            cov[u][tid] = c
    for v in sorted(range(inst.n), key=lambda u: (-inst.depth[u], u)):
        here = cov[v] = dict(sorted(cov[v].items()))
        if v:
            if visit is not None:
                visit(v, here)
            up = cov[inst.parent[v]]
            for tid, c in here.items():
                up[tid] = up.get(tid, 0) + c
    return cov


def _big_buckets(here: dict[int, int], schedule: ThresholdSchedule,
                 gamma: int, g: int) -> list[tuple[int, list[list[int | None]]]]:
    """``(bucket, groups)`` for each bucket at a node that holds more than
    ``gamma`` tours, ascending by bucket.

    The bucket's tours, ascending by (coverage, id) and led by null padding
    (``None``) up to a multiple of g, are cut into g equal groups.
    """
    out = []
    for b, run in groupby(sorted((cov, tid) for tid, cov in here.items()),
                          lambda entry: schedule.bucket_of(entry[0])):
        tids = [tid for _, tid in run]
        m = len(tids)
        if m <= gamma:
            continue
        per = -(-m // g)
        padded = [None] * (per * g - m) + tids
        out.append((b, [padded[i * per:(i + 1) * per] for i in range(g)]))
    return out


@dataclass
class TransformReport:
    cost_before: Weight = 0
    cost_after: Weight = 0
    sampled_cost: Weight = 0
    pad_tokens: int = 0
    sampled_ids: list[int] = field(default_factory=list)
    big_buckets: int = 0

    @property
    def shortcut_savings(self) -> Weight:
        """Per-copy saving vs duplicating every sampled tour verbatim.

        Includes the shrinking of the original tours, amortized over the two
        copies, so that cost_after - cost_before
        = 2 * (sampled_cost - shortcut_savings) holds exactly.
        """
        delta = self.cost_after - self.cost_before
        return _as_weight(self.sampled_cost - Fraction(delta, 2))


def transform(inst: TreeInstance, sol: Solution, eps: Fraction | float,
              params: TransformParams, seed: int
              ) -> tuple[TreeInstance, Solution, TransformReport]:
    """Apply the bottom-up grouping/shift/repack procedure to ``sol``.

    The returned instance's demand is the input demand plus every pad token
    added; each pad is a pickup of exactly one returned tour, and
    ``report.pad_tokens`` counts them all.
    """
    if params.gamma < 0:
        raise ValueError(f"need gamma >= 0, got {params.gamma}")
    if params.groups < 1:
        raise ValueError(f"need groups >= 1, got {params.groups}")
    rng = random.Random(seed)
    schedule = thresholds(inst.capacity, eps)
    report = TransformReport(cost_before=sol.total_cost)

    # Working state: one token map per tour (physical pickups and pads alike)
    # and the pads added at each node, counted where they are made.
    picks: list[dict[int, int]] = [t.as_dict() for t in sol.tours]
    pad_demand = [0] * inst.n

    # Sampling: each tour independently with probability eps; both copies of a
    # sampled tour are designated to one uniformly random level its root paths
    # visit, which are exactly the depths 2..(its deepest pickup).
    depth = inst.depth
    sampled_by_level: dict[int, list[int]] = defaultdict(list)
    for tid, t in enumerate(sol.tours):
        if not t.pickups or rng.random() >= eps:
            continue
        deepest = max(depth[u] for u, _ in t.pickups)
        if deepest < 2:
            continue
        level = rng.choice(range(2, deepest + 1))
        report.sampled_ids.append(tid)
        report.sampled_cost += tour_cost(inst, t)
        sampled_by_level[level].append(tid)

    # Extra-copy accumulators: copy_items[tid] = list of orphan units assigned
    # to sampled tour tid; each unit = (tokens dict, pads-at-v count, v).
    copy_items: dict[int, list[tuple[dict[int, int], int, int]]] = defaultdict(list)

    def visit(v: int, here: dict[int, int]) -> None:
        big = _big_buckets(here, schedule, params.gamma, params.groups)
        if not big:
            return
        sub = set(inst.subtree(v))
        # The input partials at v of the sampled tours of this level.
        extras = {tid: sum(c for u, c in sol.tours[tid].pickups if u in sub)
                  for tid in sampled_by_level.get(depth[v], ())}
        for bucket, groups in big:
            report.big_buckets += 1
            orphans = _shift_bucket(picks, pad_demand, v, sub, groups, here)
            # Hosts: sampled tours of this level whose own partial at v sat in
            # this bucket in the input solution.
            hosts = [tid for tid, c in extras.items()
                     if c and schedule.bucket_of(c) == bucket]
            if len(hosts) < len(orphans):
                raise TransformInfeasible(
                    f"level {depth[v]}: only {len(hosts)} sampled hosts for "
                    f"{len(orphans)} orphan units at node {v} bucket {bucket}",
                    v, bucket)
            for (unit, extra_pad), host in zip(orphans, hosts):
                copy_items[host].append((unit, extra_pad, v))

    coverage(inst, picks, visit)

    # Materialize extra copies with the two-bin split of the orphan units.
    extra = _split_copies(copy_items, inst.capacity, pad_demand)
    # Unused extra copies stay in the solution as empty, zero-cost tours.
    unused = 2 * len(report.sampled_ids) - len(extra)
    extra.extend({} for _ in range(unused))

    report.pad_tokens = sum(pad_demand)
    inst2 = inst.replace(demand=tuple(d + p for d, p in zip(inst.demand, pad_demand)))
    sol2 = Solution.of(inst2, (Tour.of(p) for p in picks + extra))
    report.cost_after = sol2.total_cost
    return inst2, sol2, report


def _shift_bucket(picks, pad_demand, v, sub, groups, here):
    """Shift bottoms one group down, pad to group maxima, orphan the last group.

    ``here`` is the coverage at node v, whose subtree's nodes are ``sub``; it
    ends at the new bottom sizes. Every pad added is counted in ``pad_demand``.
    Returns the orphan units, one ``(bottom, extra pads at v)`` per tour of
    the last group, for the caller to hand to distinct sampled tours.
    """
    g = len(groups)
    maxima = [max((here[t] for t in grp if t is not None), default=0)
              for grp in groups]

    bottoms = {tid: {u: c for u, c in picks[tid].items() if u in sub}
               for grp in groups for tid in grp if tid is not None}

    # Shift: group j receives the bottoms of group j-1 (position-wise), padded
    # up to h_max_{j-1}; group 1 receives empty bottoms; nulls give empty
    # bottoms with no pads.
    new_bottoms: dict[int, dict[int, int]] = {}
    for j in range(1, g):
        for pos, tid in enumerate(groups[j]):
            if tid is None:
                continue
            src = groups[j - 1][pos]
            if src is None:
                new_bottoms[tid] = {}
                continue
            want = maxima[j - 1]
            # Capacity safety: h_max_{j-1} <= h_min_j <= old bottom size.
            assert want <= here[tid], "shift map would violate capacity"
            bottom = new_bottoms[tid] = dict(bottoms[src])
            if want > here[src]:
                bottom[v] = bottom.get(v, 0) + (want - here[src])
                pad_demand[v] += want - here[src]
    for tid in groups[0]:
        if tid is not None:
            new_bottoms[tid] = {}

    # Orphans: the last group's bottoms, each padded to exactly h_max_g; one
    # unit per sampled host per (v, bucket).
    orphans = [(bottoms[tid], maxima[-1] - here[tid])
               for tid in groups[-1] if tid is not None]

    for tid, bottom in new_bottoms.items():
        kept = {u: c for u, c in picks[tid].items() if u not in sub}
        picks[tid] = kept | bottom
        if bottom:
            here[tid] = sum(bottom.values())
        else:
            del here[tid]
    return orphans


def _split_copies(copy_items, q, pad_demand):
    """Two-bin split of each sampled tour's orphan units: the longest prefix
    that fits in ``q``, then the rest. Extra pads are counted in ``pad_demand``.
    """
    tours: list[dict[int, int]] = []
    for host in sorted(copy_items):
        items = copy_items[host]
        sizes = [sum(u.values()) + ep for u, ep, _ in items]
        cut = bisect.bisect_right(list(accumulate(sizes)), q)
        if sum(sizes[cut:]) > q:
            raise TransformInfeasible(
                f"two-bin split failed for sampled tour {host}: "
                f"loads {sizes} exceed two bins of {q}", items[cut][2], -1)
        for chosen in (items[:cut], items[cut:]):
            if not chosen:
                continue
            tokens: Counter = Counter()
            for unit, extra_pad, v in chosen:
                tokens.update(unit)
                tokens[v] += extra_pad
                pad_demand[v] += extra_pad
            tours.append(tokens)
    return tours


@dataclass
class ComplexityReport:
    distinct_sizes: dict[tuple[int, int], int]
    violations: list[str]

    @property
    def ok(self) -> bool:
        return not self.violations


def profile_complexity(inst: TreeInstance, sol: Solution,
                       schedule: ThresholdSchedule,
                       params: TransformParams) -> ComplexityReport:
    """Check the structured shape: each node's coverages, ascending, split
    into one run per bucket; ``distinct_sizes[(v, b)]`` counts a run's distinct
    sizes, and each run ``schedule.admits`` rejects is a violation, listed in
    ascending bucket order at each node."""
    schedule.require_capacity(inst.capacity)
    distinct: dict[tuple[int, int], int] = {}
    violations: list[str] = []
    cov = coverage(inst, [t.as_dict() for t in sol.tours])
    for v in range(1, inst.n):
        for b, run in groupby(sorted(cov[v].values()), schedule.bucket_of):
            run = tuple(run)
            d = distinct[(v, b)] = len(set(run))
            if not schedule.admits(run, params.gamma, params.groups):
                violations.append(
                    f"node {v} bucket {b}: big bucket with {d} distinct sizes "
                    f"(> g={params.groups})")
    return ComplexityReport(distinct, violations)
