"""Executable structure transform: thresholds, buckets, grouping and repacking.

Given a feasible solution and an RNG seed, produce a modified instance (extra
"pad" tokens at some nodes) and solution in which, at every node and size
bucket, partial tours either number at most gamma (small bucket, kept verbatim)
or take at most g distinct sizes (big bucket, compressed by the shift map).
Orphan tokens vacated from each big bucket's largest group are repacked onto
duplicated randomly sampled tours designated to that level.
"""

from __future__ import annotations

import bisect
import math
import random
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

from .instance import (Solution, Tour, TreeInstance, Weight, _as_weight,
                       tour_cost)


class TransformInfeasible(RuntimeError):
    """Retry-able: a level's sampled extra tours cannot host its orphan load."""

    def __init__(self, message: str, node: int, bucket: int):
        super().__init__(message)
        self.node = node
        self.bucket = bucket


@dataclass(frozen=True)
class ThresholdSchedule:
    sigma: tuple[int, ...]
    eps: Fraction | float
    capacity: int

    def bucket_of(self, size: int) -> int:
        """0-based bucket index for a coverage in [1, Q]."""
        if not 1 <= size <= self.capacity:
            raise ValueError(f"coverage {size} outside [1, {self.capacity}]")
        return bisect.bisect_right(self.sigma, size) - 1

    def bucket_rule(self, sizes: Iterable[int], gamma: int,
                    groups: int) -> dict[int, tuple[int, bool]]:
        """The structure rule on the partial-tour sizes at one node.

        Maps each occupied bucket, in order of first appearance, to its count
        of distinct sizes and whether it is admissible: small (at most
        ``gamma`` tours) or holding at most ``groups`` distinct sizes.
        """
        per_bucket: dict[int, list[int]] = defaultdict(list)
        for s in sizes:
            per_bucket[self.bucket_of(s)].append(s)
        out = {}
        for b, bucket_sizes in per_bucket.items():
            d = len(set(bucket_sizes))
            out[b] = (d, len(bucket_sizes) <= gamma or d <= groups)
        return out


def thresholds(capacity: int, eps: Fraction | float) -> ThresholdSchedule:
    if capacity < 1 or eps <= 0:
        raise ValueError("need Q >= 1 and eps > 0")
    head = math.ceil(1 / eps)
    sigma = list(range(1, min(head, capacity) + 1))
    while sigma[-1] < capacity:
        sigma.append(min(capacity, math.ceil(sigma[-1] * (1 + eps))))
    return ThresholdSchedule(tuple(sigma), eps, capacity)


@dataclass(frozen=True)
class TransformParams:
    gamma: int  # small-bucket tour cap
    groups: int  # g: group count for big buckets

    @classmethod
    def defaults(cls, n: int, eps: float) -> "TransformParams":
        log_n = math.log2(max(n, 2))
        gamma = max(1, math.ceil(log_n ** 3 / eps ** 2))
        g = max(1, math.ceil(2 * log_n / eps ** 2))
        return cls(gamma, g)


@dataclass
class BucketView:
    node: int
    bucket: int
    tour_ids: list[int]  # ascending by (coverage, id)
    coverages: list[int]
    small: bool
    groups: list[list[int | None]] = field(default_factory=list)  # None = padding slot

    @property
    def group_maxima(self) -> list[int]:
        cov = dict(zip(self.tour_ids, self.coverages))
        out = []
        for grp in self.groups:
            real = [cov[t] for t in grp if t is not None]
            out.append(max(real) if real else 0)
        return out


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


def _bucket_views(here: dict[int, int], v: int, schedule: ThresholdSchedule,
                  gamma: int, g: int) -> list[BucketView]:
    per_bucket: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for tid, cov in here.items():
        per_bucket[schedule.bucket_of(cov)].append((cov, tid))
    views = []
    for b in sorted(per_bucket):
        entries = sorted(per_bucket[b])
        tour_ids = [tid for _, tid in entries]
        covs = [c for c, _ in entries]
        small = len(entries) <= gamma
        view = BucketView(v, b, tour_ids, covs, small)
        if not small:
            m = len(tour_ids)
            per = math.ceil(m / g)
            padded: list[int | None] = [None] * (per * g - m) + list(tour_ids)
            view.groups = [padded[i * per:(i + 1) * per] for i in range(g)]
        views.append(view)
    return views


@dataclass
class TransformReport:
    cost_before: Weight = 0
    cost_after: Weight = 0
    sampled_cost: Weight = 0
    pad_tokens: int = 0
    sampled_ids: list[int] = field(default_factory=list)
    big_buckets: int = 0
    distinct_sizes: dict[tuple[int, int], int] = field(default_factory=dict)

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
    """Apply the bottom-up grouping/shift/repack procedure to ``sol``."""
    if params.gamma < 0:
        raise ValueError(f"need gamma >= 0, got {params.gamma}")
    if params.groups < 1:
        raise ValueError(f"need groups >= 1, got {params.groups}")
    rng = random.Random(seed)
    schedule = thresholds(inst.capacity, eps)
    report = TransformReport(cost_before=sol.total_cost)

    # Working state: pickups per tour (physical tokens) and pads per tour.
    picks: list[dict[int, int]] = [t.as_dict() for t in sol.tours]
    pads: list[dict[int, int]] = [dict() for _ in sol.tours]
    orig = coverage(inst, picks)

    # Sampling: each tour independently with probability eps; both copies of a
    # sampled tour are designated to one uniformly random visited level.
    visited: list[set[int]] = [set() for _ in picks]
    for v in range(1, inst.n):
        for tid in orig[v]:
            visited[tid].add(inst.depth[v])
    sampled_by_level: dict[int, list[int]] = defaultdict(list)
    for tid, t in enumerate(sol.tours):
        if not t.pickups or rng.random() >= eps or not visited[tid]:
            continue
        level = rng.choice(sorted(visited[tid]))
        report.sampled_ids.append(tid)
        report.sampled_cost += tour_cost(inst, t)
        sampled_by_level[level].append(tid)

    # Extra-copy accumulators: copy_items[tid] = list of orphan units assigned
    # to sampled tour tid; each unit = (pickups dict, pads-at-v count, v).
    copy_items: dict[int, list[tuple[dict[int, int], int, int]]] = defaultdict(list)

    def visit(v: int, here: dict[int, int]) -> None:
        extras = sampled_by_level.get(inst.depth[v], [])
        for view in _bucket_views(here, v, schedule, params.gamma,
                                  params.groups):
            if view.small:
                continue
            report.big_buckets += 1
            # Hosts: sampled tours of this level whose own partial at v sat in
            # this bucket in the input solution.
            hosts = [tid for tid in extras if tid in orig[v]
                     and schedule.bucket_of(orig[v][tid]) == view.bucket]
            _apply_big_bucket(inst, picks, pads, view, here, hosts,
                              copy_items)

    coverage(inst, picks, visit)

    # Materialize extra copies with the two-bin split of the orphan units.
    extra_tours, extra_pads = _split_copies(copy_items, inst.capacity)

    # Assemble the transformed instance and solution.
    pad_demand = [0] * inst.n
    for pd in pads + extra_pads:
        for v, c in pd.items():
            pad_demand[v] += c
            report.pad_tokens += c
    all_picks = [_merge_two(p, pd) for p, pd in zip(picks + extra_tours,
                                                     pads + extra_pads)]
    # Unused extra copies stay in the solution as empty, zero-cost tours.
    missing = 2 * len(report.sampled_ids) - len(extra_tours)
    all_picks.extend({} for _ in range(missing))

    inst2 = inst.replace(demand=tuple(d + p for d, p in zip(inst.demand, pad_demand)))
    sol2 = Solution.of(inst2, (Tour.of(p) for p in all_picks))
    report.cost_after = sol2.total_cost
    report.distinct_sizes = profile_complexity(inst2, sol2, schedule, params).distinct_sizes
    return inst2, sol2, report


def _merge_two(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out = dict(a)
    for v, c in b.items():
        out[v] = out.get(v, 0) + c
    return out


def _apply_big_bucket(inst, picks, pads, view, here, hosts, copy_items):
    """Shift bottoms one group down, pad to group maxima, orphan the last group.

    ``here`` is the coverage at ``view.node``; it ends at the new bottom sizes.
    """
    v = view.node
    sub = set(inst.subtree(v))
    g = len(view.groups)
    maxima = view.group_maxima

    bottoms = {tid: ({u: c for u, c in picks[tid].items() if u in sub},
                     {u: c for u, c in pads[tid].items() if u in sub})
               for tid in view.tour_ids}

    # Shift: group j receives the bottoms of group j-1 (position-wise), padded
    # up to h_max_{j-1}; group 1 receives empty bottoms; nulls give empty
    # bottoms with no pads.
    new_bottoms: dict[int, tuple[dict, dict]] = {}
    for j in range(1, g):
        for pos, tid in enumerate(view.groups[j]):
            if tid is None:
                continue
            src = view.groups[j - 1][pos]
            if src is None:
                new_bottoms[tid] = ({}, {})
                continue
            phys, pad = bottoms[src]
            want = maxima[j - 1]
            # Capacity safety: h_max_{j-1} <= h_min_j <= old bottom size.
            assert want <= here[tid], "shift map would violate capacity"
            pad = dict(pad)
            if want > here[src]:
                pad[v] = pad.get(v, 0) + (want - here[src])
            new_bottoms[tid] = (phys, pad)
    for tid in view.groups[0]:
        if tid is not None:
            new_bottoms[tid] = ({}, {})

    # Orphans: the last group's bottoms, each padded to exactly h_max_g, are
    # handed whole to distinct sampled tours whose own partial sits in this
    # bucket. One orphan unit per sampled tour per (v, bucket).
    orphans = []
    for tid in view.groups[-1]:
        if tid is None:
            continue
        phys, pad = bottoms[tid]
        orphans.append((_merge_two(phys, pad), maxima[-1] - here[tid]))

    if len(hosts) < len(orphans):
        raise TransformInfeasible(
            f"level {inst.depth[v]}: only {len(hosts)} sampled hosts for "
            f"{len(orphans)} orphan units at node {v} bucket {view.bucket}",
            v, view.bucket)
    for (unit, extra_pad), host in zip(orphans, hosts):
        copy_items[host].append((unit, extra_pad, v))

    for tid, (phys, pad) in new_bottoms.items():
        for held, new in ((picks[tid], phys), (pads[tid], pad)):
            for u in [u for u in held if u in sub]:
                del held[u]
            held.update(new)
        size = sum(phys.values()) + sum(pad.values())
        if size:
            here[tid] = size
        else:
            del here[tid]


def _split_copies(copy_items, q):
    """Two-bin split of each sampled tour's assigned orphan units."""
    tours: list[dict[int, int]] = []
    tour_pads: list[dict[int, int]] = []
    for host in sorted(copy_items):
        items = copy_items[host]
        sizes = [sum(u.values()) + ep for u, ep, _ in items]
        total = sum(sizes)
        bin1: list[int] = []
        acc = 0
        for i, s in enumerate(sizes):
            if acc + s <= q:
                bin1.append(i)
                acc += s
            else:
                break
        rest = [i for i in range(len(items)) if i not in bin1]
        rest_load = sum(sizes[i] for i in rest)
        if rest_load > q:
            unit, _, v = items[rest[0]]
            raise TransformInfeasible(
                f"two-bin split failed for sampled tour {host}: "
                f"loads {sizes} exceed two bins of {q}", v, -1)
        for chosen in (bin1, rest):
            p: dict[int, int] = {}
            pd: dict[int, int] = {}
            for i in chosen:
                unit, extra_pad, v = items[i]
                for u, c in unit.items():
                    p[u] = p.get(u, 0) + c
                if extra_pad:
                    pd[v] = pd.get(v, 0) + extra_pad
            if p or pd:
                tours.append(p)
                tour_pads.append(pd)
    return tours, tour_pads


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
    """Check the structured shape: small buckets few, big buckets few sizes."""
    distinct: dict[tuple[int, int], int] = {}
    violations: list[str] = []
    cov = coverage(inst, [t.as_dict() for t in sol.tours])
    for v in range(1, inst.n):
        shape = schedule.bucket_rule(cov[v].values(), params.gamma,
                                     params.groups)
        for b, (d, ok) in shape.items():
            distinct[(v, b)] = d
            if not ok:
                violations.append(
                    f"node {v} bucket {b}: big bucket with {d} distinct sizes "
                    f"(> g={params.groups})")
    return ComplexityReport(distinct, violations)
