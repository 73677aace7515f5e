"""Approximation-scheme dynamic programs over per-node tour-size profiles.

Both solvers sweep the tree bottom-up. A node's table maps a profile (the
sorted multiset of sizes of the partial tours entering its subtree) to the
cheapest witness realizing it. One fold, ``merge_child_table``, builds it:
every child tour is either kept separate or merged into one distinct
accumulated tour. The node's own tokens are one more child, folded last: a
zero-cost table of every split of them, plus 0..pad_cap pads, into tours of at
most Q. Then the solver's node filter (structure check or size rounding) runs
once on the node's final profile, and finally the parent edge is charged once
per tour.

The depot is not folded. It has no parent edge and no bucket constraint, so
merging tours there never changes the cost: the root entry is the sum of each
depot child's cheapest entry, plus free tours for the depot's own tokens.

``solve_bicriteria`` stores sizes rounded DOWN to a threshold grid built from
a much finer eps', so its cost never exceeds the optimum while true loads may
overshoot Q slightly. When the grid degenerates to 1..Q (eps' small enough)
the rounding is the identity and the solver is exact.

``solve_structured`` keeps exact sizes but only admits profiles with the
structured bucket shape (small buckets hold at most gamma tours; bigger
buckets take at most g distinct sizes), optionally padding tours with
artificial tokens to hit shared sizes. Its output is always capacity-feasible;
pads are stripped before the solution is returned.

Profile enumeration is reachability-driven: only profiles realized by some
combination of children exist in a table, and equal profiles keep the single
cheapest witness. This yields the same optimum as the textbook table indexed
by all profiles, without materializing the astronomically many unreachable
entries.
"""

from __future__ import annotations

import bisect
import functools
import math
from collections import Counter
from dataclasses import dataclass

from .instance import Solution, Tour, TreeInstance, Weight
from .structure import ThresholdSchedule, TransformParams, thresholds


class ResourceLimitError(RuntimeError):
    """The DP frontier at some node exceeded the state budget."""

    def __init__(self, message: str, node: int):
        super().__init__(message)
        self.node = node


class NoStructuredSolutionError(RuntimeError):
    """The structure filter rejected every profile at some node."""

    def __init__(self, message: str, node: int):
        super().__init__(message)
        self.node = node


@dataclass(frozen=True)
class DPParams:
    gamma: int
    groups: int
    schedule: ThresholdSchedule
    pad_cap: int = 0  # max pad tokens the DP may add per node
    max_states: int = 200_000

    @classmethod
    def generous(cls, inst: TreeInstance, eps: float = 0.5) -> "DPParams":
        """Parameters making every bucket small; the DP is then exact."""
        return cls(gamma=inst.total_demand + 1, groups=1,
                   schedule=thresholds(inst.capacity, eps))

    @classmethod
    def defaults(cls, inst: TreeInstance, eps: float,
                 pad_cap: int = 0) -> "DPParams":
        tp = TransformParams.defaults(inst.n, eps)
        return cls(gamma=tp.gamma, groups=tp.groups,
                   schedule=thresholds(inst.capacity, eps), pad_cap=pad_cap)


@dataclass(frozen=True)
class _Build:
    """One partial tour: stored size plus its physical pickups.

    Pads are not stored: in ``solve_structured`` a tour's pads are its size
    minus the tokens in ``phys``.
    """

    size: int
    phys: tuple[tuple[int, int], ...] = ()


# table: profile key (sorted size tuple) -> (cost, tuple[_Build, ...])
Table = dict


def _key(builds) -> tuple[int, ...]:
    return tuple(sorted(b.size for b in builds))


def _put(table: Table, builds, cost) -> None:
    k = _key(builds)
    cur = table.get(k)
    if cur is None or cost < cur[0]:
        table[k] = (cost, tuple(builds))


def _check_budget(table: Table, budget: int, node: int) -> None:
    if len(table) > budget:
        raise ResourceLimitError(
            f"DP frontier exceeded {budget} states at node {node}", node)


def merge_child_table(acc: Table, child: Table, capacity: int,
                      budget: int = 10 ** 9, node: int = -1) -> Table:
    """Fold one child's table into the accumulated sweep table.

    Each child tour either stays a separate tour or merges into one distinct
    accumulated tour (sizes add, capped at the capacity). This is the B-table
    step; costs simply add because edge charges live below. It is the only
    fold: the node's own tokens and pads are its last child, the table of
    ``_own_tokens``, and each existing tour takes at most one of their parts.
    """
    # canonical order so equal-size child tours are interchangeable
    entries = [(c_ch, tuple(sorted(ch_builds, key=lambda b: b.size)))
               for c_ch, ch_builds in child.values()]
    if len(acc) == 1 and () in acc:
        # no tour to merge into: each child entry passes through, as the
        # enumeration below would yield it
        c_acc = acc[()][0]
        out = {k: (c_acc + c, ch) for k, (c, ch) in zip(child, entries)}
        _check_budget(out, budget, node)
        return out
    out: Table = {}
    for c_acc, acc_builds in acc.values():
        n_acc = len(acc_builds)
        for c_ch, ch in entries:
            base = c_acc + c_ch

            # choice encoding: slot index 0..n_acc-1 to merge, n_acc = separate
            def assign(i: int, cur: tuple[_Build, ...], used: frozenset,
                       prev_choice: int):
                if i == len(ch):
                    _put(out, cur, base)
                    return
                cb = ch[i]
                # equal-size child tours take non-decreasing choices
                floor = prev_choice if i and cb.size == ch[i - 1].size else 0
                tried: set[int] = set()
                for s in range(floor, n_acc):
                    if s in used or cur[s].size in tried:
                        continue
                    tried.add(cur[s].size)
                    merged = cur[s].size + cb.size
                    if merged > capacity:
                        continue
                    nb = _Build(merged, cur[s].phys + cb.phys)
                    assign(i + 1, cur[:s] + (nb,) + cur[s + 1:],
                           used | {s}, s)
                # keep separate (choice n_acc, repeatable)
                assign(i + 1, cur + (cb,), used, n_acc)

            assign(0, tuple(acc_builds), frozenset(), 0)
            _check_budget(out, budget, node)
    return out


@functools.lru_cache(maxsize=1024)
def _partitions(total: int, max_part: int) -> tuple[tuple[int, ...], ...]:
    """Non-increasing partitions of ``total`` into parts <= max_part."""
    if total == 0:
        return ((),)
    return tuple((first,) + rest
                 for first in range(min(total, max_part), 0, -1)
                 for rest in _partitions(total - first, first))


def _own_tokens(v: int, d: int, capacity: int, pad_cap: int) -> Table:
    """Node v's d tokens plus 0..pad_cap pads as a zero-cost child table.

    One entry per partition into tours of at most ``capacity``. Folded
    last, each existing tour takes at most one part and the other parts start
    new tours, which reaches every way of handing the tokens out. Physical
    tokens fill the parts first, largest part first; which tokens are the
    physical ones does not change the DP value, only the witness.
    """
    table: Table = {}
    for total in range(d, d + pad_cap + 1):
        for parts in _partitions(total, capacity):
            builds, left = [], d
            for p in parts:
                ph = min(p, left)
                left -= ph
                builds.append(_Build(p, ((v, ph),) if ph else ()))
            table[parts[::-1]] = (0, tuple(builds[::-1]))
    return table


def charge_edge(table: Table, weight: Weight) -> Table:
    """Add the parent-edge crossing cost: 2*w(e) per tour in the profile."""
    if not weight:
        return table
    return {k: (c + 2 * weight * len(k), b) for k, (c, b) in table.items()}


def _round_down(size: int, sigma: tuple[int, ...]) -> int:
    return sigma[bisect.bisect_right(sigma, size) - 1]


def _sweep(inst: TreeInstance, node_filter, pad_cap: int,
           budget: int, stats: dict | None = None) -> tuple[Weight, list]:
    """Bottom-up profile DP; returns the root entry ``(cost, builds)``.

    ``node_filter`` runs once per non-depot node, on its profile after the
    node's own tokens are folded in; intermediate child folds are not node
    profiles and are never filtered. ``states`` counts the tables after each
    child fold and after the filter. The depot is not folded: its entry
    concatenates each depot child's best entry and covers ``demand[0]`` with
    extra tours of at most Q tokens, which cost nothing.
    """
    table: dict[int, Table] = {}
    states = 0
    for v in reversed(inst.topo_order[1:]):
        acc: Table = {(): (0, ())}
        for u in inst.children[v]:
            acc = merge_child_table(acc, table.pop(u), inst.capacity,
                                    budget, v)
            states += len(acc)
        acc = merge_child_table(
            acc, _own_tokens(v, inst.demand[v], inst.capacity, pad_cap),
            inst.capacity, budget, v)
        acc = node_filter(acc)
        states += len(acc)
        if not acc:
            raise NoStructuredSolutionError(
                f"no admissible profile survives at node {v}", v)
        table[v] = charge_edge(acc, inst.weight[v])
    cost, builds = 0, []
    for u in inst.children[0]:
        c, b = _best_entry(table.pop(u))
        cost += c
        builds.extend(b)
    q, d0 = inst.capacity, inst.demand[0]
    for i in range(0, d0, q):
        size = min(q, d0 - i)
        builds.append(_Build(size, ((0, size),)))
    if stats is not None:
        stats["states"] = states
    return cost, builds


def _best_entry(table: Table):
    best_key = min(table, key=lambda k: (table[k][0], len(k), k))
    return table[best_key]


def _builds_to_solution(inst: TreeInstance, builds) -> Solution:
    """The builds' physical pickups as tours; pads are dropped."""
    tours = []
    for b in builds:
        pick: Counter = Counter()
        for v, c in b.phys:
            pick[v] += c
        if pick:
            tours.append(Tour.of(pick))
    return Solution.of(inst, tours)


@dataclass(frozen=True)
class BicriteriaResult:
    solution: Solution
    eps_prime: float
    max_load: int
    dp_cost: Weight
    grid_exact: bool  # threshold grid was 1..Q, so no rounding happened


def default_eps_prime(inst: TreeInstance, eps: float) -> float:
    log_n = math.log2(max(inst.n, 2))
    return min(eps ** 2 / log_n ** 2, eps / max(inst.height, 1))


def solve_bicriteria(inst: TreeInstance, eps: float,
                     eps_prime: float | None = None,
                     max_states: int = 200_000,
                     stats: dict | None = None) -> BicriteriaResult:
    """Cost never above the optimum; loads may exceed Q by ~(1+eps').

    Sizes are rounded down to the eps'-threshold grid once per node, after
    its own tokens are folded in, so any optimal solution maps to an admissible
    run of the same or lower stored cost, while a stored size understates the
    true load by at most a (1+eps') factor per tree level. The depot is not
    folded, so its tours are never merged or rounded.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    ep = eps_prime if eps_prime is not None else default_eps_prime(inst, eps)
    sigma = thresholds(inst.capacity, ep).sigma

    def node_filter(acc: Table) -> Table:
        out: Table = {}
        for cost, builds in acc.values():
            rounded = tuple(_Build(_round_down(b.size, sigma), b.phys)
                            for b in builds)
            _put(out, rounded, cost)
        return out

    cost, builds = _sweep(inst, node_filter, 0, max_states, stats)
    sol = _builds_to_solution(inst, builds)
    max_load = max((t.load for t in sol.tours), default=0)
    grid_exact = sigma == tuple(range(1, inst.capacity + 1))
    return BicriteriaResult(sol, ep, max_load, cost, grid_exact)


def solve_structured(inst: TreeInstance, eps: float = 0.5,
                     params: DPParams | None = None,
                     stats: dict | None = None) -> Solution:
    """Cheapest solution whose every per-node profile is structured.

    With generous parameters (gamma above the tour count) this is the exact
    optimum; with tight parameters the cost can exceed it, but the returned
    solution is always feasible.

    With ``params.pad_cap > 0`` a solution also counts as structured if
    padding makes it so. Pads are artificial tokens added at a node, at most
    ``pad_cap`` per node, up to the capacity of each tour. They may raise any
    tour's size, across a bucket threshold too, and the raised size counts at
    that node and at every node above it. Pads are stripped before returning.
    """
    if params is None:
        params = DPParams.generous(inst, eps)

    def node_filter(acc: Table) -> Table:
        return {k: e for k, e in acc.items()
                if all(ok for _, ok in params.schedule.bucket_rule(
                    k, params.gamma, params.groups).values())}

    _, builds = _sweep(inst, node_filter, params.pad_cap, params.max_states,
                       stats)
    sol = _builds_to_solution(inst, builds)
    assert sol.covered == Counter(
        {v: d for v, d in enumerate(inst.demand) if d})
    return sol
