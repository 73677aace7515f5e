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

``solve_structured`` also drops every state that cannot beat an upper bound
UB. Let need(e) = ceil(D_e/Q), D_e the physical tokens below edge e; pads add
no physical tokens, so at any ``pad_cap`` at least need(e) tours cross e. A
state at node v of depot subtree t, of cost c and holding m tours (the tours
built so far while a fold enumerates, or a child entry's tour count),
completes to no less than

    lb = c + (flow bound of the edges of subtree(t) not yet charged in c)
           + sum over e from v up to t of 2*w(e)*max(0, m - need(e)).

The first term is what is paid; every edge still to be charged is crossed
need(e) times at least; and a fold never lowers the tour count at a node
(each child tour keeps a tour of its own, and tours of one subtree stay
distinct above it), so the edges from v up to t are crossed at least m
times. A fold cuts a state, or a branch of its enumeration, as soon as
lb > UB. This bound is not sound for ``solve_bicriteria``: sizes rounded
down let its tours carry more than Q tokens, so fewer than need(e) tours may
cross e. That solver runs the same sweep without a bound.

UB is deepened iteratively (Korf 1985), one depot subtree at a time: the
depot is not folded, so its subtrees are independent. A subtree's first round
takes UB = its flow bound LB_t. A round fails when a node's table empties
after something was cut; the next round takes UB = max(least cut lb,
2*UB - LB_t), so a positive gap UB - LB_t at least doubles, and a round that
cuts nothing cannot fail. The first round that finishes is exact: every state
of a solution costing at most UB survives, and the subtree root keeps only
entries costing at most UB. Up to its first cut, a round is the unpruned DP,
so a table that empties before anything was cut raises
``NoStructuredSolutionError`` at the node the unpruned sweep reports.
"""

from __future__ import annotations

import bisect
import functools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

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


class _PrunedOut(Exception):
    """A node's table emptied after the bound cut something: deepen UB."""


@dataclass(frozen=True)
class DPParams:
    gamma: int
    groups: int
    schedule: ThresholdSchedule
    pad_cap: int = 0  # max pad tokens the DP may add per node
    max_states: int = 200_000

    def __post_init__(self):
        for name in ("gamma", "groups", "pad_cap"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be at least 0")
        if self.max_states < 1:
            raise ValueError("max_states must be at least 1")

    @classmethod
    def generous(cls, inst: TreeInstance,
                 eps: Fraction | float = Fraction(1, 2)) -> "DPParams":
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


class _Bound:
    """The cut of ``solve_structured``'s deepening rounds (module docstring).

    ``start(t)`` opens the first round on depot subtree t, ``enter(v)``
    resets the bound to node v and ``folded(u)`` moves child u's subtree from
    the flow bound into the folded cost. In between, a state of cost c with m
    tours survives while ``c + extra[m] <= slack``, where ``slack`` is UB
    minus the flow bound of the edges not yet charged and ``extra[m]`` is the
    path term of node v. ``over`` is the least amount by which a cut state's
    bound exceeded UB in this round, or None if nothing was cut.
    """

    def __init__(self, inst: TreeInstance, pad_cap: int):
        self.inst = inst
        self.need = [-(-d // inst.capacity) for d in inst.subtree_demand]
        # flow bound of subtree(v), v's own edge included
        self.below = [2 * w * k for w, k in zip(inst.weight, self.need)]
        for v in inst.topo_order[:0:-1]:
            self.below[inst.parent[v]] += self.below[v]
        # every tour holds a token or a pad, so no node holds more tours
        self.tour_cap = [d + pad_cap * s for d, s in
                         zip(inst.subtree_demand, inst.subtree_sizes())]

    def start(self, t: int) -> None:
        self.lb = self.ub = self.below[t]
        self.over = None

    def deepen(self) -> None:
        self.ub = max(self.ub + self.over, 2 * self.ub - self.lb)
        self.over = None

    def enter(self, v: int) -> None:
        self.slack = self.ub - self.lb
        self.extra = self._path_term(v)

    def folded(self, u: int) -> None:
        self.slack += self.below[u]

    def _path_term(self, v: int) -> list:
        """``extra[m]``, the sum of 2*w(e)*max(0, m - need(e)) over the edges
        e from v up to its depot child, for m up to ``tour_cap[v]``.

        need(e) never falls going up, so the walk stops at the first edge
        that adds nothing."""
        cap = self.tour_cap[v]
        extra = [0] * (cap + 1)
        u = v
        while u and self.need[u] < cap:
            w2, k = 2 * self.inst.weight[u], self.need[u]
            for m in range(k + 1, cap + 1):
                extra[m] += w2 * (m - k)
            u = self.inst.parent[u]
        return extra

    def most_tours(self, cost) -> int:
        """The most tours a state of this cost may hold; -1 if none."""
        return bisect.bisect_right(self.extra, self.slack - cost) - 1

    def keeps(self, cost, tours: int) -> bool:
        """Whether a state of this cost and tour count survives; a cut state
        lowers ``over`` to its overshoot if that is the least so far."""
        over = cost + self.extra[tours] - self.slack
        if over <= 0:
            return True
        if self.over is None or over < self.over:
            self.over = over
        return False


def merge_child_table(acc: Table, child: Table, capacity: int,
                      budget: int = 10 ** 9, node: int = -1,
                      bound: _Bound | None = None) -> Table:
    """Fold one child's table into the accumulated sweep table.

    Each child tour either stays a separate tour or merges into one distinct
    accumulated tour (sizes add, capped at the capacity). This is the B-table
    step; costs simply add because edge charges live below. It is the only
    fold: the node's own tokens and pads are its last child, the table of
    ``_own_tokens``, and each existing tour takes at most one of their parts.
    With a ``bound``, a pair of entries and every branch of its enumeration
    are dropped as soon as they hold more tours than the bound allows.
    """
    # canonical order so equal-size child tours are interchangeable
    entries = [(c_ch, tuple(sorted(ch_builds, key=lambda b: b.size)))
               for c_ch, ch_builds in child.values()]
    if len(acc) == 1 and () in acc:
        # no tour to merge into: each child entry passes through, as the
        # enumeration below would yield it
        c_acc = acc[()][0]
        out = {k: (c_acc + c, ch) for k, (c, ch) in zip(child, entries)
               if bound is None or bound.keeps(c_acc + c, len(k))}
        _check_budget(out, budget, node)
        return out
    out: Table = {}
    for c_acc, acc_builds in acc.values():
        n_acc = len(acc_builds)
        for c_ch, ch in entries:
            base = c_acc + c_ch
            # the result holds at least max(n_acc, len(ch)) tours, at most
            # n_acc + len(ch)
            most = n_acc + len(ch)
            if bound is not None:
                if not bound.keeps(base, max(n_acc, len(ch))):
                    continue
                most = bound.most_tours(base)

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
                # keep separate (choice n_acc, repeatable) if the bound
                # keeps one more tour; below ``most`` it surely does
                if len(cur) < most or bound.keeps(base, len(cur) + 1):
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


def _sweep(inst: TreeInstance, node_filter, pad_cap: int, budget: int,
           stats: dict | None = None,
           bound: _Bound | None = None) -> tuple[Weight, list]:
    """Bottom-up profile DP; returns the root entry ``(cost, builds)``.

    ``node_filter`` runs once per non-depot node, on its profile after the
    node's own tokens are folded in; intermediate child folds are not node
    profiles and are never filtered. The depot is not folded: its entry
    concatenates each depot child's best entry and covers ``demand[0]`` with
    extra tours of at most Q tokens, which cost nothing.

    Each depot subtree is swept on its own, in deepening rounds when a
    ``bound`` is given and in one round otherwise. ``states`` counts the
    tables after each child fold and after the filter in the last round of
    each subtree; ``rounds`` counts the subtree sweeps. If subtrees fail, the
    error raised is the one the sweep of the whole tree in
    ``reversed(topo_order)`` meets first.
    """
    cost, builds, failed = 0, [], []
    states = rounds = 0
    for t in inst.children[0]:
        # subtree(t) is topo_order restricted to it: reversed, every child
        # comes before its parent
        nodes = inst.subtree(t)[::-1]
        if bound is not None:
            bound.start(t)
        try:
            while True:
                rounds += 1
                try:
                    table, n = _sweep_subtree(inst, nodes, node_filter,
                                              pad_cap, budget, bound)
                    break
                except _PrunedOut:
                    bound.deepen()
        except (ResourceLimitError, NoStructuredSolutionError) as exc:
            failed.append(exc)
            continue
        c, b = _best_entry(table)
        assert bound is None or c <= bound.ub
        cost += c
        builds.extend(b)
        states += n
    if failed:
        order = inst.topo_order[::-1]
        raise min(failed, key=lambda exc: order.index(exc.node))
    q, d0 = inst.capacity, inst.demand[0]
    for i in range(0, d0, q):
        size = min(q, d0 - i)
        builds.append(_Build(size, ((0, size),)))
    if stats is not None:
        stats["states"] = states
        stats["rounds"] = rounds
    return cost, builds


def _sweep_subtree(inst: TreeInstance, nodes: tuple[int, ...], node_filter,
                   pad_cap: int, budget: int, bound: _Bound | None):
    """One round over one depot subtree, ``nodes`` children first.

    Returns the charged table of the subtree root (the last node) and the
    number of states kept. A table that empties after ``bound`` cut something
    raises ``_PrunedOut``; one that empties otherwise is the unpruned DP's.
    """
    table: dict[int, Table] = {}
    states = 0
    for v in nodes:
        if bound is not None:
            bound.enter(v)
        acc: Table = {(): (0, ())}
        for u in inst.children[v]:
            if bound is not None:
                bound.folded(u)
            acc = merge_child_table(acc, table.pop(u), inst.capacity,
                                    budget, v, bound)
            states += len(acc)
        acc = merge_child_table(
            acc, _own_tokens(v, inst.demand[v], inst.capacity, pad_cap),
            inst.capacity, budget, v, bound)
        acc = node_filter(acc)
        states += len(acc)
        if not acc:
            if bound is not None and bound.over is not None:
                raise _PrunedOut
            raise NoStructuredSolutionError(
                f"no admissible profile survives at node {v}", v)
        table[v] = charge_edge(acc, inst.weight[v])
    return table.pop(nodes[-1]), states


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


def _structure_filter(params: DPParams):
    """``solve_structured``'s node filter: keep the structured profiles."""
    def node_filter(acc: Table) -> Table:
        return {k: e for k, e in acc.items()
                if all(ok for _, ok in params.schedule.bucket_rule(
                    k, params.gamma, params.groups).values())}
    return node_filter


def solve_structured(inst: TreeInstance,
                     eps: Fraction | float = Fraction(1, 2),
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

    States that cannot beat the deepening bound of the module docstring are
    cut, which changes neither the cost nor the solution. If ``stats`` is
    given, ``stats["states"]`` counts the states kept in the last round of
    each depot subtree (after each child fold and after the node filter), a
    subset of the unpruned DP's, and ``stats["rounds"]`` counts the subtree
    sweeps, at least one per depot child.
    """
    if params is None:
        params = DPParams.generous(inst, eps)
    _, builds = _sweep(inst, _structure_filter(params), params.pad_cap,
                       params.max_states, stats,
                       _Bound(inst, params.pad_cap))
    sol = _builds_to_solution(inst, builds)
    assert sol.covered == Counter(
        {v: d for v, d in enumerate(inst.demand) if d})
    return sol
