"""Approximation-scheme dynamic programs over per-node tour-size profiles.

Both solvers sweep the tree bottom-up. A node's table maps a profile (the
sorted multiset of sizes of the partial tours entering its subtree) to its
cheapest cost and a back-pointer to how that cost was reached. A node starts
from its first child's table; one fold, ``merge_child_table``, adds the
others, each child tour kept separate or merged into one distinct accumulated
tour, then the node's own tokens (a leaf's only table): a zero-cost table of
every split of them, plus 0..pad_cap pads, into tours of at most Q. Then the
solver's node filter (structure check or size rounding) runs once on the
node's final profile, and finally the parent edge is charged once per tour.

Two steps are skipped where they cannot change a table. A node with no
tokens and no pads has the own-token table ``{(): ...}``: folding it keeps
every key, cost and order, and cuts nothing, because each entry of the
accumulated table already meets the node's cut (see the first child below;
the fold enumerations check each new entry against it) and the slack only
grows as children are folded. So that fold is not run. The node filter is
not run either where it keeps every profile: a bicriteria grid of 1..Q
rounds nothing, and no node holds more tours than the depot's
D_0 + pad_cap*n, so at a gamma of at least that every bucket is small.

A table entry is ``(cost, back)``. ``back`` is ``(v, d)`` for node v's d
tokens split as the key, ``(acc_key, acc_back, child_key, child_back, cur)``
for the pair whose fold first reached the key at the least cost, or the
unrounded ``(key, back)`` of a bicriteria rounding that moved the key.
``cur`` is the pair's first assignment of the key's sizes (the accumulated
tours' sizes after the fold, in slot order, then the new tours), which
``_rebuild`` reads to join tours.

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
cheapest entry. This yields the same optimum as the textbook table indexed
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
lb > UB; a leaf cuts the states of its own-token table the same way.

The path term never decreases in m, so a state of cost c survives with m
tours exactly when m <= most(c), the largest m with lb <= UB, found by one
bisection: a fold finds most(c) once per pair and compares tour counts with
it. A round records ``over``, the least amount by which a cut state's lb
exceeds UB, and it must stay the least. A cut pair records its own
overshoot. A kept pair whose enumeration can exceed most(c) records the
overshoot at most(c) + 1 tours, which its all-new-tours branch reaches
first. A leaf's entries all cost 0, so it keeps the keys of at most most(0)
tours and records the overshoot of the shortest key it cut. That key need
not have most(0) + 1 tours: on a coarse bicriteria grid L > Q, and even the
keys of ceil(d/Q) tours may be cut. A leaf's d tokens and up to pad_cap pads
make keys of every tour count from ceil(d/Q) to d + pad_cap, so the shortest
cut key has max(most(0) + 1, ceil(d/Q)) tours. The path term is rebuilt
each time a round enters a node, not kept across rounds: kept per node, the
terms of a deep path hold about n*D entries at once.

A node's first child c is not folded: its table met the state budget at c,
and each charged entry already meets the cut. In ``_Bound``'s terms, one of
m tours met cost_c + extra_c[m] <= slack_c at the end of c (the filter and
charge keep m); after ``folded(c)`` at c's parent v, slack_v = slack_c +
2*w(c)*need(c) and extra_c[m] = 2*w(c)*max(0, m - need(c)) + extra_v[m], so
its charged cost has cost_c + 2*w(c)*m + extra_v[m] = cost_c + extra_c[m] +
2*w(c)*min(m, need(c)) <= slack_v.

``solve_bicriteria`` runs the same cut with need(e) = ceil(D_e/L), where L
bounds the true tokens of any tour it builds. Let r be the largest
(sigma_{i+1} - 1)/sigma_i over the grid's steps (1 when the grid is 1..Q),
h the number of non-depot levels (``height - 1``) and L = floor(Q * r**h).
A size rounded down to sigma_i stood for at most sigma_{i+1} - 1 <=
sigma_i * r stored tokens, or for Q if sigma_i = Q. So, by induction up the
tree, a size stored after k roundings carries at most r**k times as many
true tokens: the merged child sizes each carried at most r**(k-1) times
theirs, the node's own tokens are exact, and one rounding multiplies by r
once more. A tour is rounded at most once per non-depot level and stored
sizes never exceed Q, so no tour carries more than L true tokens, and at
least need(e) tours cross e. The path term holds as before, because rounding
maps a profile to one of the same length and never merges tours. When the
grid is 1..Q, L = Q and the bound is the structured one.

UB is deepened iteratively (Korf 1985), one depot subtree at a time in child
order: the depot is not folded, so its subtrees are independent, and a run
stops at the first one that fails. A subtree's first round
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
from itertools import accumulate

from .baselines import flow_need
from .instance import (Solution, Tour, TreeInstance, Weight, as_fraction,
                       log2_ratio)
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

    def __post_init__(self):
        for name in ("gamma", "groups", "pad_cap"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be at least 0")
        if self.max_states < 1:
            raise ValueError("max_states must be at least 1")

    @classmethod
    def generous(cls, inst: TreeInstance,
                 eps: Fraction | float = Fraction(1, 2)) -> "DPParams":
        """Parameters making every bucket small; the DP is then exact.

        At ``pad_cap`` 0, gamma is above the most tours any node can hold,
        so ``solve_structured`` runs no node filter at all."""
        return cls(gamma=inst.total_demand + 1, groups=1,
                   schedule=thresholds(inst.capacity, eps))

    @classmethod
    def defaults(cls, inst: TreeInstance, eps: Fraction | float,
                 pad_cap: int = 0) -> "DPParams":
        eps = as_fraction(eps)  # once, not in each of the two calls below
        tp = TransformParams.defaults(inst.n, eps)
        return cls(gamma=tp.gamma, groups=tp.groups,
                   schedule=thresholds(inst.capacity, eps), pad_cap=pad_cap)


# table: profile key (sorted size tuple) -> (cost, back); module docstring
Table = dict


def _over_budget(budget: int, node: int) -> ResourceLimitError:
    return ResourceLimitError(
        f"DP frontier exceeded {budget} states at node {node}", node)


class _Bound:
    """The cut of the deepening rounds (module docstring), for tours of at
    most ``load_cap`` true tokens and nodes of at most ``pad_cap`` pads.

    ``start(t)`` opens the first round on depot subtree t, ``enter(v)``
    resets the bound to node v and ``folded(u)`` moves child u's subtree from
    the flow bound into the folded cost. In between, a state of cost c with m
    tours survives while ``c + extra[m] <= slack``, where ``slack`` is UB
    minus the flow bound of the edges not yet charged and ``extra[m]`` is the
    path term of node v. ``over`` is the least amount by which a cut state's
    bound exceeded UB in this round, or None if nothing was cut, and
    ``rounds`` counts the rounds opened.
    """

    def __init__(self, inst: TreeInstance, pad_cap: int, load_cap: int):
        self.inst, self.pad_cap, self.rounds = inst, pad_cap, 0
        self.need = flow_need(inst, load_cap)
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
        self.rounds += 1

    def deepen(self) -> None:
        self.ub = max(self.ub + self.over, 2 * self.ub - self.lb)
        self.over = None
        self.rounds += 1

    def enter(self, v: int) -> None:
        self.slack = self.ub - self.lb
        self.extra = self._path_term(v)

    def folded(self, u: int) -> None:
        self.slack += self.below[u]

    def _path_term(self, v: int) -> list:
        """``extra[m]``, the sum of 2*w(e)*max(0, m - need(e)) over the edges
        e from v up to its depot child, for m up to ``tour_cap[v]``.

        Each edge adds 2*w(e) to the slope of ``extra`` from m = need(e)+1
        on, so one walk up marks the slope steps and ``extra`` sums them
        twice. need(e) never falls going up, so the walk stops at the first
        edge that adds nothing."""
        cap = self.tour_cap[v]
        step = [0] * (cap + 1)
        u = v
        while u and self.need[u] < cap:
            step[self.need[u] + 1] += 2 * self.inst.weight[u]
            u = self.inst.parent[u]
        return list(accumulate(accumulate(step)))

    def most_tours(self, cost) -> int:
        """The most tours a state of this cost may hold; -1 if none. As
        ``extra`` never decreases, ``keeps(cost, m)`` is ``m <= most``."""
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


def merge_child_table(acc: Table, child: Table, capacity: int, budget: int,
                      node: int, bound: _Bound) -> Table:
    """Fold one child's table into node ``node``'s accumulated table.

    Each child tour either stays a separate tour or merges into one distinct
    accumulated tour (sizes add, capped at the capacity). This is the B-table
    step; costs add because edge charges live below, and each entry keeps the
    pair and the assignment that first reached its key. It is the only fold:
    the node's own tokens and pads are its last child, the table of
    ``_own_tokens``, and each existing tour takes at most one of their parts.
    A pair and every branch of its enumeration are dropped once they hold
    more tours than ``bound.most_tours`` allows at the pair's cost; each pair
    records its least overshoot once (module docstring).
    """
    out: Table = {}

    def assign(i: int, cur: tuple, used: int, prev: int):
        # tour i of the sorted child key joins a free slot or starts a new
        # tour; equal sizes take non-decreasing choices (n = a new tour) and
        # a tour tries one slot per current size
        if i == m:
            k = tuple(sorted(cur))
            old = out.get(k)
            if old is None or base < old[0]:
                out[k] = (base, (k_acc, b_acc, k_ch, b_ch, cur))
            return
        t = k_ch[i]
        floor = prev if i and t == k_ch[i - 1] else 0
        tried = set()
        for s in range(floor, n):
            if used >> s & 1 or cur[s] in tried:
                continue
            tried.add(cur[s])
            merged = cur[s] + t
            if merged <= capacity:
                assign(i + 1, cur[:s] + (merged,) + cur[s + 1:],
                       used | 1 << s, s)
        if len(cur) < most:
            assign(i + 1, cur + (t,), used, n)

    try:
        for k_acc, (c_acc, b_acc) in acc.items():
            n = len(k_acc)
            for k_ch, (c_ch, b_ch) in child.items():
                base, m = c_acc + c_ch, len(k_ch)
                most = bound.most_tours(base)
                # the result holds max(n, m) tours to their sum
                if max(n, m) > most:
                    bound.keeps(base, max(n, m))  # records the overshoot
                    continue
                if n + m > most:  # its all-new branch is cut at most + 1
                    bound.keeps(base, most + 1)
                assign(0, k_acc, 0, 0)
                if len(out) > budget:
                    raise _over_budget(budget, node)
    finally:
        del assign  # it refers to itself: free it now, not at a GC pass
    return out


@functools.lru_cache(maxsize=1024)
def _partitions(total: int, max_part: int) -> tuple[tuple[int, ...], ...]:
    """Non-increasing partitions of ``total`` into parts <= max_part."""
    if total == 0:
        return ((),)
    return tuple((first,) + rest
                 for first in range(min(total, max_part), 0, -1)
                 for rest in _partitions(total - first, first))


@functools.lru_cache(maxsize=1024)
def _own_keys(d: int, capacity: int,
              pad_cap: int) -> tuple[tuple[int, ...], ...]:
    """The keys of ``_own_tokens``: ascending partitions of d..d+pad_cap."""
    return tuple(parts[::-1] for total in range(d, d + pad_cap + 1)
                 for parts in _partitions(total, capacity))


def _own_tokens(v: int, d: int, capacity: int, pad_cap: int) -> Table:
    """Node v's d tokens plus 0..pad_cap pads as a zero-cost child table.

    One entry, of back ``(v, d)``, per partition into tours of at most
    ``capacity``; the keys are cached per ``(d, capacity, pad_cap)``. Folded
    last, each existing tour takes at most one part and the other parts
    start new tours, which reaches every way of handing the tokens out.
    ``_rebuild`` fills the largest parts with physical tokens first; which
    tokens are physical changes the witness, not the DP value. At d = 0 and
    no pads the table is ``{(): ...}``, and the sweep skips its fold.
    """
    return dict.fromkeys(_own_keys(d, capacity, pad_cap), (0, (v, d)))


def charge_edge(table: Table, weight: Weight) -> Table:
    """Add the parent-edge crossing cost: 2*w(e) per tour in the profile."""
    if not weight:
        return table
    return {k: (c + 2 * weight * len(k), b) for k, (c, b) in table.items()}


def _rebuild(key: tuple, back) -> list:
    """The tours ``(size, phys)`` of the entry ``(key, back)``, in key order.

    ``phys`` holds a tour's physical pickups; its pads are its size minus
    their tokens. Back-pointers nest once per fold, so the entries are listed
    parents first with an explicit stack, then rebuilt in reverse from the
    tour lists on ``done``. A pair's tours are joined as its stored
    assignment ``cur`` says, each child tour into the lowest slot that took
    its size.
    """
    order, todo = [], [(key, back)]
    while todo:
        key, back = todo.pop()
        order.append((key, back))
        if type(back[0]) is not int:
            # a pair's two entries, or a rounding's unrounded entry
            todo += [back[:2], back[2:4]] if len(back) == 5 else [back]
    done = []
    for key, back in reversed(order):
        if type(back[0]) is int:  # own tokens, largest part first
            v, left = back
            tours = []
            for p in reversed(key):
                tours.append((p, ((v, min(p, left)),) if left else ()))
                left -= min(p, left)
            done.append(tours[::-1])
        elif len(back) == 2:  # rounded down: monotone, so key order holds
            done.append([(size, phys)
                         for size, (_, phys) in zip(key, done.pop())])
        else:  # the pair's stored assignment, in slot order
            ch, acc, cur = done.pop(), done.pop(), back[4]
            # what each slot took; equal sizes took ascending slots
            took = [c - size for c, (size, _) in zip(cur, acc)]
            tours = [(c, phys) for c, (_, phys) in zip(cur, acc)]
            for size, phys in ch:
                if size in took:
                    s = took.index(size)
                    took[s] = 0
                    tours[s] = (tours[s][0], tours[s][1] + phys)
                else:
                    tours.append((size, phys))
            done.append(sorted(tours, key=lambda t: t[0]))
    return done.pop()


def _sweep(inst: TreeInstance, node_filter, bound: _Bound, budget: int,
           stats: dict | None = None) -> tuple[Weight, list]:
    """Bottom-up profile DP; returns the root's cost and its tours.

    ``node_filter``, if not None, runs once per non-depot node, on its
    profile after the node's own tokens are folded in; intermediate child
    folds are not node profiles and are never filtered. The depot is not
    folded: its entry concatenates each depot child's best entry and covers
    ``demand[0]`` with extra tours of at most Q tokens, which cost nothing.

    Each depot subtree is swept on its own, in deepening rounds of ``bound``,
    and the run stops at the first one, in child order, that fails: its error
    is raised and no later subtree is swept. ``states`` counts the tables
    after each child and after the filter in the last round of each
    subtree; ``rounds`` counts the subtree sweeps.
    """
    cost, tours = 0, []
    states = 0
    for t in inst.children[0]:
        # subtree(t) is topo_order restricted to it: reversed, every child
        # comes before its parent
        nodes = inst.subtree(t)[::-1]
        bound.start(t)
        while (swept := _sweep_subtree(inst, nodes, node_filter, budget,
                                       bound)) is None:
            bound.deepen()
        table, n = swept
        key = min(table, key=lambda k: (table[k][0], len(k), k))
        c, back = table[key]
        assert c <= bound.ub
        cost += c
        tours.extend(_rebuild(key, back))
        states += n
    q, d0 = inst.capacity, inst.demand[0]
    for i in range(0, d0, q):
        size = min(q, d0 - i)
        tours.append((size, ((0, size),)))
    if stats is not None:
        stats["states"] = states
        stats["rounds"] = bound.rounds
    return cost, tours


def _sweep_subtree(inst: TreeInstance, nodes: tuple[int, ...], node_filter,
                   budget: int, bound: _Bound):
    """One round over one depot subtree, ``nodes`` children first; a node
    starts from its first child's charged table, uncut (module docstring).

    Returns the charged table of the subtree root (the last node) and the
    number of states kept, or None if a table empties after ``bound`` cut
    something: the round must deepen. One that empties otherwise is the
    unpruned DP's.
    """
    table: dict[int, Table] = {}
    states = 0
    for v in nodes:
        bound.enter(v)
        acc = None
        for u in inst.children[v]:
            bound.folded(u)
            acc = table.pop(u) if acc is None else merge_child_table(
                acc, table.pop(u), inst.capacity, budget, v, bound)
            states += len(acc)
        own = _own_tokens(v, inst.demand[v], inst.capacity, bound.pad_cap)
        if acc is None:  # a leaf: every own entry costs 0
            d, most = inst.demand[v], bound.most_tours(0)
            if most < d + bound.pad_cap:
                acc = {k: e for k, e in own.items() if len(k) <= most}
                # the shortest cut key overshoots least
                bound.keeps(0, max(most + 1, -(-d // inst.capacity)))
            else:
                acc = own
            if len(acc) > budget:
                raise _over_budget(budget, v)
        elif inst.demand[v] or bound.pad_cap:  # else the fold is the identity
            acc = merge_child_table(acc, own, inst.capacity, budget, v, bound)
        if node_filter is not None:
            acc = node_filter(acc)
        states += len(acc)
        if not acc:
            if bound.over is not None:
                return None
            raise NoStructuredSolutionError(
                f"no admissible profile survives at node {v}", v)
        table[v] = charge_edge(acc, inst.weight[v])
    return table.pop(nodes[-1]), states


def _to_solution(inst: TreeInstance, tours) -> Solution:
    """The tours' physical pickups as a solution; pads are dropped. A tour's
    ``phys`` holds distinct nodes with positive counts, so it only needs
    sorting."""
    return Solution.of(inst, [Tour(tuple(sorted(phys)))
                              for _, phys in tours if phys])


@dataclass(frozen=True)
class BicriteriaResult:
    solution: Solution
    eps_prime: Fraction | float
    max_load: int
    dp_cost: Weight
    grid_exact: bool  # threshold grid was 1..Q, so no rounding happened


def default_eps_prime(inst: TreeInstance, eps: Fraction | float) -> Fraction:
    """min(eps^2/log2(n)^2, eps/height), exact: a float underflows to 0 for
    a tiny eps. In integers on log2(n) = a/b and eps = p/q, the first is the
    smaller when p*b^2*height <= q*a^2. A float eps counts as the decimal it
    prints (``as_fraction``)."""
    a, b = log2_ratio(inst.n)
    eps = as_fraction(eps)
    p, q, h = eps.numerator, eps.denominator, max(inst.height, 1)
    if p * b * b * h <= q * a * a:
        return Fraction(p * p * b * b, q * q * a * a)
    return Fraction(p, q * h)


def _load_cap(inst: TreeInstance, sigma: tuple[int, ...]) -> int:
    """L, the most true tokens a ``solve_bicriteria`` tour on the grid
    ``sigma`` can carry (module docstring); Q when the grid is 1..Q."""
    if len(sigma) == inst.capacity:  # the grid 1..Q: r = 1
        return inst.capacity
    r = max(Fraction(hi - 1, lo) for lo, hi in zip(sigma, sigma[1:]))
    return math.floor(inst.capacity * r ** (inst.height - 1))


def _rounding_filter(schedule: ThresholdSchedule):
    """``solve_bicriteria``'s node filter: round each size down to its
    bucket's threshold, read from one size -> threshold table. A moved key
    keeps its unrounded ``(key, back)`` as its back-pointer."""
    down = [schedule.sigma[b] for b in schedule.bucket]  # index 0 unused
    def node_filter(acc: Table) -> Table:
        out: Table = {}
        for key, (cost, back) in acc.items():
            rounded = tuple(map(down.__getitem__, key))
            if rounded not in out or cost < out[rounded][0]:
                out[rounded] = (cost, back if rounded == key else (key, back))
        return out
    return node_filter


def solve_bicriteria(inst: TreeInstance, eps: Fraction | float,
                     eps_prime: Fraction | float | None = None,
                     max_states: int = 200_000,
                     stats: dict | None = None) -> BicriteriaResult:
    """Cost never above the optimum; loads may exceed Q by ~(1+eps').

    Sizes are rounded down to the eps'-threshold grid once per node, after
    its own tokens are folded in, so any optimal solution maps to an admissible
    run of the same or lower stored cost, while a stored size understates the
    true load by at most a (1+eps') factor per tree level. The depot is not
    folded, so its tours are never merged or rounded.

    States that cannot beat the deepening bound at the load cap L of the
    module docstring are cut. That never changes ``dp_cost``; the witness
    may be another run of equal cost. If ``stats`` is given, it gets the
    ``"states"`` and ``"rounds"`` that ``_sweep`` counts.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    ep = eps_prime if eps_prime is not None else default_eps_prime(inst, eps)
    schedule = thresholds(inst.capacity, ep)
    # sigma rises strictly from 1 to Q, so it is 1..Q when it has Q steps
    grid_exact = len(schedule.sigma) == inst.capacity
    cost, tours = _sweep(
        inst, None if grid_exact else _rounding_filter(schedule),
        _Bound(inst, 0, _load_cap(inst, schedule.sigma)), max_states, stats)
    sol = _to_solution(inst, tours)
    max_load = max((t.load for t in sol.tours), default=0)
    return BicriteriaResult(sol, ep, max_load, cost, grid_exact)


def _structure_filter(params: DPParams):
    """``solve_structured``'s node filter: keep the structured profiles."""
    admits, gamma, groups = params.schedule.admits, params.gamma, params.groups

    def node_filter(acc: Table) -> Table:
        return {k: e for k, e in acc.items() if admits(k, gamma, groups)}
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
    given, it gets the ``"states"`` (a subset of the unpruned DP's) and the
    ``"rounds"`` (at least one per depot child) that ``_sweep`` counts.
    A ``params.schedule`` built for another capacity raises ``ValueError``.
    """
    if params is None:
        params = DPParams.generous(inst, eps)
    params.schedule.require_capacity(inst.capacity)
    bound = _Bound(inst, params.pad_cap, inst.capacity)
    # no node holds more tours than the depot's cap: every bucket is small
    node_filter = (None if params.gamma >= bound.tour_cap[0]
                   else _structure_filter(params))
    _, tours = _sweep(inst, node_filter, bound, params.max_states, stats)
    sol = _to_solution(inst, tours)
    assert sol.covered == Counter(
        {v: d for v, d in enumerate(inst.demand) if d})
    return sol
