"""Rooted-tree CVRP instances, tours, solutions, file I/O and demand peeling.

Node 0 is always the depot. Edge weights are non-negative integers or
rationals (``Fraction``); costs are computed exactly.
A tour is stored as its pickup multiset only -- on a tree the cheapest closed
walk through a pickup set is determined by the set, so no explicit walk is kept.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

Weight = int | Fraction


class InstanceError(ValueError):
    """Malformed instance data (parse errors, bad tree structure, bad Q)."""


def _as_weight(value: Weight) -> Weight:
    if isinstance(value, Fraction) and value.denominator == 1:
        return int(value)
    return value


def as_fraction(value) -> Fraction:
    """``value`` as an exact ``Fraction``; a float counts as the decimal it
    prints, so 0.1 is 1/10, not its binary value. Every function that makes
    an eps exact reads it through this."""
    return value if isinstance(value, Fraction) else Fraction(str(value))


def log2_ratio(n: int) -> tuple[int, int]:
    """log2(max(n, 2)) as a/b in lowest terms, the float's exact value; every
    exact formula in log2(n) reads it through this."""
    return math.log2(max(n, 2)).as_integer_ratio()


@dataclass(frozen=True)
class TreeInstance:
    """A rooted edge-weighted tree with token demands and vehicle capacity.

    ``parent[v]`` is the parent of node v (``parent[0] == -1``), ``weight[v]``
    the weight of the edge (parent[v], v) with ``weight[0] == 0``.

    Validation is O(n): every parent chain is walked once, memoized, and a
    node whose chain never reaches the depot is reported by its smallest id.
    It builds none of the cached tables. The first table asked for walks the
    tree once, into ``topo_order`` (an ``array('i')``, 4n bytes), and every
    per-node table is derived from that one walk. ``preorder`` (O(n), built
    on the first costing) maps each node to its heavy-first preorder
    position and indexes the heavy-path tables by position, so pricing a
    solution's tours sorts and compares plain ints in one loop over one LCA
    walk, O(P log n) for P pickups.
    """

    parent: tuple[int, ...]
    weight: tuple[Weight, ...]
    demand: tuple[int, ...]
    capacity: int

    def __post_init__(self):
        n = len(self.parent)
        if n < 1 or self.parent[0] != -1:
            raise InstanceError("node 0 must be the depot with parent -1")
        if len(self.weight) != n or len(self.demand) != n:
            raise InstanceError("parent/weight/demand length mismatch")
        if self.capacity < 1:
            raise InstanceError(f"capacity must be positive, got {self.capacity}")
        if self.weight[0] != 0:
            raise InstanceError("depot carries no parent edge; weight[0] must be 0")
        for v in range(1, n):
            p = self.parent[v]
            if not 0 <= p < n or p == v:
                raise InstanceError(f"node {v}: invalid parent {p}")
            if self.weight[v] < 0:
                raise InstanceError(f"node {v}: negative edge weight")
        if any(d < 0 for d in self.demand):
            raise InstanceError("negative demand")
        # One memoized pass: 0 unseen, 1 on the chain being walked, 2 reaches
        # the depot. Each node is walked once; meeting a 1 closes a cycle.
        state = bytearray(n)
        state[0] = 2
        parent = self.parent
        for v in range(1, n):
            if state[parent[v]] == 2:
                state[v] = 2
                continue
            u = v
            while not state[u]:
                state[u] = 1
                u = parent[u]
            if state[u] == 1:
                raise InstanceError(f"node {v}: parent chain never reaches the depot")
            u = v
            while state[u] == 1:
                state[u] = 2
                u = parent[u]

    @property
    def n(self) -> int:
        return len(self.parent)

    @cached_property
    def children(self) -> tuple[tuple[int, ...], ...]:
        kids: list[list[int]] = [[] for _ in range(self.n)]
        for v in range(1, self.n):
            kids[self.parent[v]].append(v)
        return tuple(tuple(k) for k in kids)  # ascending, as v ascends

    @cached_property
    def depth(self) -> tuple[int, ...]:
        """Depth in levels; the depot has depth 1."""
        d = [1] * self.n
        parent = self.parent
        for v in self.topo_order[1:]:
            d[v] = d[parent[v]] + 1
        return tuple(d)

    @cached_property
    def dist_root(self) -> tuple[Weight, ...]:
        d: list[Weight] = [0] * self.n
        parent, weight = self.parent, self.weight
        for v in self.topo_order[1:]:
            d[v] = _as_weight(d[parent[v]] + weight[v])
        return tuple(d)

    @cached_property
    def topo_order(self) -> array:
        """Nodes ordered root-first (every parent before its children).

        The one walk of the tree, ``subtree(0)`` element for element, kept as
        an ``array('i')`` of 4 bytes per node. ``subtree_sizes``,
        ``subtree_demand``, ``dist_root`` and ``depth`` read it, and
        ``preorder`` reads it through ``subtree_sizes``.
        """
        return array("i", self.subtree(0))

    @cached_property
    def preorder(self) -> tuple[array, array, array, list[Weight]]:
        """Heavy-path tables: ``(pos, head, jump, dist)``.

        One DFS walks each heavy path down from its head, into the child
        with the largest subtree (smallest id on ties), and stacks the
        other children as heads of later paths. So each heavy path is a run
        of consecutive preorder positions, and any root path crosses
        O(log n) heavy paths. ``pos[v]`` is node v's position. The other
        three tables are indexed by position p: ``head[p]`` is the position
        of the head of p's path (``head[p] == p`` starts a path),
        ``jump[p]`` the position of that head's parent (-1 on the depot's
        path) and ``dist[p]`` the ``dist_root`` of the node at p. Three
        ``array('i')`` of 4n bytes and one list.
        """
        size, children = self.subtree_sizes(), self.children
        parent, dist_root = self.parent, self.dist_root
        n = self.n
        pos, head = array("i", [0]) * n, array("i", [0]) * n
        jump = array("i", [-1]) * n
        dist: list[Weight] = [0] * n
        stack, t = [0], 0
        while stack:
            # u heads a heavy path: walk it down, pushing the light children
            u = stack.pop()
            start, up = t, (pos[parent[u]] if u else -1)
            while True:
                pos[u] = t
                dist[t] = dist_root[u]
                head[t] = start
                jump[t] = up
                t += 1
                kids = children[u]
                if not kids:
                    break
                u = max(kids, key=size.__getitem__)
                for c in kids:
                    if c != u:
                        stack.append(c)
        return pos, head, jump, dist

    @property
    def height(self) -> int:
        return max(self.depth)

    def subtree(self, v: int) -> tuple[int, ...]:
        """All nodes of the subtree rooted at v, root-first."""
        out = [v]
        stack = [v]
        while stack:
            u = stack.pop()
            for c in self.children[u]:
                out.append(c)
                stack.append(c)
        return tuple(out)

    def subtree_sizes(self) -> list[int]:
        """Number of nodes in every node's subtree (not cached; O(n) over
        ``topo_order``)."""
        size = [1] * self.n
        parent = self.parent
        for v in self.topo_order[:0:-1]:
            size[parent[v]] += size[v]
        return size

    @cached_property
    def subtree_demand(self) -> tuple[int, ...]:
        total = list(self.demand)
        parent = self.parent
        for v in self.topo_order[:0:-1]:
            total[parent[v]] += total[v]
        return tuple(total)

    @property
    def total_demand(self) -> int:
        return sum(self.demand)

    def replace(self, **kw) -> "TreeInstance":
        fields = dict(parent=self.parent, weight=self.weight, demand=self.demand,
                      capacity=self.capacity)
        fields.update(kw)
        return TreeInstance(**fields)


@dataclass(frozen=True, slots=True)
class Tour:
    """One vehicle route, as the multiset of (node, tokens picked)."""

    pickups: tuple[tuple[int, int], ...]

    def __post_init__(self):
        seen = set()
        for node, cnt in self.pickups:
            if cnt < 1:
                raise ValueError(f"non-positive pickup {cnt} at node {node}")
            if node in seen:
                raise ValueError(f"duplicate pickup entry for node {node}")
            seen.add(node)

    @classmethod
    def of(cls, pickups: Mapping[int, int] | Iterable[tuple[int, int]]) -> "Tour":
        items = pickups.items() if isinstance(pickups, Mapping) else pickups
        return cls(tuple(sorted((v, c) for v, c in items if c)))

    @property
    def load(self) -> int:
        return sum(c for _, c in self.pickups)

    def as_dict(self) -> dict[int, int]:
        return dict(self.pickups)


@dataclass(frozen=True)
class Solution:
    """A set of tours with cached total cost."""

    tours: tuple[Tour, ...]
    total_cost: Weight

    @classmethod
    def of(cls, inst: TreeInstance, tours: Iterable[Tour]) -> "Solution":
        tours = tuple(tours)
        return cls(tours, solution_cost(inst, tours))

    @property
    def covered(self) -> Counter:
        cov: Counter = Counter()
        for t in self.tours:
            for v, c in t.pickups:
                cov[v] += c
        return cov

    def canonical(self) -> tuple:
        return tuple(sorted(t.pickups for t in self.tours))


def _positions_cost(inst: TreeInstance,
                    position_lists: Iterable[list[int]]) -> Weight:
    """2x the summed weight of each list's union of root paths.

    A list holds the preorder positions (``inst.preorder``'s ``pos``) of its
    nodes. Sorted as p_1 < ... < p_k, its union weighs
    ``sum dist[p_i] - sum_{i>1} dist[lca(p_{i-1}, p_i)]`` (the virtual-tree
    identity). An LCA jumps the position whose path head lies later to
    ``jump`` until both share a head, then is the smaller position, in
    O(log n) jumps. Each list is sorted in place.
    """
    _, head, jump, dist = inst.preorder
    total = 0
    for order in position_lists:
        if len(order) < 2:
            if order:
                total += dist[order[0]]
            continue
        order.sort()
        prev = order[0]
        total += dist[prev]
        for b in order[1:]:
            a, prev = prev, b
            total += dist[b]
            ha, hb = head[a], head[b]
            while ha != hb:
                if ha > hb:
                    a = jump[a]
                    ha = head[a]
                else:
                    b = jump[b]
                    hb = head[b]
            total -= dist[a if a < b else b]
    return _as_weight(2 * total)


def tour_cost(inst: TreeInstance, tour: Tour) -> Weight:
    """2x the weight of the minimal subtree connecting depot and pickup nodes."""
    pos = inst.preorder[0]
    return _positions_cost(inst, ([pos[v] for v, _ in tour.pickups],))


def pickup_set_cost(inst: TreeInstance, nodes: Iterable[int]) -> Weight:
    """2x the weight of the union of the nodes' root paths, in O(k log n).

    The nodes' preorder positions go through the heavy-path LCA walk that
    ``solution_cost`` runs over all of a solution's tours in one loop,
    O(P log n) for P pickups; the caller's ``nodes`` are only read. A
    repeated node or the depot adds 0.
    """
    pos = inst.preorder[0]
    return _positions_cost(inst, ([pos[v] for v in nodes],))


def solution_cost(inst: TreeInstance, tours: Iterable[Tour]) -> Weight:
    """Sum of the tours' costs, in one LCA walk: O(P log n) for P pickups."""
    pos = inst.preorder[0]
    return _positions_cost(inst, ([pos[v] for v, _ in t.pickups]
                                  for t in tours))


def normalize_demands(inst: TreeInstance) -> tuple[TreeInstance, Solution]:
    """Peel full vehicle loads at each node into dedicated trivial tours.

    Returns the residual instance (d(v) < Q everywhere) and the peeled tours.
    When no demand reaches Q nothing is peeled, and ``inst`` itself comes
    back, with its cached tables, next to an empty solution.
    """
    q = inst.capacity
    residual = list(inst.demand)
    trivial: list[Tour] = []
    for v in range(inst.n):
        while residual[v] >= q:
            residual[v] -= q
            trivial.append(Tour.of({v: q}))
    if not trivial:
        return inst, Solution((), 0)
    out = inst.replace(demand=tuple(residual))
    return out, Solution.of(inst, trivial)


# ---------------------------------------------------------------------------
# file formats

HEADER = "cvrp-tree v1"


def _parse_weight(tok: str) -> Weight:
    try:
        return int(tok)
    except ValueError:
        return Fraction(tok)


def load_instance(text: str) -> TreeInstance:
    """Parse the line-oriented instance format (see save_instance)."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != HEADER:
        raise InstanceError(f"missing header {HEADER!r}")
    n = q = None
    edges: list[tuple[int, int, Weight]] = []
    demands: dict[int, int] = {}
    for ln in lines[1:]:
        parts = ln.split()
        try:
            if parts[0] == "n" and len(parts) == 2:
                if n is not None:
                    raise InstanceError("duplicate n line")
                n = int(parts[1])
            elif parts[0] == "Q" and len(parts) == 2:
                if q is not None:
                    raise InstanceError("duplicate Q line")
                q = int(parts[1])
            elif parts[0] == "edge" and len(parts) == 4:
                edges.append((int(parts[1]), int(parts[2]), _parse_weight(parts[3])))
            elif parts[0] == "demand" and len(parts) == 3:
                node = int(parts[1])
                if node in demands:
                    raise InstanceError(f"duplicate demand line for node {node}")
                demands[node] = int(parts[2])
            else:
                raise InstanceError(f"unrecognized line: {ln!r}")
        except (ValueError, ZeroDivisionError) as exc:
            if isinstance(exc, InstanceError):
                raise
            raise InstanceError(f"malformed line: {ln!r}") from exc
    if n is None or q is None:
        raise InstanceError("missing n or Q line")
    # before allocating per-node lists, so that a huge n line alone fails fast
    if len(edges) != n - 1:
        raise InstanceError(f"expected {n - 1} edges, got {len(edges)}")
    parent: list[int] = [-1] * n
    weight: list[Weight] = [0] * n
    seen_child = set()
    for p, c, w in edges:
        if not (0 <= p < n and 0 < c < n):
            raise InstanceError(f"edge ({p},{c}) out of range")
        if c in seen_child:
            raise InstanceError(f"duplicate node id {c} as edge child")
        seen_child.add(c)
        parent[c] = p
        weight[c] = w
    demand = [0] * n
    for node, d in demands.items():
        if not 0 <= node < n:
            raise InstanceError(f"demand for unknown node {node}")
        demand[node] = d
    return TreeInstance(tuple(parent), tuple(weight), tuple(demand), q)


def save_instance(inst: TreeInstance) -> str:
    lines = [HEADER, f"n {inst.n}", f"Q {inst.capacity}"]
    for v in range(1, inst.n):
        lines.append(f"edge {inst.parent[v]} {v} {inst.weight[v]}")
    for v in range(inst.n):
        if inst.demand[v]:
            lines.append(f"demand {v} {inst.demand[v]}")
    return "\n".join(lines) + "\n"


def save_solution(sol: Solution) -> str:
    lines = []
    for t in sorted(sol.tours, key=lambda t: t.pickups):
        body = " ".join(f"{v}:{c}" for v, c in t.pickups)
        lines.append(f"tour {body}".rstrip())
    lines.append(f"cost {sol.total_cost}")
    return "\n".join(lines) + "\n"


def load_solution(text: str) -> Solution:
    """Parse ``tour <node>:<count> ...`` lines and one ``cost`` line."""
    tours: list[Tour] = []
    cost: Weight | None = None
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln:
            continue
        parts = ln.split()
        try:
            if parts[0] == "tour":
                pick: dict[int, int] = {}
                for item in parts[1:]:
                    node, _, cnt = item.partition(":")
                    v, c = int(node), int(cnt)
                    if c < 0 or v in pick:
                        raise InstanceError(
                            f"negative or repeated pickup {item!r} in {ln!r}")
                    pick[v] = c
                # zero counts are dropped; Tour still validates the rest
                tours.append(Tour(tuple(sorted(
                    (v, c) for v, c in pick.items() if c))))
            elif parts[0] == "cost" and len(parts) == 2:
                if cost is not None:
                    raise InstanceError("duplicate cost line")
                cost = _parse_weight(parts[1])
            else:
                raise InstanceError(f"unrecognized solution line: {ln!r}")
        except InstanceError:
            raise
        except (ValueError, ZeroDivisionError) as exc:
            raise InstanceError(f"malformed line: {ln!r}") from exc
    if cost is None:
        raise InstanceError("missing cost line")
    return Solution(tuple(tours), cost)
