"""Rooted-tree CVRP instances, tours, solutions, file I/O and demand peeling.

Node 0 is always the depot. Edge weights are non-negative integers or
rationals (``Fraction``); costs are computed exactly.
A tour is stored as its pickup multiset only -- on a tree the cheapest closed
walk through a pickup set is determined by the set, so no explicit walk is kept.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class TreeInstance:
    """A rooted edge-weighted tree with token demands and vehicle capacity.

    ``parent[v]`` is the parent of node v (``parent[0] == -1``), ``weight[v]``
    the weight of the edge (parent[v], v) with ``weight[0] == 0``.

    Validation is O(n): every parent chain is walked once, memoized, and a
    node whose chain never reaches the depot is reported by its smallest id.
    It builds none of the cached tables. ``preorder`` (O(n), built on the
    first costing) lets ``pickup_set_cost`` price k nodes in O(k log n).
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
        d = [0] * self.n
        d[0] = 1
        for v in self.topo_order[1:]:
            d[v] = d[self.parent[v]] + 1
        return tuple(d)

    @cached_property
    def dist_root(self) -> tuple[Weight, ...]:
        d: list[Weight] = [0] * self.n
        for v in self.topo_order[1:]:
            d[v] = _as_weight(d[self.parent[v]] + self.weight[v])
        return tuple(d)

    @property
    def topo_order(self) -> tuple[int, ...]:
        """Nodes ordered root-first (every parent before its children).

        Rebuilt on each access: each cached table reads it once, and keeping
        it would hold n more entries for the life of every instance.
        """
        order = [0]
        stack = [0]
        while stack:
            u = stack.pop()
            for c in self.children[u]:
                order.append(c)
                stack.append(c)
        return tuple(order)

    @cached_property
    def preorder(self) -> tuple[array, array]:
        """Each node's preorder position and its heavy-path head.

        One DFS visits the heavy child (largest subtree) of every node right
        after the node, so each heavy path is contiguous in preorder and any
        root path crosses O(log n) heavy paths.
        """
        size = self.subtree_sizes()
        pos, head = array("i", [0]) * self.n, array("i", [0]) * self.n
        stack, t = [0], 0
        while stack:
            u = stack.pop()
            pos[u] = t
            t += 1
            kids = self.children[u]
            if kids:
                heavy = max(kids, key=size.__getitem__)
                for c in kids:
                    if c != heavy:
                        head[c] = c
                        stack.append(c)
                head[heavy] = head[u]
                stack.append(heavy)
        return pos, head

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
        """Number of nodes in every node's subtree (not cached)."""
        size = [1] * self.n
        for v in reversed(self.topo_order[1:]):
            size[self.parent[v]] += size[v]
        return size

    @cached_property
    def subtree_demand(self) -> tuple[int, ...]:
        total = list(self.demand)
        for v in reversed(self.topo_order):
            if v:
                total[self.parent[v]] += total[v]
        return tuple(total)

    @property
    def total_demand(self) -> int:
        return sum(self.demand)

    def replace(self, **kw) -> "TreeInstance":
        fields = dict(parent=self.parent, weight=self.weight, demand=self.demand,
                      capacity=self.capacity)
        fields.update(kw)
        return TreeInstance(**fields)


@dataclass(frozen=True)
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

    @property
    def nodes(self) -> tuple[int, ...]:
        return tuple(v for v, _ in self.pickups)


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


def tour_cost(inst: TreeInstance, tour: Tour) -> Weight:
    """2x the weight of the minimal subtree connecting depot and pickup nodes."""
    return pickup_set_cost(inst, (v for v, _ in tour.pickups))


def pickup_set_cost(inst: TreeInstance, nodes: Iterable[int]) -> Weight:
    """2x the weight of the union of the nodes' root paths, in O(k log n).

    With the k nodes sorted by preorder as v_1..v_k, the union weighs
    ``sum dist_root(v_i) - sum_{i>1} dist_root(lca(v_{i-1}, v_i))`` (the
    virtual-tree identity). A repeated node or the depot adds 0. Each LCA
    takes O(log n) heavy-path jumps over ``inst.preorder``.
    """
    pos, head = inst.preorder
    parent, dist = inst.parent, inst.dist_root
    order = sorted(nodes, key=pos.__getitem__)
    total = dist[order[0]] if order else 0
    for a, b in zip(order, order[1:]):
        total += dist[b]
        ha, hb = head[a], head[b]
        while ha != hb:
            if pos[ha] > pos[hb]:
                a = parent[ha]
                ha = head[a]
            else:
                b = parent[hb]
                hb = head[b]
        total -= dist[a if pos[a] < pos[b] else b]
    return _as_weight(2 * total)


def solution_cost(inst: TreeInstance, tours: Iterable[Tour]) -> Weight:
    return _as_weight(sum(tour_cost(inst, t) for t in tours))


def normalize_demands(inst: TreeInstance) -> tuple[TreeInstance, Solution]:
    """Peel full vehicle loads at each node into dedicated trivial tours.

    Returns the residual instance (d(v) < Q everywhere) and the peeled tours.
    """
    q = inst.capacity
    residual = list(inst.demand)
    trivial: list[Tour] = []
    for v in range(inst.n):
        while residual[v] >= q:
            residual[v] -= q
            trivial.append(Tour.of({v: q}))
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
                n = int(parts[1])
            elif parts[0] == "Q" and len(parts) == 2:
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
    if len(edges) != n - 1:
        raise InstanceError(f"expected {n - 1} edges, got {len(edges)}")
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
                tours.append(Tour.of(pick))  # zero counts are dropped
            elif parts[0] == "cost" and len(parts) == 2:
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
