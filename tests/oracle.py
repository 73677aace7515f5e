"""Reference solvers for the tests.

Two exact oracles are independent of the profile DP that
``treecvrp.exact.solve_exact`` runs, and of each other.

``solve_residual`` is a DP over residual demand vectors. A state is the
vector of tokens still to pick up at each node; tokens at one node are
interchangeable, which is what makes ~14 tokens tractable. Each step takes
one pickup group that includes a token of the first node still holding one
(the pivot), so every partition into tours is met exactly once.

``solve_exact_naive`` enumerates every partition of the individual tokens
into tours, so it stops at 9 tokens.

``itp_reference`` is iterated tour partitioning done the literal way: one
list entry per token, one dict per block, and every block priced by
``Solution.of``. ``treecvrp.baselines.itp_solve`` must equal it.

``decompose_reference`` builds the D-path decomposition by descent: from
each path's top it steps into the child with the largest subtree until a
leaf. ``treecvrp.height.decompose_paths`` must equal it.

``check_feasible_reference`` is the feasibility check priced by node lists:
it sorts each tour's nodes by preorder position and walks a node-indexed
heavy-path ``head`` (``heavy_paths_reference``) for each LCA.
``treecvrp.verify.check_feasible`` must report exactly what it reports.

``Unbounded`` is the deepening bound at UB = infinity, which cuts nothing:
``treecvrp.dp._sweep`` run with it is the unpruned profile DP that the
bound-pruned solvers must agree with. ``NoCut`` is a fold bound that keeps
every state, for calling ``treecvrp.dp.merge_child_table`` on tables built by
hand.
"""

import math
from array import array

from treecvrp.dp import _Bound
from treecvrp.exact import OracleSizeError
from treecvrp.height import PathDecomposition
from treecvrp.instance import Solution, Tour, _as_weight, pickup_set_cost
from treecvrp.verify import FeasibilityReport


def groups_from(inst, residual, pivot):
    """All pickup groups with load <= Q that take >= 1 token at the pivot."""
    q = inst.capacity
    nodes = [v for v in range(pivot, inst.n) if residual[v] > 0]
    out = []

    def rec(idx, load, acc):
        if idx == len(nodes):
            if acc and acc[0][0] == pivot:
                out.append(tuple(acc))
            return
        v = nodes[idx]
        lo = 1 if v == pivot else 0
        hi = min(residual[v], q - load)
        if lo > hi:
            if v == pivot:
                return
            rec(idx + 1, load, acc)
            return
        for c in range(lo, hi + 1):
            if c:
                acc.append((v, c))
                rec(idx + 1, load + c, acc)
                acc.pop()
            else:
                rec(idx + 1, load, acc)

    rec(0, 0, [])
    return out


def solve_residual(inst):
    """Optimal solution via memoized DP over residual demand vectors.

    Groups come out in ascending canonical order, so ties resolve to the
    lexicographically smallest group deterministically.
    """
    # Keyed by the group itself, so a lookup builds no node tuple; groups
    # with the same nodes but other counts are costed once each.
    group_cost_cache = {}

    def group_cost(group):
        cost = group_cost_cache.get(group)
        if cost is None:
            cost = group_cost_cache[group] = pickup_set_cost(
                inst, [v for v, _ in group])
        return cost

    memo = {}

    def solve(residual):
        if residual in memo:
            return memo[residual]
        pivot = next((v for v, r in enumerate(residual) if r), None)
        if pivot is None:
            memo[residual] = (0, None)
            return memo[residual]
        best = None
        for group in groups_from(inst, residual, pivot):
            rest = list(residual)
            for v, c in group:
                rest[v] -= c
            sub, _ = solve(tuple(rest))
            cand = group_cost(group) + sub
            if best is None or cand < best[0]:
                best = (cand, group)
        memo[residual] = best
        return best

    start = tuple(inst.demand)
    cost, _ = solve(start)
    tours = []
    state = start
    while any(state):
        _, group = memo[state]
        tours.append(Tour(group))
        rest = list(state)
        for v, c in group:
            rest[v] -= c
        state = tuple(rest)
    sol = Solution.of(inst, tours)
    assert sol.total_cost == cost
    return sol


def solve_exact_naive(inst, max_tokens=9):
    """Brute-force partition enumeration over individual tokens."""
    total = inst.total_demand
    if total > max_tokens:
        raise OracleSizeError(
            f"{total} tokens exceeds naive-enumerator limit {max_tokens}")
    tokens: list[int] = []
    for v in range(inst.n):
        tokens.extend([v] * inst.demand[v])
    q = inst.capacity
    best: list = [None]

    groups: list[list[int]] = []
    loads: list[int] = []

    def rec(i: int):
        if i == len(tokens):
            tours = [Tour.of({v: g.count(v) for v in set(g)}) for g in groups]
            sol = Solution.of(inst, tours)
            key = (sol.total_cost, sol.canonical())
            if best[0] is None or key < best[0][0:2]:
                best[0] = (sol.total_cost, sol.canonical(), sol)
            return
        v = tokens[i]
        for gi in range(len(groups)):
            if loads[gi] < q:
                groups[gi].append(v)
                loads[gi] += 1
                rec(i + 1)
                groups[gi].pop()
                loads[gi] -= 1
        groups.append([v])
        loads.append(1)
        rec(i + 1)
        groups.pop()
        loads.pop()

    rec(0)
    if best[0] is None:
        return Solution.of(inst, ())
    return best[0][2]


def itp_reference(inst):
    """Token list in DFS order (children ascending), cut into Q-blocks."""
    tokens = []
    stack = [0]
    while stack:
        v = stack.pop()
        tokens.extend([v] * inst.demand[v])
        stack.extend(reversed(inst.children[v]))
    q = inst.capacity
    tours = []
    for i in range(0, len(tokens), q):
        block = {}
        for v in tokens[i:i + q]:
            block[v] = block.get(v, 0) + 1
        tours.append(Tour.of(block))
    return Solution.of(inst, tours)


def decompose_reference(inst):
    """D-paths by descent into the largest child subtree, smallest id on ties."""
    size = inst.subtree_sizes()
    node_level = [0] * inst.n
    levels = []
    # (root-of-pending-subtree, attachment-node-or-None, level)
    pending = [(0, None, 1)]
    while pending:
        top, attach, lvl = pending.pop()
        path = [top]
        v = top
        while inst.children[v]:
            v = max(inst.children[v], key=lambda c: (size[c], -c))
            path.append(v)
        for u in path:
            node_level[u] = lvl
        full = tuple(path) if attach is None else (attach,) + tuple(path)
        while len(levels) < lvl:
            levels.append([])
        levels[lvl - 1].append(full)
        on_path = set(path)
        for u in path:
            for c in inst.children[u]:
                if c not in on_path:
                    pending.append((c, u, lvl + 1))
    return PathDecomposition(
        tuple(tuple(sorted(lv)) for lv in levels), tuple(node_level))


def heavy_paths_reference(inst):
    """Node-indexed ``(pos, head)``: each node's heavy-first preorder
    position and the node heading its heavy path."""
    size, children = inst.subtree_sizes(), inst.children
    pos, head = array("i", [0]) * inst.n, array("i", [0]) * inst.n
    stack, t = [0], 0
    while stack:
        u = stack.pop()
        pos[u] = t
        t += 1
        kids = children[u]
        if kids:
            heavy = max(kids, key=size.__getitem__)
            for c in kids:
                if c != heavy:
                    head[c] = c
                    stack.append(c)
            head[heavy] = head[u]
            stack.append(heavy)
    return pos, head


def sets_cost_reference(inst, node_lists):
    """2x the summed weight of each node list's union of root paths, by the
    virtual-tree identity over the nodes sorted by preorder position."""
    pos, head = heavy_paths_reference(inst)
    parent, dist = inst.parent, inst.dist_root
    key = pos.__getitem__
    total = 0
    for order in node_lists:
        if len(order) < 2:
            if order:
                total += dist[order[0]]
            continue
        order.sort(key=key)
        total += dist[order[0]]
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


def check_feasible_reference(inst, sol):
    """Loads and coverage in one pass, then a second pass that prices the
    tours' node lists; the same violation texts in the same order."""
    violations = []
    q, n = inst.capacity, inst.n
    covered = [0] * n
    unknown_node = False
    for i, t in enumerate(sol.tours):
        first = len(violations)
        load = 0
        for v, c in t.pickups:
            load += c
            if 0 <= v < n:
                covered[v] += c
            else:
                unknown_node = True
                violations.append(f"tour {i}: unknown node {v}")
        if load > q:
            violations.insert(
                first, f"tour {i}: load {load} exceeds capacity {q}")
    if unknown_node:
        return FeasibilityReport(False, 0, tuple(violations))
    for v, (got, want) in enumerate(zip(covered, inst.demand)):
        if got != want:
            violations.append(f"node {v}: covered {got} tokens, demand is {want}")
    cost = sets_cost_reference(inst, ([v for v, _ in t.pickups]
                                      for t in sol.tours))
    if cost != sol.total_cost:
        violations.append(
            f"declared cost {sol.total_cost} != recomputed {cost}")
    return FeasibilityReport(not violations, cost, tuple(violations))


class Unbounded(_Bound):
    """The profile DP's bound with UB = infinity: no state is ever cut."""

    def start(self, t):
        super().start(t)
        self.ub = math.inf


class NoCut:
    """A fold bound that cuts nothing: every state is kept, at any number of
    tours."""

    def keeps(self, cost, tours):
        return True

    def most_tours(self, cost):
        return math.inf
