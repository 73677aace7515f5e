"""Exact ground-truth solvers for desk-scale instances.

Two independent implementations cross-validate each other in the test suite:

* ``solve_exact`` -- memoized set-partition DP keyed by per-node residual
  demand vectors (tokens at one node are interchangeable, which is what makes
  ~14 tokens tractable).
* ``solve_exact_naive`` -- plain recursive partition enumeration over
  individual tokens, capped at 9 tokens. Deliberately shares no code with the
  DP beyond the instance types.
"""

from __future__ import annotations

from .instance import Solution, Tour, TreeInstance, pickup_set_cost


class OracleSizeError(ValueError):
    """Instance holds more tokens than the oracle's limit."""


class InfeasibleError(ValueError):
    """No feasible solution under the given restrictions.

    No solver here raises it; the name stays for callers that catch it.
    """


def _groups_from(inst: TreeInstance, residual: tuple[int, ...], pivot: int):
    """All pickup groups with load <= Q that take >= 1 token at the pivot."""
    q = inst.capacity
    nodes = [v for v in range(pivot, inst.n) if residual[v] > 0]
    out: list[tuple[tuple[int, int], ...]] = []

    def rec(idx: int, load: int, acc: list[tuple[int, int]]):
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


def solve_exact(inst: TreeInstance, max_tokens: int = 14) -> Solution:
    """Optimal solution via memoized DP over residual demand vectors."""
    total = inst.total_demand
    if total > max_tokens:
        raise OracleSizeError(
            f"{total} tokens exceeds oracle limit {max_tokens}")
    if total == 0:
        return Solution.of(inst, ())

    # Keyed by the group itself, so a lookup builds no node tuple; groups
    # with the same nodes but other counts are costed once each.
    group_cost_cache: dict[tuple[tuple[int, int], ...], int] = {}

    def group_cost(group) -> int:
        cost = group_cost_cache.get(group)
        if cost is None:
            cost = group_cost_cache[group] = pickup_set_cost(
                inst, [v for v, _ in group])
        return cost

    memo: dict[tuple[int, ...], tuple[int, tuple | None]] = {}

    def solve(residual: tuple[int, ...]) -> tuple[int, tuple | None]:
        if residual in memo:
            return memo[residual]
        pivot = next((v for v, r in enumerate(residual) if r), None)
        if pivot is None:
            memo[residual] = (0, None)
            return memo[residual]
        best = None
        # Groups come out in ascending canonical order, so ties resolve to the
        # lexicographically smallest group encoding deterministically.
        for group in _groups_from(inst, residual, pivot):
            rest = list(residual)
            for v, c in group:
                rest[v] -= c
            sub, _ = solve(tuple(rest))
            cand = group_cost(group) + sub
            if best is None or cand < best[0]:
                best = (cand, group)
        memo[residual] = best  # type: ignore[assignment]
        return best  # type: ignore[return-value]

    start = tuple(inst.demand)
    cost, _ = solve(start)
    tours = []
    state = start
    while any(state):
        _, group = memo[state]
        assert group is not None
        tours.append(Tour(group))
        rest = list(state)
        for v, c in group:
            rest[v] -= c
        state = tuple(rest)
    sol = Solution.of(inst, tours)
    assert sol.total_cost == cost
    return sol


def solve_exact_naive(inst: TreeInstance, max_tokens: int = 9) -> Solution:
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
