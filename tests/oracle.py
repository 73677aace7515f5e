"""The residual-demand-vector DP, kept as an exact oracle independent of the
profile DP that ``treecvrp.exact.solve_exact`` runs.

A state is the vector of tokens still to pick up at each node; tokens at one
node are interchangeable, which is what makes ~14 tokens tractable. Each step
takes one pickup group that includes a token of the first node still holding
one (the pivot), so every partition into tours is met exactly once.
"""

from treecvrp.instance import Solution, Tour, pickup_set_cost


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
