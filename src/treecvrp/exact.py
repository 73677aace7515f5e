"""Exact ground-truth solvers for desk-scale instances.

Two implementations that share no code beyond the instance types:

* ``solve_exact`` -- the bound-pruned profile DP (``dp.solve_structured``)
  at generous parameters, where every bucket is small and the DP is exact.
* ``solve_exact_naive`` -- plain recursive partition enumeration over
  individual tokens, capped at 9 tokens.

The test suite adds a third, the memoized residual-demand-vector DP of
``tests/oracle.py``, and cross-checks all three.
"""

from __future__ import annotations

from .dp import DPParams, solve_structured
from .instance import Solution, Tour, TreeInstance
# Unused here, but perfbench's tracer test reads ``exact.pickup_set_cost``.
from .instance import pickup_set_cost  # noqa: F401


class OracleSizeError(ValueError):
    """Instance holds more tokens than the oracle's limit."""


class InfeasibleError(ValueError):
    """No feasible solution under the given restrictions.

    No solver here raises it; the name stays for callers that catch it.
    """


def solve_exact(inst: TreeInstance, max_tokens: int = 14) -> Solution:
    """Optimal solution via the profile DP at generous parameters.

    Raises ``OracleSizeError`` above ``max_tokens`` tokens before any work.
    Ties resolve deterministically: each profile points back at the first
    cheapest pair of entries whose fold reaches it, and its witness is that
    pair's first assignment of the profile's sizes; each depot subtree takes
    its cheapest profile, fewest tours first, then the smallest size tuple.
    Among optimal solutions this need not be the one another exact solver
    returns.
    """
    total = inst.total_demand
    if total > max_tokens:
        raise OracleSizeError(
            f"{total} tokens exceeds oracle limit {max_tokens}")
    return solve_structured(inst, params=DPParams.generous(inst))


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
