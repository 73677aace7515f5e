"""The exact ground-truth solver for desk-scale instances.

``solve_exact`` runs the bound-pruned profile DP (``dp.solve_structured``) at
generous parameters, where every bucket is small and the DP is exact. The
test suite checks it against two oracles of ``tests/oracle.py`` that share
no code with it: the memoized residual-demand-vector DP and a naive
enumeration of token partitions.
"""

from __future__ import annotations

from .dp import DPParams, solve_structured
from .instance import Solution, TreeInstance
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
