"""Independent checking of solver output.

Feasibility is recomputed from scratch: capacity per tour, exact demand
coverage (surplus delivery is as much a bug as shortfall, since pads must be
stripped before a solution reaches the checker), and the declared total cost
against a fresh evaluation. Violations are reported as data, never raised.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .instance import Solution, TreeInstance, Weight, _positions_cost
# Unused here, but perfbench's tracer test reads ``verify.solution_cost``.
from .instance import solution_cost  # noqa: F401


@dataclass(frozen=True)
class FeasibilityReport:
    ok: bool
    recomputed_cost: Weight
    violations: tuple[str, ...] = ()


def check_feasible(inst: TreeInstance, sol: Solution) -> FeasibilityReport:
    """Loads, coverage and cost of ``sol`` in one pass over its pickups.

    The pass sums each tour's load and coverage and collects the preorder
    positions (``inst.preorder``'s ``pos``) of its nodes; after the
    unknown-node check those position lists are priced in one heavy-path
    LCA walk, O(P log n) for P pickups. Violations come per tour (load
    first, then unknown nodes), then coverage by node, then the declared
    cost; an unknown node stops the check before coverage and cost.
    """
    violations: list[str] = []
    q, n = inst.capacity, inst.n
    pos = inst.preorder[0]
    covered = [0] * n
    lists: list[list[int]] = []
    unknown_node = False
    for i, t in enumerate(sol.tours):
        first = len(violations)
        load = 0
        here: list[int] = []
        for v, c in t.pickups:
            load += c
            if 0 <= v < n:
                covered[v] += c
                here.append(pos[v])
            else:
                unknown_node = True
                violations.append(f"tour {i}: unknown node {v}")
        lists.append(here)
        if load > q:
            violations.insert(
                first, f"tour {i}: load {load} exceeds capacity {q}")
    if unknown_node:
        # the lists leave the unknown nodes out, so no cost is reported
        return FeasibilityReport(False, 0, tuple(violations))
    for v, (got, want) in enumerate(zip(covered, inst.demand)):
        if got != want:
            violations.append(f"node {v}: covered {got} tokens, demand is {want}")
    cost = _positions_cost(inst, lists)
    if cost != sol.total_cost:
        violations.append(
            f"declared cost {sol.total_cost} != recomputed {cost}")
    return FeasibilityReport(not violations, cost, tuple(violations))


@dataclass(frozen=True)
class RatioReport:
    cost: Weight
    reference: str  # "oracle" or "lower_bound"
    reference_value: Weight
    ratio: Fraction | None  # None when the reference value is zero
    fell_back: bool  # asked for the oracle but it exceeded its size limits
    feasible: bool


def ratio_report(inst: TreeInstance, sol: Solution,
                 reference: str = "lower_bound") -> RatioReport:
    """Cost of ``sol`` over a reference value.

    With ``reference="oracle"`` the reference is the exact optimum; if the
    instance exceeds the oracle's size limits the flow lower bound is used
    instead and ``fell_back`` is set. Against the lower bound the ratio is an
    upper bound on the true approximation ratio.
    """
    from .baselines import flow_lower_bound
    from .exact import OracleSizeError, solve_exact

    if reference not in ("oracle", "lower_bound"):
        raise ValueError(f"unknown reference {reference!r}")
    fell_back = False
    kind = reference
    if reference == "oracle":
        try:
            ref_value: Weight = solve_exact(inst).total_cost
        except OracleSizeError:
            fell_back = True
            kind = "lower_bound"
            ref_value = flow_lower_bound(inst)
    else:
        ref_value = flow_lower_bound(inst)
    return _ratio_against(inst, sol, kind, ref_value, fell_back)


def _ratio_against(inst: TreeInstance, sol: Solution, kind: str,
                   ref_value: Weight, fell_back: bool) -> RatioReport:
    """Report ``sol`` against a reference value the caller already holds."""
    rep = check_feasible(inst, sol)
    ratio = Fraction(rep.recomputed_cost) / ref_value if ref_value else None
    return RatioReport(rep.recomputed_cost, kind, ref_value, ratio,
                       fell_back, rep.ok)
