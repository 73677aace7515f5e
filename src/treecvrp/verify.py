"""Independent checking of solver output.

Feasibility is recomputed from scratch: capacity per tour, exact demand
coverage (surplus delivery is as much a bug as shortfall, since pads must be
stripped before a solution reaches the checker), and the declared total cost
against a fresh evaluation. Violations are reported as data, never raised.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .instance import Solution, TreeInstance, Weight, solution_cost


@dataclass(frozen=True)
class FeasibilityReport:
    ok: bool
    recomputed_cost: Weight
    violations: tuple[str, ...] = ()


def check_feasible(inst: TreeInstance, sol: Solution) -> FeasibilityReport:
    violations: list[str] = []
    q = inst.capacity
    for i, t in enumerate(sol.tours):
        if t.load > q:
            violations.append(f"tour {i}: load {t.load} exceeds capacity {q}")
        for v, _ in t.pickups:
            if not 0 <= v < inst.n:
                violations.append(f"tour {i}: unknown node {v}")
    if violations and any("unknown node" in v for v in violations):
        # cost recomputation would index the tree tables with a bogus node
        return FeasibilityReport(False, 0, tuple(violations))
    covered = sol.covered
    for v in range(inst.n):
        got = covered.get(v, 0)
        if got != inst.demand[v]:
            violations.append(
                f"node {v}: covered {got} tokens, demand is {inst.demand[v]}")
    cost = solution_cost(inst, sol.tours)
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
