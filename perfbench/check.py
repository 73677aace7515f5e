"""Output checks that share no code with ``treecvrp.verify``.

Costs are recomputed by an own walk up the parent pointers, the flow lower
bound by an own subtree-demand pass, and the threshold buckets by an own
schedule. Every check raises ``CheckFailed`` with a message naming the
problem.
"""

from __future__ import annotations

import csv
import io
import math
from fractions import Fraction


class CheckFailed(AssertionError):
    """A benchmark item returned a wrong output."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _order(parent) -> list[int]:
    """Root-first node order built from parent pointers alone."""
    kids: list[list[int]] = [[] for _ in parent]
    for v in range(1, len(parent)):
        kids[parent[v]].append(v)
    order, stack = [], [0]
    while stack:
        u = stack.pop()
        order.append(u)
        stack.extend(kids[u])
    require(len(order) == len(parent), "parent pointers do not form a tree")
    return order


def walk_cost(parent, weight, nodes) -> int | Fraction:
    """Twice the weight of the subtree spanning the depot and ``nodes``."""
    seen: set[int] = set()
    total = 0
    for v in nodes:
        while v and v not in seen:
            seen.add(v)
            total += weight[v]
            v = parent[v]
    return 2 * total


def lower_bound(parent, weight, demand, capacity) -> int | Fraction:
    """Per-edge flow bound: ceil(D_e / Q) crossings at 2 w(e) each."""
    below = list(demand)
    for v in reversed(_order(parent)):
        if v:
            below[parent[v]] += below[v]
    return sum(2 * weight[v] * -(-below[v] // capacity)
               for v in range(1, len(parent)) if below[v])


def root_distances(parent, weight) -> list:
    dist = [0] * len(parent)
    for v in _order(parent)[1:]:
        dist[v] = dist[parent[v]] + weight[v]
    return dist


def check_solution(inst, sol, capacity: int | None = None) -> Fraction:
    """Validate ``sol`` for ``inst``; return cost / flow lower bound.

    Checks per-tour capacity, exact token coverage, the declared cost against
    an own tree walk, and that the cost is at least the flow lower bound.
    """
    parent, weight, demand = inst.parent, inst.weight, inst.demand
    cap = inst.capacity if capacity is None else capacity
    covered = [0] * len(parent)
    cost = 0
    for i, tour in enumerate(sol.tours):
        load = 0
        for v, c in tour.pickups:
            require(0 <= v < len(parent), f"tour {i}: unknown node {v}")
            require(c > 0, f"tour {i}: pickup {c} at node {v}")
            covered[v] += c
            load += c
        require(load <= cap, f"tour {i}: load {load} over capacity {cap}")
        cost += walk_cost(parent, weight, (v for v, _ in tour.pickups))
    for v, (got, want) in enumerate(zip(covered, demand)):
        require(got == want, f"node {v}: covered {got}, demand {want}")
    require(cost == sol.total_cost,
            f"declared cost {sol.total_cost} != walked cost {cost}")
    lb = lower_bound(parent, weight, demand, inst.capacity)
    require(cost >= lb, f"cost {cost} below flow lower bound {lb}")
    return Fraction(cost) / lb if lb else Fraction(1)


def schedule(capacity: int, eps: float) -> list[int]:
    """Threshold grid 1, 2, .., ceil(1/eps), then x(1+eps) rounded up."""
    sigma = list(range(1, min(math.ceil(1 / eps), capacity) + 1))
    while sigma[-1] < capacity:
        sigma.append(min(capacity, math.ceil(sigma[-1] * (1 + eps))))
    return sigma


def bucket_sizes(inst, sol, eps: float) -> dict[tuple[int, int], int]:
    """(node, bucket) -> number of distinct partial-tour sizes there."""
    sigma = schedule(inst.capacity, eps)
    order = _order(inst.parent)
    sizes: dict[tuple[int, int], set[int]] = {}
    for tour in sol.tours:
        cov = [0] * len(inst.parent)
        for v, c in tour.pickups:
            cov[v] += c
        for v in reversed(order):
            if v:
                cov[inst.parent[v]] += cov[v]
                if cov[v]:
                    b = max(i for i, s in enumerate(sigma) if s <= cov[v])
                    sizes.setdefault((v, b), set()).add(cov[v])
    return {k: len(s) for k, s in sizes.items()}


CSV_V1_COLUMNS = ["shape", "n", "Q", "demand_model", "seed", "algorithm",
                  "eps", "cost", "reference", "ref_value", "ratio", "states",
                  "wall_ms", "error"]


def check_suite_csv(text: str, inst, spec: dict,
                    algorithms) -> list[Fraction]:
    """Validate one-instance ``run_suite`` output under CSV contract v1.

    Returns cost / flow lower bound for every solution row.
    """
    reader = csv.DictReader(io.StringIO(text))
    require(reader.fieldnames == CSV_V1_COLUMNS,
            f"CSV header {reader.fieldnames} is not contract version 1")
    rows = list(reader)
    data = [r for r in rows if r["shape"] != "summary"]
    summary = [r for r in rows if r["shape"] == "summary"]
    require(sorted(r["algorithm"] for r in data) == sorted(algorithms),
            "one row per algorithm expected")
    require(sorted(r["algorithm"] for r in summary) == sorted(algorithms),
            "one summary row per algorithm expected")
    lb = lower_bound(inst.parent, inst.weight, inst.demand, inst.capacity)
    ratios = []
    for r in data:
        where = f"row {r['algorithm']}"
        require((r["shape"], int(r["n"]), int(r["Q"]), r["demand_model"],
                 int(r["seed"])) == (spec["shape"], spec["n"], spec["Q"],
                                     spec["demand_model"], spec["seeds"][0]),
                f"{where}: key columns do not match the suite")
        require(r["error"] == "", f"{where}: error {r['error']!r}")
        require(r["reference"] == "oracle", f"{where}: reference "
                f"{r['reference']!r}, oracle expected")
        cost, ref = Fraction(r["cost"]), Fraction(r["ref_value"])
        require(ref >= lb, f"{where}: optimum {ref} below bound {lb}")
        require(cost >= ref, f"{where}: cost {cost} below optimum {ref}")
        require(Fraction(r["ratio"]) == cost / ref,
                f"{where}: ratio {r['ratio']} != {cost}/{ref}")
        if r["algorithm"] == "exact":
            require(cost == ref, f"{where}: exact cost {cost} != {ref}")
        ratios.append(cost / lb if lb else Fraction(1))
    by_algo = {r["algorithm"]: r["ratio"] for r in data}
    for r in summary:
        require(Fraction(r["ratio"]) == Fraction(by_algo[r["algorithm"]]),
                f"summary {r['algorithm']}: mean ratio {r['ratio']} wrong")
    return ratios
