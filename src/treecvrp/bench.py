"""Benchmark harness: JSON suite config in, deterministic CSV out.

``ALGORITHMS`` and ``solve`` are the one algorithm table, which ``treecvrp
solve`` uses too. Each instance is solved once by the exact oracle, whose
optimum is every row's reference; past the oracle's token limit the flow lower
bound is, and the ratio then bounds the true one from above. A config or spec
key other than ``instances``, ``algorithms``, ``eps`` and ``shape``, ``n``,
``Q``, ``demand_model``, ``seeds`` is refused.

Rows are sorted by key (shape, n, Q, demand model, seed, algorithm), not by
completion order, and the wall-time column stays empty unless timing is
requested, so re-running the same config yields a byte-identical file. Solver
errors land in the row's error column; they never abort the suite.

CSV contract (version 1):
    shape,n,Q,demand_model,seed,algorithm,eps,cost,reference,ref_value,
    ratio,states,wall_ms,error
followed by one ``summary`` row per algorithm with the mean ratio over its
successful rows. Ratios are exact fractions rendered as ``p/q``.
"""

from __future__ import annotations

import csv
import io
import json
import time
from fractions import Fraction

from .baselines import flow_lower_bound, itp_solve
from .dp import (DPParams, NoStructuredSolutionError, ResourceLimitError,
                 solve_bicriteria, solve_structured)
from .exact import OracleSizeError, solve_exact
from .generate import check_args, generate
from .instance import as_fraction
from .verify import check_feasible

CSV_VERSION = 1
COLUMNS = ["shape", "n", "Q", "demand_model", "seed", "algorithm", "eps",
           "cost", "reference", "ref_value", "ratio", "states", "wall_ms",
           "error"]

ALGORITHMS = ("exact", "itp", "bicriteria", "qptas")


def solve(algo: str, inst, eps: Fraction, params: DPParams | None = None,
          max_tokens: int = 14, stats: dict | None = None):
    """``inst`` solved by ``algo``; ``params``, if given, replaces qptas's
    ``DPParams.defaults(inst, eps)``, and the DP solvers fill ``stats``."""
    if algo == "exact":
        return solve_exact(inst, max_tokens)
    if algo == "itp":
        return itp_solve(inst)
    if algo == "bicriteria":
        return solve_bicriteria(inst, eps, stats=stats).solution
    if algo == "qptas":
        return solve_structured(inst, eps,
                                params or DPParams.defaults(inst, eps),
                                stats=stats)
    raise ValueError(f"unknown algorithm {algo!r}")


def _attempt(fn, *args, **kwargs):
    """``(result, ms)`` of one call, or ``(error, None)`` if a solver fails."""
    start = time.perf_counter()
    try:
        result = fn(*args, **kwargs)
    except (OracleSizeError, ResourceLimitError,
            NoStructuredSolutionError) as exc:
        return exc, None
    return result, (time.perf_counter() - start) * 1000


def load_config(text: str) -> dict:
    """Parse and check a suite config; every error is a ``ValueError`` (or a
    ``json.JSONDecodeError``) raised before anything is solved."""
    config = json.loads(text)
    if not isinstance(config, dict):
        raise ValueError(f"suite config must be an object, got {config!r}")
    _known_keys(config, ("instances", "algorithms", "eps"), "suite config")
    for key in ("instances", "algorithms"):
        if not isinstance(config.get(key), list) or not config[key]:
            raise ValueError(f"suite config needs {key!r} as a non-empty list")
    for algo in config["algorithms"]:
        if algo not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {algo!r}")
    if len(set(config["algorithms"])) < len(config["algorithms"]):
        raise ValueError(f"repeated algorithm in {config['algorithms']!r}")
    seen = set()
    for spec in config["instances"]:
        try:
            *args, seeds = _spec_values(spec)
        except KeyError as exc:
            raise ValueError(f"instance spec {spec!r} missing {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ValueError(f"bad instance spec {spec!r}: {exc}") from None
        for seed in seeds:
            key = (*args, seed)
            if key in seen:
                raise ValueError(
                    "repeated instance (shape, n, Q, demand_model, seed) "
                    f"{key!r}")
            seen.add(key)
    _suite_eps(config)
    return config


def _integer(value) -> int:
    """``int(value)``, refusing a bool, a string and a float that is not
    integral."""
    if isinstance(value, (bool, str)) or (
            isinstance(value, float) and value % 1):
        raise ValueError(f"not an integer: {value!r}")
    return int(value)


def _known_keys(obj: dict, keys: tuple, what: str) -> None:
    """Refuse a key outside ``keys``, which would be ignored silently."""
    for key in obj:
        if key not in keys:
            raise ValueError(f"unknown key {key!r} in {what}")


def _spec_values(spec: dict) -> tuple:
    """The checked shape, n, Q, demand model and seeds of a spec."""
    args = (spec["shape"], _integer(spec["n"]), _integer(spec["Q"]),
            spec.get("demand_model", "unit"))
    check_args(*args)
    _known_keys(spec, ("shape", "n", "Q", "demand_model", "seeds"),
                "instance spec")
    seeds = spec.get("seeds", [0])
    if not isinstance(seeds, list) or not seeds:
        raise ValueError(f"seeds must be a non-empty list, got {seeds!r}")
    return args + ([_integer(seed) for seed in seeds],)


def positive_fraction(value) -> Fraction | None:
    """``value`` as an exact ``Fraction`` if it spells a positive number
    (``0.1`` is 1/10), else None."""
    try:
        value = as_fraction(value)
    except (ValueError, ZeroDivisionError):
        return None
    return value if value > 0 else None


def _suite_eps(config: dict) -> Fraction:
    """The suite's ``eps`` (default 0.5) as an exact positive ``Fraction``."""
    eps = config.get("eps", 0.5)
    value = positive_fraction(eps)
    if value is None:
        raise ValueError(f"eps must be a positive number, got {eps!r}")
    return value


def run_suite(config: dict, timing: bool = False) -> str:
    eps = _suite_eps(config)
    rows = []
    for spec in config["instances"]:
        shape, n, q, model, seeds = _spec_values(spec)
        for seed in seeds:
            inst = generate(shape, n, q, model, seed)
            key = dict(shape=shape, n=n, Q=q, demand_model=model, seed=seed,
                       eps=float(eps))
            rows.extend(_instance_rows(inst, key, config["algorithms"], eps,
                                       timing))
    rows.sort(key=lambda r: (r["shape"], r["n"], r["Q"], r["demand_model"],
                             r["seed"], r["algorithm"]))
    rows.extend(_summaries(rows))
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return out.getvalue()


def _instance_rows(inst, key, algorithms, eps, timing) -> list[dict]:
    """One row per algorithm, every one against the instance's single
    oracle solve (module docstring)."""
    oracle = _attempt(solve, "exact", inst, eps)
    opt = oracle[0]
    if isinstance(opt, OracleSizeError):
        reference, ref_value = "lower_bound", flow_lower_bound(inst)
    else:
        reference, ref_value = "oracle", opt.total_cost
    rows = []
    for algo in algorithms:
        stats: dict = {}
        sol, ms = (oracle if algo == "exact"
                   else _attempt(solve, algo, inst, eps, stats=stats))
        row = {**dict.fromkeys(COLUMNS, ""), **key, "algorithm": algo}
        rows.append(row)
        if isinstance(sol, Exception):
            row["error"] = f"{type(sol).__name__}: {sol}"
            continue
        if timing:
            row["wall_ms"] = f"{ms:.1f}"
        rep = check_feasible(inst, sol)
        cost = rep.recomputed_cost
        row.update(cost=cost, reference=reference, ref_value=ref_value,
                   ratio=str(Fraction(cost) / ref_value) if ref_value else "")
        if "states" in stats:
            row["states"] = stats["states"]
        if not rep.ok:
            row["error"] = "infeasible solution"
    return rows


def _summaries(rows) -> list[dict]:
    out = []
    for algo in sorted({r["algorithm"] for r in rows}):
        ratios = [Fraction(r["ratio"]) for r in rows
                  if r["algorithm"] == algo and r["ratio"] and not r["error"]]
        mean = sum(ratios) / len(ratios) if ratios else ""
        out.append({**dict.fromkeys(COLUMNS, ""), "shape": "summary",
                    "algorithm": algo, "ratio": str(mean)})
    return out
