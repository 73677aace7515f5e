"""Benchmark harness: JSON suite config in, deterministic CSV out.

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
from .verify import _ratio_against

CSV_VERSION = 1
COLUMNS = ["shape", "n", "Q", "demand_model", "seed", "algorithm", "eps",
           "cost", "reference", "ref_value", "ratio", "states", "wall_ms",
           "error"]

ALGORITHMS = ("exact", "itp", "bicriteria", "qptas")


def _solve(algo: str, inst, eps: Fraction, stats: dict):
    if algo == "itp":
        return itp_solve(inst)
    if algo == "bicriteria":
        return solve_bicriteria(inst, eps, stats=stats).solution
    if algo == "qptas":
        return solve_structured(inst, eps, DPParams.defaults(inst, eps),
                                stats=stats)
    raise ValueError(f"unknown algorithm {algo!r}")


def _attempt(fn, *args):
    """``(result, ms)`` of one call, or ``(error, None)`` if a solver fails."""
    start = time.perf_counter()
    try:
        result = fn(*args)
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


def _spec_values(spec: dict) -> tuple:
    """The checked shape, n, Q, demand model and seeds of a spec."""
    args = (spec["shape"], _integer(spec["n"]), _integer(spec["Q"]),
            spec.get("demand_model", "unit"))
    check_args(*args)
    seeds = spec.get("seeds", [0])
    if not isinstance(seeds, list) or not seeds:
        raise ValueError(f"seeds must be a non-empty list, got {seeds!r}")
    return args + ([_integer(seed) for seed in seeds],)


def positive_fraction(value) -> Fraction | None:
    """``value`` as an exact ``Fraction`` if it spells a positive number
    (``0.1`` is 1/10), else None."""
    try:
        value = Fraction(str(value))
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
    """One row per algorithm, every one against a single oracle solve.

    The optimum is the ``exact`` row's solution and every row's reference;
    past the oracle's size limits the flow lower bound is the reference.
    """
    oracle = _attempt(solve_exact, inst)
    opt = oracle[0]
    if isinstance(opt, OracleSizeError):
        reference = ("lower_bound", flow_lower_bound(inst), True)
    else:
        reference = ("oracle", opt.total_cost, False)
    rows = []
    for algo in algorithms:
        stats: dict = {}
        sol, ms = (oracle if algo == "exact"
                   else _attempt(_solve, algo, inst, eps, stats))
        row = {**dict.fromkeys(COLUMNS, ""), **key, "algorithm": algo}
        rows.append(row)
        if isinstance(sol, Exception):
            row["error"] = f"{type(sol).__name__}: {sol}"
            continue
        if timing:
            row["wall_ms"] = f"{ms:.1f}"
        rep = _ratio_against(inst, sol, *reference)
        row["cost"] = rep.cost
        row["reference"] = rep.reference
        row["ref_value"] = rep.reference_value
        row["ratio"] = str(rep.ratio) if rep.ratio is not None else ""
        if "states" in stats:
            row["states"] = stats["states"]
        if not rep.feasible:
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
