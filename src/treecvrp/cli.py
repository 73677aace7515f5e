"""Command-line front end.

Exit codes: 0 success, 1 verification/transform failure, 2 usage error
(click's default, or an unreadable input file), 3 resource limit exceeded.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from fractions import Fraction

import click

from . import bench as bench_mod
from .baselines import flow_lower_bound
from .dp import DPParams, NoStructuredSolutionError, ResourceLimitError
from .exact import OracleSizeError
from .generate import DEMAND_MODELS, SHAPES, generate
from .height import build_reduced_tree, lift_solution
from .instance import (InstanceError, load_instance, load_solution,
                       save_instance, save_solution)
from .structure import TransformInfeasible, TransformParams, transform
from .verify import check_feasible

EXIT_FAILURE = 1
EXIT_RESOURCE = 3


def _positive(ctx, param, value: str) -> Fraction:
    parsed = bench_mod.positive_fraction(value)
    if parsed is None:
        raise click.BadParameter(f"must be positive, got {value}")
    return parsed


# Parsed to an exact Fraction, so that "0.1" is 1/10 and not the nearest float,
# by the rule that reads a bench suite's eps.
eps_option = click.option("--eps", default="0.5", metavar="FRACTION",
                          callback=_positive)


def _read(path: str) -> str:
    """An input file's text (``-`` is stdin); if unreadable, a usage error."""
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise click.UsageError(f"cannot read {path}: {exc}")


def _given(**flags) -> dict:
    """The flags that were given, as field overrides for a params class."""
    return {k: v for k, v in flags.items() if v is not None}


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


@click.group()
def main():
    """Capacitated vehicle routing on rooted trees."""


@main.command()
@click.option("--shape", type=click.Choice(SHAPES), default="random")
@click.option("-n", "n", type=click.IntRange(min=2), required=True)
@click.option("-q", "--capacity", type=click.IntRange(min=1), required=True)
@click.option("--demand-model", type=click.Choice(DEMAND_MODELS),
              default="unit")
@click.option("--seed", type=int, default=0)
@click.option("-o", "--output", default=None)
def gen(shape, n, capacity, demand_model, seed, output):
    """Generate a deterministic instance."""
    inst = generate(shape, n, capacity, demand_model, seed)
    _write(output, save_instance(inst))


@main.command()
@click.argument("instance")
@click.option("--algo", type=click.Choice(bench_mod.ALGORITHMS),
              default="exact")
@eps_option
@click.option("--gamma", type=click.IntRange(min=0), default=None)
@click.option("--groups", "-g", type=click.IntRange(min=0), default=None)
@click.option("--pad-cap", type=click.IntRange(min=0), default=0)
@click.option("--reduce-height", is_flag=True,
              help="Solve on the height-reduced tree and lift the result.")
@click.option("--max-tokens", type=click.IntRange(min=0), default=14,
              help="Exact-oracle token limit.")
@click.option("-o", "--output", default=None)
def solve(instance, algo, eps, gamma, groups, pad_cap, reduce_height,
          max_tokens, output):
    """Solve an instance and emit the solution."""
    inst = _load_inst(instance)
    target = inst
    reduced = None
    if reduce_height:
        reduced = build_reduced_tree(inst, eps)
        target = reduced.tree
    # qptas's parameters, built only when a flag overrides a default: the
    # other algorithms ignore them, and a tiny eps makes the defaults raise
    params = None
    if (gamma, groups, pad_cap) != (None, None, 0):
        params = dataclasses.replace(
            DPParams.defaults(target, eps, pad_cap=pad_cap),
            **_given(gamma=gamma, groups=groups))
    try:
        sol = bench_mod.solve(algo, target, eps, params, max_tokens)
    except (OracleSizeError, ResourceLimitError) as exc:
        click.echo(f"resource limit: {exc}", err=True)
        sys.exit(EXIT_RESOURCE)
    except NoStructuredSolutionError as exc:
        click.echo(f"no structured solution: {exc}", err=True)
        sys.exit(EXIT_FAILURE)
    if reduced is not None:
        sol = lift_solution(reduced, sol)
    _write(output, save_solution(sol))


@main.command()
@click.argument("instance")
@click.argument("solution")
@click.option("--json", "as_json", is_flag=True)
def verify(instance, solution, as_json):
    """Check a solution; exit 1 on any violation."""
    inst = _load_inst(instance)
    sol = _load_sol(solution)
    rep = check_feasible(inst, sol)
    if as_json:
        click.echo(json.dumps(dataclasses.asdict(rep), default=str))
    else:
        for v in rep.violations:
            click.echo(v)
        click.echo("ok" if rep.ok else f"{len(rep.violations)} violation(s)")
    if not rep.ok:
        sys.exit(EXIT_FAILURE)


@main.command()
@click.argument("instance")
def bound(instance):
    """Print the flow lower bound."""
    click.echo(str(flow_lower_bound(_load_inst(instance))))


@main.command()
@click.argument("instance")
@eps_option
@click.option("-o", "--output", default=None)
def reduce(instance, eps, output):
    """Emit the height-reduced instance."""
    rt = build_reduced_tree(_load_inst(instance), eps)
    _write(output, save_instance(rt.tree))


@main.command("transform")
@click.argument("instance")
@click.argument("solution")
@eps_option
@click.option("--seed", type=int, default=0)
@click.option("--gamma", type=click.IntRange(min=0), default=None)
@click.option("--groups", "-g", type=click.IntRange(min=1), default=None)
@click.option("--instance-out", default=None)
@click.option("--solution-out", default=None)
def transform_cmd(instance, solution, eps, seed, gamma, groups, instance_out,
                  solution_out):
    """Apply the structure transform to a feasible solution; print a JSON
    report."""
    inst = _load_inst(instance)
    sol = _load_sol(solution)
    rep = check_feasible(inst, sol)
    if not rep.ok:
        raise click.UsageError(f"infeasible solution: {rep.violations[0]}")
    params = dataclasses.replace(TransformParams.defaults(inst.n, eps),
                                 **_given(gamma=gamma, groups=groups))
    try:
        inst2, sol2, report = transform(inst, sol, eps, params, seed)
    except TransformInfeasible as exc:
        click.echo(json.dumps({"error": str(exc), "node": exc.node,
                               "bucket": exc.bucket}))
        sys.exit(EXIT_FAILURE)
    if instance_out:
        _write(instance_out, save_instance(inst2))
    if solution_out:
        _write(solution_out, save_solution(sol2))
    payload = {
        "cost_before": report.cost_before,
        "cost_after": report.cost_after,
        "sampled_cost": report.sampled_cost,
        "shortcut_savings": report.shortcut_savings,
        "pad_tokens": report.pad_tokens,
        "sampled_ids": report.sampled_ids,
        "big_buckets": report.big_buckets,
    }
    # A fractional weight prints as "p/q", its spelling in the file format.
    click.echo(json.dumps(payload, default=str))


@main.command("bench")
@click.argument("config")
@click.option("--timing", is_flag=True,
              help="Fill the wall_ms column (breaks byte-determinism).")
@click.option("-o", "--output", default=None)
def bench_cmd(config, timing, output):
    """Run a benchmark suite config and emit CSV."""
    try:
        cfg = bench_mod.load_config(_read(config))
    except (ValueError, json.JSONDecodeError) as exc:
        raise click.UsageError(f"bad suite config: {exc}")
    _write(output, bench_mod.run_suite(cfg, timing=timing))


def _load_inst(path: str):
    try:
        return load_instance(_read(path))
    except InstanceError as exc:
        raise click.UsageError(f"bad instance: {exc}")


def _load_sol(path: str):
    try:
        return load_solution(_read(path))
    except InstanceError as exc:
        raise click.UsageError(f"bad solution: {exc}")


if __name__ == "__main__":
    main()
