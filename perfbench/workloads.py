"""The benchmark's workloads: seeded inputs plus the timed calls made on them.

``build(name, seed)`` generates every input of a workload from the seed and
returns its items. An item is one timed call into ``treecvrp``; its check runs
after the timer stops. Items of one group share a context dict within a pass,
so a later item can take an earlier item's output (the ITP solution that
``check_feasible`` then verifies, the saved text that ``load_instance``
parses). Calls look functions up on their module at call time, so the tracer's
rebinding reaches them.

Why each workload exists is recorded in BENCHMARK.json and METRICS.md.
"""

from __future__ import annotations

import importlib
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from treecvrp import (baselines, bench, dp, exact, height, instance,
                      structure, verify)

from check import (bucket_sizes, check_solution, check_suite_csv,
                   lower_bound, require, root_distances)

# The package re-exports the function ``generate`` under the module's name.
generate = importlib.import_module("treecvrp.generate")

EPS = 0.5

# Exceptions an item may raise on valid input; each counts as a failed item.
ITEM_ERRORS = (dp.ResourceLimitError, dp.NoStructuredSolutionError,
               exact.OracleSizeError, exact.InfeasibleError)

# ``transform`` may raise this by design; the caller resamples. Not a failure.
RESAMPLE = "resample"


@dataclass(frozen=True)
class Item:
    group: int
    key: str
    call: Callable[[dict], object]
    # Returns cost / flow lower bound when the output is a solution, else
    # None; raises CheckFailed on a wrong output.
    check: Callable[[object, dict], Fraction | None]


@dataclass(frozen=True)
class Workload:
    items: list[Item]
    inputs: list  # plain data the items were built from, for fingerprinting


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}/{seed}")


def _fields(inst) -> tuple:
    return (inst.parent, inst.weight, inst.demand, inst.capacity)


# ---------------------------------------------------------------------------
# dp-bushy: generator trees whose depot has several children


BUSHY_SHAPES = ("star", "parallel-paths", "binary", "random")
BUSHY_N, BUSHY_Q, BUSHY_TOKENS, BUSHY_INSTANCES = 8, 5, 17, 50


def bushy_instances(seed: int) -> list:
    """Uniform-demand generator trees, all with exactly BUSHY_TOKENS tokens.

    Fixing the token count keeps the work per instance comparable across
    seeds; the generator seed is stepped until the count matches.
    """
    rng = _rng("dp-bushy", seed)
    out = []
    for i in range(BUSHY_INSTANCES):
        shape = BUSHY_SHAPES[i % len(BUSHY_SHAPES)]
        s = rng.randrange(2 ** 31)
        while True:
            inst = generate.generate(shape, BUSHY_N, BUSHY_Q, "uniform", s)
            if inst.total_demand == BUSHY_TOKENS:
                break
            s += 1
        out.append(inst)
    return out


def _dp_items(group: int, inst) -> list[Item]:
    def structured(ctx):
        return dp.solve_structured(inst, EPS, dp.DPParams.defaults(inst, EPS),
                                   stats={})

    def bicriteria(ctx):
        return dp.solve_bicriteria(inst, EPS, stats={})

    def check_structured(sol, ctx):
        return check_solution(inst, sol)

    def check_bicriteria(res, ctx):
        require(res.grid_exact, "threshold grid is not 1..Q")
        ratio = check_solution(inst, res.solution)
        require(res.dp_cost == res.solution.total_cost,
                f"dp cost {res.dp_cost} != solution cost")
        # Both solvers are exact here: default gamma exceeds the tour count
        # and the bicriteria grid is the identity.
        opt = ctx["structured"].total_cost
        require(res.solution.total_cost == opt,
                f"bicriteria cost {res.solution.total_cost} != structured "
                f"{opt}")
        return ratio

    return [Item(group, "structured", structured, check_structured),
            Item(group, "bicriteria", bicriteria, check_bicriteria)]


def build_dp_bushy(seed: int) -> Workload:
    insts = bushy_instances(seed)
    items = [it for g, inst in enumerate(insts) for it in _dp_items(g, inst)]
    return Workload(items, [_fields(i) for i in insts])


# ---------------------------------------------------------------------------
# dp-hub: the bin-packing gadget behind the NP-hardness of tree CVRP


HUB_Q = 5
# (children k, total tokens): four k=4 gadgets to one k=3, so that the
# padded k=4 solves (the slowest items) number 20 and item_ms_p90 falls in
# their middle rather than on their fastest few
HUB_SHAPES = ((4, 13),) * 4 + ((3, 11),)
HUB_INSTANCES = 25


def hub_gadget(k: int, capacity: int, tokens: int, turn: int,
               rng: random.Random):
    """Depot -> heavy edge -> hub with k leaf children.

    Leaf demands lie in (Q/2, Q) and sum to ``tokens``, so no two whole
    leaves share a tour and the flow bound is not tight. The DP's work
    depends on the order of the leaf demands (a larger demand last costs
    about twice as much), so they are sorted and rotated by ``turn``: the
    seed draws only the edge weights and leaves that work unchanged.
    """
    lo, hi = capacity // 2 + 1, capacity - 1
    while True:
        sizes = sorted(rng.randint(lo, hi) for _ in range(k))
        if sum(sizes) == tokens:
            break
    turn %= k
    sizes = sizes[turn:] + sizes[:turn]
    parent = (-1, 0) + (1,) * k
    weight = (0, rng.randint(10, 20)) + tuple(
        rng.randint(1, 9) for _ in range(k))
    return instance.TreeInstance(parent, weight, (0, 0) + tuple(sizes),
                                 capacity)


def hub_instances(seed: int) -> list:
    rng = _rng("dp-hub", seed)
    shapes = [HUB_SHAPES[i % len(HUB_SHAPES)] for i in range(HUB_INSTANCES)]
    return [hub_gadget(k, HUB_Q, tokens, i, rng)
            for i, (k, tokens) in enumerate(shapes)]


def _hub_items(group: int, inst) -> list[Item]:
    schedule = structure.thresholds(inst.capacity, EPS)
    tight = dp.DPParams(gamma=1, groups=1, schedule=schedule)
    padded = dp.DPParams(gamma=1, groups=1, schedule=schedule, pad_cap=1)

    def solve(params):
        return lambda ctx: dp.solve_structured(inst, EPS, params, stats={})

    def check_default(sol, ctx):
        return check_solution(inst, sol)

    def check_tight(sol, ctx):
        ratio = check_solution(inst, sol)
        opt = ctx["default"].total_cost
        require(sol.total_cost >= opt,
                f"tight cost {sol.total_cost} below exact {opt}")
        return ratio

    def check_padded(sol, ctx):
        ratio = check_solution(inst, sol)
        lo, hi = ctx["default"].total_cost, ctx["tight"].total_cost
        require(lo <= sol.total_cost <= hi,
                f"padded cost {sol.total_cost} outside [{lo}, {hi}]")
        return ratio

    def check_bicriteria(res, ctx):
        require(res.grid_exact, "threshold grid is not 1..Q")
        ratio = check_solution(inst, res.solution)
        opt = ctx["default"].total_cost
        require(res.solution.total_cost == opt,
                f"bicriteria cost {res.solution.total_cost} != exact {opt}")
        return ratio

    return [
        Item(group, "default",
             lambda ctx: dp.solve_structured(
                 inst, EPS, dp.DPParams.defaults(inst, EPS), stats={}),
             check_default),
        Item(group, "tight", solve(tight), check_tight),
        Item(group, "padded", solve(padded), check_padded),
        Item(group, "bicriteria",
             lambda ctx: dp.solve_bicriteria(inst, EPS, stats={}),
             check_bicriteria),
    ]


def build_dp_hub(seed: int) -> Workload:
    insts = hub_instances(seed)
    items = [it for g, inst in enumerate(insts) for it in _hub_items(g, inst)]
    return Workload(items, [_fields(i) for i in insts])


# ---------------------------------------------------------------------------
# substrate-large: no DP; validation, costing, I/O and height reduction


SUBSTRATE_Q = 10
# (shape, n, demand model, runs transform + profile_complexity)
SUBSTRATE_TREES = (
    ("path", 1500, "uniform", False),
    ("path", 2000, "unit", False),
    ("random", 16000, "heavy", False),
    ("binary", 16000, "uniform", False),
    ("star", 16000, "uniform", False),
    ("random", 400, "uniform", True),
    ("binary", 400, "uniform", True),
    ("path", 300, "uniform", True),
    ("star", 300, "uniform", True),
    # more mid-size trees: their items fill the middle of the item-time
    # distribution, so item_ms_p50 does not jump between distant items
    ("random", 600, "uniform", False),
    ("binary", 600, "uniform", False),
    ("path", 600, "uniform", False),
    ("star", 600, "uniform", False),
)


def substrate_instances(seed: int) -> list:
    rng = _rng("substrate-large", seed)
    return [generate.generate(shape, n, SUBSTRATE_Q, model,
                              rng.randrange(2 ** 31))
            for shape, n, model, _ in SUBSTRATE_TREES]


def _substrate_items(group: int, inst, mid: bool,
                     transform_seed: int) -> list[Item]:
    lb = lower_bound(inst.parent, inst.weight, inst.demand, inst.capacity)
    params = structure.TransformParams.defaults(inst.n, EPS)

    def check_normalize(out, ctx):
        residual, peeled = out
        q = inst.capacity
        require(residual.demand == tuple(d % q for d in inst.demand),
                "residual demand is not d mod Q")
        require(all(len(t.pickups) == 1 and t.load == q
                    for t in peeled.tours), "peeled tour is not one full load")
        require(len(peeled.tours) == sum(d // q for d in inst.demand),
                "wrong number of peeled tours")
        return None

    def check_bound(value, ctx):
        require(value == lb, f"flow bound {value} != {lb}")
        return None

    def check_feasible_report(rep, ctx):
        require(rep.ok, f"ITP solution reported infeasible: "
                f"{rep.violations[:3]}")
        require(rep.recomputed_cost == ctx["itp_solve"].total_cost,
                "check_feasible recomputed a different cost")
        return None

    def check_saved_instance(text, ctx):
        lines = text.splitlines()
        require(lines[:3] == [instance.HEADER, f"n {inst.n}",
                              f"Q {inst.capacity}"], "bad instance header")
        require(len(lines) == 3 + inst.n - 1 + sum(map(bool, inst.demand)),
                "wrong number of instance lines")
        return None

    def check_loaded_instance(loaded, ctx):
        require(_fields(loaded) == _fields(inst), "instance round trip lost data")
        return None

    def check_saved_solution(text, ctx):
        lines = text.splitlines()
        require(len(lines) == len(ctx["itp_solve"].tours) + 1,
                "wrong number of solution lines")
        require(lines[-1] == f"cost {ctx['itp_solve'].total_cost}",
                "bad cost line")
        return None

    def check_loaded_solution(sol, ctx):
        itp = ctx["itp_solve"]
        require(sol.canonical() == itp.canonical()
                and sol.total_cost == itp.total_cost,
                "solution round trip lost data")
        return None

    def check_reduced(rt, ctx):
        red = rt.tree
        require(red.demand == inst.demand and red.capacity == inst.capacity,
                "reduction changed demand or capacity")
        old = root_distances(inst.parent, inst.weight)
        new = root_distances(red.parent, red.weight)
        require(all(b <= a for a, b in zip(old, new)),
                "reduction increased a root distance")
        return None

    def check_reduced_itp(sol, ctx):
        return check_solution(ctx["build_reduced_tree"].tree, sol)

    def check_transform(out, ctx):
        if out == RESAMPLE:
            return None
        inst2, sol2, report = out
        require(all(b >= a for a, b in zip(inst.demand, inst2.demand)),
                "transform removed demand")
        require(report.cost_after == sol2.total_cost, "report cost mismatch")
        return check_solution(inst2, sol2)

    def check_complexity(rep, ctx):
        want = bucket_sizes(inst, ctx["itp_solve"], EPS)
        require(rep.distinct_sizes == want,
                "distinct sizes per (node, bucket) differ")
        return None

    def transform(ctx):
        try:
            return structure.transform(inst, ctx["itp_solve"], EPS, params,
                                       transform_seed)
        except structure.TransformInfeasible:
            return RESAMPLE

    items = [
        ("normalize_demands",
         lambda ctx: instance.normalize_demands(inst), check_normalize),
        ("flow_lower_bound",
         lambda ctx: baselines.flow_lower_bound(inst), check_bound),
        ("itp_solve", lambda ctx: baselines.itp_solve(inst),
         lambda sol, ctx: check_solution(inst, sol)),
        ("check_feasible",
         lambda ctx: verify.check_feasible(inst, ctx["itp_solve"]),
         check_feasible_report),
        ("save_instance", lambda ctx: instance.save_instance(inst),
         check_saved_instance),
        ("load_instance",
         lambda ctx: instance.load_instance(ctx["save_instance"]),
         check_loaded_instance),
        ("save_solution",
         lambda ctx: instance.save_solution(ctx["itp_solve"]),
         check_saved_solution),
        ("load_solution",
         lambda ctx: instance.load_solution(ctx["save_solution"]),
         check_loaded_solution),
        ("build_reduced_tree",
         lambda ctx: height.build_reduced_tree(inst, EPS), check_reduced),
        ("itp_reduced",
         lambda ctx: baselines.itp_solve(ctx["build_reduced_tree"].tree),
         check_reduced_itp),
        ("lift_solution",
         lambda ctx: height.lift_solution(ctx["build_reduced_tree"],
                                          ctx["itp_reduced"]),
         lambda sol, ctx: check_solution(inst, sol)),
    ]
    if mid:
        items += [
            ("transform", transform, check_transform),
            ("profile_complexity",
             lambda ctx: structure.profile_complexity(
                 inst, ctx["itp_solve"],
                 structure.thresholds(inst.capacity, EPS), params),
             check_complexity),
        ]
    return [Item(group, key, call, check) for key, call, check in items]


def build_substrate_large(seed: int) -> Workload:
    insts = substrate_instances(seed)
    rng = _rng("substrate-large/transform", seed)
    items = []
    for g, (inst, spec) in enumerate(zip(insts, SUBSTRATE_TREES)):
        items += _substrate_items(g, inst, spec[3], rng.randrange(2 ** 31))
    return Workload(items, [_fields(i) for i in insts])


# ---------------------------------------------------------------------------
# bench-suite: the ``treecvrp bench`` path, one oracle-scale instance per call


SUITE_N, SUITE_Q, SUITE_INSTANCES = 10, 3, 100


def suite_specs(seed: int) -> list[dict]:
    rng = _rng("bench-suite", seed)
    return [{"shape": generate.SHAPES[i % len(generate.SHAPES)],
             "n": SUITE_N, "Q": SUITE_Q, "demand_model": "unit",
             "seeds": [rng.randrange(2 ** 31)]}
            for i in range(SUITE_INSTANCES)]


def build_bench_suite(seed: int) -> Workload:
    items = []
    specs = suite_specs(seed)
    for g, spec in enumerate(specs):
        inst = generate.generate(spec["shape"], spec["n"], spec["Q"],
                                 spec["demand_model"], spec["seeds"][0])
        config = {"instances": [spec], "algorithms": list(bench.ALGORITHMS),
                  "eps": EPS}

        def check(text, ctx, inst=inst, spec=spec):
            ratios = check_suite_csv(text, inst, spec, bench.ALGORITHMS)
            require(bench.CSV_VERSION == 1, "CSV contract version changed")
            return sum(ratios) / len(ratios)

        items.append(Item(g, "run_suite",
                          lambda ctx, config=config: bench.run_suite(config),
                          check))
    return Workload(items, specs)


WORKLOADS = {
    "dp-bushy": build_dp_bushy,
    "dp-hub": build_dp_hub,
    "substrate-large": build_substrate_large,
    "bench-suite": build_bench_suite,
}


def build(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)
