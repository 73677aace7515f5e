"""treecvrp benchmark runner.

    python3 perfbench/run.py --workload dp-bushy --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a source checkout; ``treecvrp`` is imported from
``src/``. One process runs one workload in a closed loop with one client:
each item (one timed call into ``treecvrp``) starts after the previous one
returned and was checked. ``--workload all`` runs every workload in its own
fresh process, one after the other.

Set-up (building every input from ``--seed``) is repeated for
``SETUP_SECONDS`` before the first pass and for ``SETUP_BETWEEN_SECONDS``
after each pass, at least once each time; ``setup_s`` is the median of all
repetitions, and every repetition must give identical inputs. Whole passes
over the items run until the next pass would end after ``--seconds``.

Times are CPU seconds of this process, so time the scheduler gives to other
processes does not count, scaled to a reference speed. A shared VM runs the
same Python code at two speeds some 1.7x apart and switches between them
every fraction of a second to every few seconds. So a fixed pure-Python loop
(``calibrate``) is timed before every item and set-up repetition and once
after the last, and each item's time is multiplied by ``CALIB_REF_S`` over
the mean of the loop times just before and just after it. The loop slows
down with the machine, so the scaled times move much less than the raw
ones, while a change in ``treecvrp`` moves them in full: they are the
seconds the work would take on a machine that runs the loop in
``CALIB_REF_S``. Each item's time is its median scaled time over the passes.

With ``--trace 0`` the last stdout line is a JSON object holding the
end-to-end metrics. With ``--trace 1`` plain and traced passes alternate, and
it holds the per-module metrics of the last traced pass plus the tracing
overhead; that pass's spans are written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_SECONDS, SETUP_BETWEEN_SECONDS, MAX_SETUPS = 1.0, 0.2, 1000
# ``calibrate()`` time in the slower of the two speeds of a shared 2-vCPU
# Xeon VM.
CALIB_REF_S = 0.003
clock = time.process_time


def _import_treecvrp():
    if not (SRC / "treecvrp" / "__init__.py").is_file():
        sys.exit(f"perfbench: no treecvrp sources under {SRC}; run from the "
                 "root of a treecvrp checkout")
    sys.path.insert(0, str(SRC))


def calibrate() -> float:
    """CPU time of a fixed loop of dict, tuple, sort and Fraction work."""
    start = clock()
    d: dict = {}
    for i in range(4000):
        k = (i % 97, i % 13)
        d[k] = d.get(k, 0) + i * 3 // 7
    values = tuple(v for _, v in sorted(d.items(), key=lambda kv: kv[1]))
    total = sum(Fraction(v, 7) for v in values[:50])
    if sum(values) + len(frozenset(values)) + total < 0:
        raise AssertionError("calibration loop went wrong")
    return clock() - start


def at_ref_speed(times, calib) -> list[float]:
    """``times[i]`` at reference speed, given the loop times ``calib[i]``
    just before and ``calib[i + 1]`` just after it."""
    return [t * 2 * CALIB_REF_S / (calib[i] + calib[i + 1])
            for i, t in enumerate(times)]


def fingerprint(inputs) -> str:
    return hashlib.sha256(repr(inputs).encode()).hexdigest()


class Setup:
    """Repeated builds of one workload's inputs from one seed."""

    def __init__(self, name: str, seed: int):
        self.name, self.seed = name, seed
        self.times: list[float] = []  # at reference speed
        self.prints: set[str] = set()

    def repeat(self, seconds: float):
        """Build at least once and until ``seconds`` passed; return the last."""
        from workloads import build

        deadline = time.perf_counter() + seconds
        times, calib = [], []
        for _ in range(MAX_SETUPS):
            gc.collect()
            calib.append(calibrate())
            start = clock()
            work = build(self.name, self.seed)
            times.append(clock() - start)
            self.prints.add(fingerprint(work.inputs))
            if time.perf_counter() >= deadline:
                break
        calib.append(calibrate())
        self.times += at_ref_speed(times, calib)
        return work


class PassResult:
    def __init__(self):
        self.times: list[float] = []  # CPU seconds, not scaled
        self.calib: list[float] = []  # one more than times once done
        self.ratios: list = []
        self.failed: list[str] = []
        self.wrong: list[str] = []

    @property
    def scaled(self) -> list[float]:
        return at_ref_speed(self.times, self.calib)

    @property
    def wall(self) -> float:
        return sum(self.scaled)


def run_pass(items, tracer=None) -> PassResult:
    from check import CheckFailed
    from workloads import ITEM_ERRORS

    res = PassResult()
    ctxs: dict[int, dict] = {}
    gc.collect()
    for i, item in enumerate(items):
        ctx = ctxs.setdefault(item.group, {})
        label = f"item {i} ({item.key}, group {item.group})"
        res.calib.append(calibrate())
        span = None
        if tracer is not None:
            tracer.item = i
            span = tracer.begin("item")
        start = clock()
        try:
            out = item.call(ctx)
        except ITEM_ERRORS as exc:
            res.times.append(clock() - start)
            res.failed.append(f"{label}: {type(exc).__name__}: {exc}")
            continue
        except Exception as exc:  # a defect: count it as a wrong output
            res.times.append(clock() - start)
            if not res.wrong:
                traceback.print_exc()
            res.wrong.append(f"{label}: {type(exc).__name__}: {exc}")
            continue
        finally:
            if span is not None:
                tracer.end(span)
        res.times.append(clock() - start)
        ctx[item.key] = out
        try:
            ratio = item.check(out, ctx)
        except CheckFailed as exc:
            res.wrong.append(f"{label}: {exc}")
            continue
        except Exception as exc:  # e.g. an earlier item's output is missing
            res.wrong.append(f"{label}: check raised {type(exc).__name__}: "
                             f"{exc}")
            continue
        if ratio is not None:
            res.ratios.append(ratio)
    res.calib.append(calibrate())
    return res


def measure(items, seconds: float, between, tracer=None):
    """Run passes until the next would end after ``seconds``.

    Without a tracer every pass is plain. With one, plain and traced passes
    alternate, starting plain, and at least one of each runs. ``between()``
    runs after each pass. Returns the plain and the traced passes.
    """
    plain, traced, durations = [], [], []
    start = time.perf_counter()
    while True:
        begun = time.perf_counter()
        if tracer is not None and len(traced) < len(plain):
            tracer.spans.clear()
            with tracer:
                traced.append(run_pass(items, tracer))
        else:
            plain.append(run_pass(items))
        between()
        durations.append(time.perf_counter() - begun)
        typical = statistics.median(durations)
        if tracer is not None and not traced:
            continue
        if time.perf_counter() - start + typical > seconds:
            return plain, traced


def item_times(passes) -> list[float]:
    """Each item's median scaled time over ``passes``."""
    return [statistics.median(ts) for ts in zip(*(p.scaled for p in passes))]


def quantile_ms(times, pct: int) -> float:
    return statistics.quantiles(times, n=100, method="inclusive")[pct - 1] * 1000


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=28)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _import_treecvrp()
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(list(WORKLOADS), args)
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from "
                 f"{', '.join(WORKLOADS)} or all")

    setup = Setup(args.workload, args.seed)
    work = setup.repeat(SETUP_SECONDS)
    tracer = setup_layers = None
    if args.trace:
        from tracer import Tracer, layer_metrics
        from workloads import build
        tracer = Tracer()
        with tracer:
            build(args.workload, args.seed)
        setup_layers = layer_metrics(tracer.spans)
        tracer.spans.clear()
    plain, traced = measure(work.items, args.seconds,
                            lambda: setup.repeat(SETUP_BETWEEN_SECONDS),
                            tracer)
    same_inputs = len(setup.prints) == 1

    passes = plain + traced
    attempted = sum(len(p.times) for p in passes)
    failed = sum(len(p.failed) + len(p.wrong) for p in passes)
    wrong = [msg for p in passes for msg in p.wrong]
    for msg in sorted({m for p in passes for m in p.failed + p.wrong}):
        print(f"FAILED {msg}", file=sys.stderr)
    if not same_inputs:
        print("FAILED set-up built different inputs from one seed",
              file=sys.stderr)
    correct = same_inputs and not wrong

    if args.trace:
        metrics = traced_metrics(plain, traced, tracer, args.workload)
        for key in ("generate.generate.s", "instance.TreeInstance.init_s"):
            metrics[f"setup.{key}"] = setup_layers[key]
    else:
        metrics = end_to_end(plain, statistics.median(setup.times))
        walls = " ".join(f"{p.wall:.3f}" for p in plain)
        print(f"{args.workload} seed {args.seed}: {len(work.items)} items, "
              f"{len(plain)} passes (walls {walls} s); item times are each "
              f"item's median pass, quantiles over {len(work.items)} items")
        for key, (value, unit) in metrics.items():
            print(f"  {key:<12} {value:.6g} {unit}")
        print(f"  {'failed_frac':<12} {failed / attempted:.6g} "
              f"({failed} of {attempted} items)")

    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


def end_to_end(passes, setup_s: float) -> dict:
    times = item_times(passes)
    ratios = [r for p in passes for r in p.ratios]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(times), "s"),
        "item_ms_p50": (statistics.median(times) * 1000, "ms"),
        "item_ms_p90": (quantile_ms(times, 90), "ms"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
        # no ratio at all only when every solution failed its check
        "cost_ratio": (float(sum(ratios) / len(ratios)) if ratios else 0.0,
                       "ratio"),
    }


def traced_metrics(plain, traced, tracer, workload: str) -> dict:
    from tracer import layer_metrics

    # spans hold only the last traced pass; counts are per pass
    metrics = layer_metrics(tracer.spans)
    plain_wall, traced_wall = sum(item_times(plain)), sum(item_times(traced))
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{workload}.jsonl")
    return metrics


def run_all(names, args) -> int:
    status = 0
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               name, "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status |= subprocess.run(cmd, check=False).returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
