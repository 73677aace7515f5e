"""Tests of the benchmark itself: checker, seeded inputs, tracer, runner.

    python3 -m pytest perfbench/tests -q
"""

import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from check import CheckFailed, check_solution, check_suite_csv  # noqa: E402
from tracer import ITEM, Tracer, layer_metrics, self_s  # noqa: E402
from treecvrp import bench, exact, instance, verify  # noqa: E402
from treecvrp.baselines import itp_solve  # noqa: E402
from treecvrp.instance import Solution, Tour  # noqa: E402


@pytest.fixture
def inst_and_sol():
    inst = workloads.generate.generate("random", 12, 4, "uniform", 3)
    return inst, itp_solve(inst)


def _move_token(sol):
    tours = list(sol.tours)
    first = dict(tours[0].pickups)
    v = next(iter(first))
    first[v] -= 1
    first[0] = first.get(0, 0) + 1  # the depot has no demand
    tours[0] = Tour.of(first)
    return Solution(tuple(tours), sol.total_cost)


def _overfill(sol):
    merged = dict(sol.tours[0].pickups)
    for v, c in sol.tours[1].pickups:
        merged[v] = merged.get(v, 0) + c
    return Solution((Tour.of(merged),) + sol.tours[2:], sol.total_cost)


def _wrong_cost(sol):
    return replace(sol, total_cost=sol.total_cost + 2)


@pytest.mark.parametrize("corrupt", [_move_token, _overfill, _wrong_cost])
def test_checker_rejects_corrupted_solution(inst_and_sol, corrupt):
    inst, sol = inst_and_sol
    assert check_solution(inst, sol) >= 1
    with pytest.raises(CheckFailed):
        check_solution(inst, corrupt(sol))


def test_checker_rejects_corrupted_suite_csv():
    (item,) = workloads.build_bench_suite(0).items[:1]
    spec = workloads.suite_specs(0)[0]
    inst = workloads.generate.generate(spec["shape"], spec["n"], spec["Q"],
                                       spec["demand_model"], spec["seeds"][0])
    text = item.call({})
    assert check_suite_csv(text, inst, spec, bench.ALGORITHMS)
    lines = text.splitlines()
    row = next(i for i, ln in enumerate(lines) if ",itp," in ln)
    bad_ratio = lines[:]
    bad_ratio[row] = bad_ratio[row].replace(",oracle,", ",lower_bound,")
    for bad in ("\n".join(bad_ratio) + "\n",
                text.replace("wall_ms,error", "wall_ms,err", 1)):
        with pytest.raises(CheckFailed):
            check_suite_csv(bad, inst, spec, bench.ALGORITHMS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_byte_identical_for_one_seed(name):
    a, b = workloads.build(name, 7), workloads.build(name, 7)
    assert run.fingerprint(a.inputs) == run.fingerprint(b.inputs)
    assert len(a.items) == len(b.items)
    other = workloads.build(name, 8)
    assert run.fingerprint(other.inputs) != run.fingerprint(a.inputs)


def test_hub_gadget_shape():
    for inst in workloads.hub_instances(3):
        q = inst.capacity
        assert inst.parent[:2] == (-1, 0)
        assert set(inst.parent[2:]) == {1}
        assert all(q / 2 < d < q for d in inst.demand[2:])
        assert inst.weight[1] >= 10


def test_hub_seed_draws_only_weights():
    a, b = workloads.hub_instances(1), workloads.hub_instances(2)
    assert [i.demand for i in a] == [i.demand for i in b]
    assert [i.weight for i in a] != [i.weight for i in b]


def test_times_scale_by_the_calibration_loop_around_them():
    ref = run.CALIB_REF_S
    # the second item ran between loops at 1x and 2x the reference time
    assert run.at_ref_speed([1.0, 3.0], [ref, ref, 2 * ref]) == \
        pytest.approx([1.0, 2.0])


def _traced_pass(items):
    tracer = Tracer()
    with tracer:
        res = run.run_pass(items, tracer)
    return tracer, res


def test_span_self_times_add_up_to_item_time():
    items = (workloads.build_dp_hub(0).items[:4]
             + workloads.build_bench_suite(0).items[:1])
    tracer, res = _traced_pass(items)
    assert not res.failed and not res.wrong
    items_seen = 0
    for span in tracer.spans:
        if span[3] != "item":
            continue
        items_seen += 1
        inside = [s for s in tracer.spans if s[ITEM] == span[ITEM]]
        assert len(inside) > 1
        total = sum(self_s(s) for s in inside)
        assert total == pytest.approx(span[5] - span[4], rel=1e-9, abs=1e-9)
    assert items_seen == len(items)


def test_tracer_rebinds_importers_and_restores():
    originals = (bench.solve_exact, exact.pickup_set_cost,
                 verify.solution_cost, instance.TreeInstance.__post_init__)
    tracer = Tracer()
    with tracer:
        assert bench.solve_exact is exact.solve_exact
        assert bench.solve_exact.__wrapped__ is originals[0]
        assert exact.pickup_set_cost is instance.pickup_set_cost
        assert verify.solution_cost is instance.solution_cost
        assert instance.TreeInstance.__post_init__ is not originals[3]
    assert (bench.solve_exact, exact.pickup_set_cost, verify.solution_cost,
            instance.TreeInstance.__post_init__) == originals


def test_layer_metrics_count_dp_work():
    tracer, _ = _traced_pass(workloads.build_dp_bushy(0).items[:2])
    m = layer_metrics(tracer.spans)
    assert m["dp.merge_child_table.calls"][0] > 0
    assert 0 < m["dp.merge_child_table.root_share"][0] < 1
    assert m["dp.states"][0] > 0
    assert m["exact.solve_exact.calls"][0] == 0


def test_runner_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dp-hub",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
