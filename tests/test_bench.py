import csv
import io
import json
import re
import time
from fractions import Fraction

import pytest

from treecvrp import bench, exact
from treecvrp.baselines import flow_lower_bound
from treecvrp.bench import ALGORITHMS, COLUMNS, load_config, run_suite
from treecvrp.dp import DPParams, NoStructuredSolutionError
from treecvrp.exact import OracleSizeError
from treecvrp.generate import generate
from treecvrp.instance import TreeInstance
from treecvrp.structure import thresholds

from conftest import random_instance

SMALL = {
    "instances": [
        {"shape": "random", "n": 6, "Q": 3, "seeds": [0, 1]},
        {"shape": "star", "n": 4, "Q": 2, "seeds": [7]},
    ],
    "algorithms": ["exact", "itp", "bicriteria", "qptas"],
    "eps": 0.5,
}


# The CSV of SMALL, pinned: a change in how references are found must not
# move a reference or a ratio. ``states`` counts the states that the
# bound-pruned DPs of bicriteria and qptas keep.
SMALL_CSV = """\
shape,n,Q,demand_model,seed,algorithm,eps,cost,reference,ref_value,ratio,states,wall_ms,error
random,6,3,unit,0,bicriteria,0.5,30,oracle,30,1,8,,
random,6,3,unit,0,exact,0.5,30,oracle,30,1,,,
random,6,3,unit,0,itp,0.5,30,oracle,30,1,,,
random,6,3,unit,0,qptas,0.5,30,oracle,30,1,8,,
random,6,3,unit,1,bicriteria,0.5,68,oracle,68,1,9,,
random,6,3,unit,1,exact,0.5,68,oracle,68,1,,,
random,6,3,unit,1,itp,0.5,76,oracle,68,19/17,,,
random,6,3,unit,1,qptas,0.5,68,oracle,68,1,9,,
star,4,2,unit,7,bicriteria,0.5,6,oracle,6,1,3,,
star,4,2,unit,7,exact,0.5,6,oracle,6,1,,,
star,4,2,unit,7,itp,0.5,6,oracle,6,1,,,
star,4,2,unit,7,qptas,0.5,6,oracle,6,1,3,,
summary,,,,,bicriteria,,,,,1,,,
summary,,,,,exact,,,,,1,,,
summary,,,,,itp,,,,,53/51,,,
summary,,,,,qptas,,,,,1,,,
"""


@pytest.fixture
def oracle_calls(monkeypatch):
    """Instances passed to the oracle, by bench or by any other module."""
    calls = []
    real = exact.solve_exact

    def counted(inst, *args, **kwargs):
        calls.append(inst)
        return real(inst, *args, **kwargs)

    monkeypatch.setattr(bench, "solve_exact", counted)
    monkeypatch.setattr(exact, "solve_exact", counted)
    return calls


def rows_of(text):
    return list(csv.DictReader(io.StringIO(text)))


def test_row_and_summary_counts():
    rows = rows_of(run_suite(SMALL))
    data = [r for r in rows if r["shape"] != "summary"]
    summaries = [r for r in rows if r["shape"] == "summary"]
    assert len(data) == 3 * 4
    assert len(summaries) == 4


def test_byte_identical_reruns():
    assert run_suite(SMALL) == run_suite(SMALL)


def test_small_csv_is_pinned():
    assert run_suite(SMALL) == SMALL_CSV


@pytest.mark.parametrize("algorithms", [list(ALGORITHMS),
                                        ["itp", "bicriteria", "qptas"]])
def test_one_oracle_solve_per_instance(oracle_calls, algorithms):
    rows = rows_of(run_suite(dict(SMALL, algorithms=algorithms)))
    assert len(oracle_calls) == 3
    assert len({id(inst) for inst in oracle_calls}) == 3
    data = [r for r in rows if r["shape"] != "summary"]
    assert len(data) == 3 * len(algorithms)
    assert all(r["reference"] == "oracle" for r in data)


def test_wall_ms_empty_without_timing():
    rows = rows_of(run_suite(SMALL))
    assert all(r["wall_ms"] == "" for r in rows)


def test_timing_fills_wall_ms():
    rows = rows_of(run_suite(SMALL, timing=True))
    data = [r for r in rows if r["shape"] != "summary" and not r["error"]]
    assert {r["algorithm"] for r in data} == set(ALGORITHMS)
    assert all(r["wall_ms"] for r in data)


def test_exact_wall_ms_is_the_one_oracle_solve(monkeypatch):
    real = exact.solve_exact

    def slow(inst, *args):
        time.sleep(0.05)
        return real(inst, *args)

    monkeypatch.setattr(bench, "solve_exact", slow)
    cfg = dict(SMALL, instances=SMALL["instances"][1:])
    rows = rows_of(run_suite(cfg, timing=True))
    (exact_row,) = [r for r in rows if r["algorithm"] == "exact"
                    and r["shape"] != "summary"]
    assert float(exact_row["wall_ms"]) >= 50


def test_exact_summary_ratio_is_one():
    rows = rows_of(run_suite(SMALL))
    (summary,) = [r for r in rows
                  if r["shape"] == "summary" and r["algorithm"] == "exact"]
    assert summary["ratio"] == "1"


def test_exact_rows_ratio_is_one():
    # each exact row is its own solution over itself
    data = [r for r in rows_of(run_suite(SMALL)) if r["shape"] != "summary"
            and r["algorithm"] == "exact"]
    assert len(data) == 3
    assert all(r["reference"] == "oracle" and r["ratio"] == "1"
               and r["cost"] == r["ref_value"] for r in data)


def test_star_itp_row_against_the_bound(monkeypatch):
    # the oracle at a 2-token limit refuses the 3-token star, so the rows
    # fall back to the flow bound, which ITP meets: 6/6
    monkeypatch.setattr(bench, "solve_exact",
                        lambda inst, max_tokens: exact.solve_exact(inst, 2))
    cfg = dict(SMALL, instances=SMALL["instances"][1:],
               algorithms=["exact", "itp"])
    rows = {r["algorithm"]: r for r in rows_of(run_suite(cfg))
            if r["shape"] != "summary"}
    assert rows["exact"]["error"] == (
        "OracleSizeError: 3 tokens exceeds oracle limit 2")
    itp = rows["itp"]
    assert (itp["reference"], itp["ref_value"], itp["cost"], itp["ratio"],
            itp["error"]) == ("lower_bound", "6", "6", "1", "")


def test_itp_ratio_at_least_one_against_oracle(monkeypatch):
    # the suite's instances are the hand-rolled random trees of conftest
    monkeypatch.setattr(
        bench, "generate", lambda shape, n, q, model, seed: random_instance(
            seed, unit_demand=False, max_tokens=9))
    cfg = {"instances": [{"shape": "random", "n": 2, "Q": 1,
                          "seeds": list(range(10))}], "algorithms": ["itp"]}
    data = [r for r in rows_of(run_suite(cfg)) if r["shape"] != "summary"]
    assert len(data) == 10
    assert all(r["reference"] == "oracle" and not r["error"] for r in data)
    assert all(Fraction(r["ratio"]) >= 1 for r in data)


def test_rows_sorted_by_key():
    rows = rows_of(run_suite(SMALL))
    data = [r for r in rows if r["shape"] != "summary"]
    keys = [(r["shape"], int(r["n"]), r["seed"], r["algorithm"]) for r in data]
    assert keys == sorted(keys)


def test_oversized_oracle_recorded_not_raised(oracle_calls):
    cfg = {
        "instances": [{"shape": "random", "n": 30, "Q": 3,
                       "demand_model": "uniform", "seeds": [0]}],
        "algorithms": ["exact", "itp"],
    }
    rows = rows_of(run_suite(cfg))
    exact_row = [r for r in rows if r["algorithm"] == "exact"
                 and r["shape"] != "summary"][0]
    assert "OracleSizeError" in exact_row["error"]
    itp_row = [r for r in rows if r["algorithm"] == "itp"
               and r["shape"] != "summary"][0]
    assert itp_row["error"] == ""
    assert itp_row["reference"] == "lower_bound"
    assert len(oracle_calls) == 1


def test_oversized_oracle_falls_back_to_lower_bound(monkeypatch):
    # 30 tokens at one leaf are past the oracle's limit
    inst = TreeInstance((-1, 0), (0, 1), (0, 30), 2)
    monkeypatch.setattr(bench, "generate",
                        lambda shape, n, q, model, seed: inst)
    cfg = {"instances": [{"shape": "random", "n": 2, "Q": 2, "seeds": [0]}],
           "algorithms": ["itp"]}
    (itp_row,) = [r for r in rows_of(run_suite(cfg))
                  if r["shape"] != "summary"]
    assert itp_row["error"] == ""
    assert itp_row["reference"] == "lower_bound"
    assert itp_row["ref_value"] == str(flow_lower_bound(inst))
    assert Fraction(itp_row["ratio"]) == (Fraction(itp_row["cost"])
                                          / flow_lower_bound(inst))


def test_columns_are_versioned_contract():
    header = run_suite(SMALL).splitlines()[0]
    assert header == ",".join(COLUMNS)


def test_load_config_validates():
    with pytest.raises(ValueError):
        load_config('{"instances": []}')
    with pytest.raises(ValueError):
        load_config('{"instances": [], "algorithms": ["simplex"]}')


@pytest.mark.parametrize("text, message", [
    ("5", "suite config must be an object, got 5"),
    ("null", "suite config must be an object, got None"),
    ('["itp"]', "suite config must be an object, got ['itp']"),
    ('{"instances": 5, "algorithms": ["itp"]}',
     "suite config needs 'instances' as a non-empty list"),
    ('{"instances": [], "algorithms": ["itp"]}',
     "suite config needs 'instances' as a non-empty list"),
    ('{"instances": [{"shape": "star", "n": 4, "Q": 2}], "algorithms": "itp"}',
     "suite config needs 'algorithms' as a non-empty list"),
    ('{"instances": [{"shape": "star", "n": 4, "Q": 2}], "algorithms": []}',
     "suite config needs 'algorithms' as a non-empty list"),
    ('{"instances": [{"shape": "star", "n": 4, "Q": 2}],'
     ' "algorithms": ["itp", "exact", "itp"]}',
     "repeated algorithm in ['itp', 'exact', 'itp']"),
    # a misspelt key would run with its default
    ('{"instances": [{"shape": "star", "n": 4, "Q": 2}],'
     ' "algorithms": ["itp"], "epsilon": 0.1}',
     "unknown key 'epsilon' in suite config"),
])
def test_load_config_rejects_bad_configs(text, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        load_config(text)


@pytest.mark.parametrize("spec, text", [
    ({"shape": "star", "Q": 2}, "missing 'n'"),
    ({"n": 4, "Q": 2}, "missing 'shape'"),
    ({"shape": "blob", "n": 4, "Q": 2}, "unknown shape 'blob'"),
    ({"shape": "star", "n": 4, "Q": 0}, "need n >= 2 and Q >= 1"),
    ({"shape": "star", "n": 1, "Q": 2}, "need n >= 2 and Q >= 1"),
    ({"shape": "star", "n": 4, "Q": 2, "demand_model": "flat"},
     "unknown demand model 'flat'"),
    ({"shape": "star", "n": "four", "Q": 2}, "not an integer: 'four'"),
    ({"shape": "star", "n": None, "Q": 2}, "bad instance spec"),
    ({"shape": "star", "n": 4, "Q": 2, "seeds": ["x"]}, "not an integer: 'x'"),
    (["star", 4, 2], "bad instance spec"),
    ({"shape": "star", "n": 4.9, "Q": 2}, "not an integer: 4.9"),
    ({"shape": "star", "n": 4, "Q": 2.5}, "not an integer: 2.5"),
    ({"shape": "star", "n": 4, "Q": 2, "seeds": [1.7]}, "not an integer: 1.7"),
    ({"shape": "star", "n": True, "Q": 2}, "not an integer: True"),
    ({"shape": "star", "n": 4, "Q": 2, "seeds": [0, False]},
     "not an integer: False"),
    ({"shape": "star", "n": 4, "Q": 2, "seeds": "12"},
     "seeds must be a non-empty list, got '12'"),
    ({"shape": "star", "n": 4, "Q": 2, "seeds": []},
     "seeds must be a non-empty list, got []"),
    # a string is refused even where int() would read it
    ({"shape": "star", "n": "4", "Q": " 2", "seeds": ["7"]},
     "not an integer: '4'"),
    ({"shape": "star", "n": 4, "Q": " 2"}, "not an integer: ' 2'"),
    ({"shape": "star", "n": 4, "Q": 2, "seeds": ["7"]},
     "not an integer: '7'"),
    # a misspelt key would run with its default
    ({"shape": "star", "n": 4, "Q": 2, "seed": 7},
     "unknown key 'seed' in instance spec"),
    ({"shape": "star", "n": 4, "Q": 2, "demand-model": "heavy"},
     "unknown key 'demand-model' in instance spec"),
])
def test_load_config_rejects_bad_instance_specs(spec, text):
    # a good spec first: every spec is checked, not just the first
    config = dict(SMALL, instances=[SMALL["instances"][1], spec])
    with pytest.raises(ValueError, match=re.escape(text)):
        load_config(json.dumps(config))


def test_load_config_rejects_repeated_instances():
    # the same seed twice in one spec and again in another would write three
    # identical rows, and the summary mean would count each copy
    text = json.dumps({"instances": [
        {"shape": "star", "n": 4, "Q": 2, "seeds": [7, 7]},
        {"shape": "star", "n": 4, "Q": 2, "seeds": [7]}],
        "algorithms": ["itp"]})
    with pytest.raises(ValueError, match=re.escape(
            "repeated instance (shape, n, Q, demand_model, seed) "
            "('star', 4, 2, 'unit', 7)")):
        load_config(text)
    # the demand model is part of the key, and it defaults to unit
    for first, ok in (({"demand_model": "uniform"}, True),
                      ({"demand_model": "unit"}, False), ({}, False)):
        specs = [{"shape": "star", "n": 4, "Q": 2, "seeds": [7], **first},
                 {"shape": "star", "n": 4, "Q": 2, "seeds": [3, 7]}]
        text = json.dumps({"instances": specs, "algorithms": ["itp"]})
        if ok:
            assert len(rows_of(run_suite(load_config(text)))) == 3 + 1
        else:
            with pytest.raises(ValueError, match="repeated instance"):
                load_config(text)


@pytest.mark.parametrize("eps", [0, -1, "x", "1/0"])
def test_run_suite_rejects_bad_eps_before_solving(oracle_calls, eps):
    config = dict(SMALL, eps=eps)
    with pytest.raises(ValueError, match="eps must be a positive number"):
        run_suite(config)
    assert oracle_calls == []
    with pytest.raises(ValueError, match="eps must be a positive number"):
        load_config(json.dumps(config))


def test_eps_reaches_solvers_exactly(monkeypatch):
    seen = {}
    for name in ("solve_bicriteria", "solve_structured"):
        real = getattr(bench, name)

        def spy(inst, eps, *args, name=name, real=real, **kwargs):
            seen.setdefault(name, set()).add(eps)
            return real(inst, eps, *args, **kwargs)

        monkeypatch.setattr(bench, name, spy)
    rows = rows_of(run_suite(dict(SMALL, eps=0.1)))
    assert seen == {"solve_bicriteria": {Fraction(1, 10)},
                    "solve_structured": {Fraction(1, 10)}}
    data = [r for r in rows if r["shape"] != "summary"]
    assert {r["eps"] for r in data} == {"0.1"}


def test_solve_runs_every_algorithm():
    inst = generate("random", 6, 3, "unit", 1)
    costs = {algo: bench.solve(algo, inst, Fraction(1, 2)).total_cost
             for algo in ALGORITHMS}
    assert costs == {"exact": 68, "itp": 76, "bicriteria": 68, "qptas": 68}
    with pytest.raises(OracleSizeError):
        bench.solve("exact", inst, Fraction(1, 2), max_tokens=4)
    # params replace qptas's defaults: no bucket may hold a tour
    tight = DPParams(gamma=0, groups=0, schedule=thresholds(3, Fraction(1, 2)))
    with pytest.raises(NoStructuredSolutionError):
        bench.solve("qptas", inst, Fraction(1, 2), tight)
    with pytest.raises(ValueError, match="unknown algorithm 'simplex'"):
        bench.solve("simplex", inst, Fraction(1, 2))
