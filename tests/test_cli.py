import json
from fractions import Fraction

import pytest
from click.testing import CliRunner

from treecvrp import bench, cli
from treecvrp.cli import main
from treecvrp.instance import (TreeInstance, load_instance, load_solution,
                               save_instance, save_solution)
from treecvrp.structure import TransformParams, thresholds
from treecvrp.exact import solve_exact
from treecvrp.generate import generate


def run(*args, **kw):
    return CliRunner().invoke(main, list(args), **kw)


def test_gen_deterministic():
    a = run("gen", "--shape", "star", "-n", "4", "-q", "2", "--seed", "7")
    b = run("gen", "--shape", "star", "-n", "4", "-q", "2", "--seed", "7")
    assert a.exit_code == 0
    assert a.output == b.output
    inst = load_instance(a.output)
    assert inst.n == 4 and inst.capacity == 2


@pytest.mark.parametrize("n, q, option", [("1", "3", "-n"), ("5", "0", "-q")])
def test_gen_too_small_is_usage_error(n, q, option):
    r = run("gen", "-n", n, "-q", q)
    assert r.exit_code == 2, r.output
    assert f"Invalid value for '{option}'" in r.output


def test_gen_solve_verify_pipeline(tmp_path):
    inst_file = tmp_path / "inst.txt"
    sol_file = tmp_path / "sol.txt"
    r = run("gen", "--shape", "random", "-n", "7", "-q", "3", "--seed", "3",
            "-o", str(inst_file))
    assert r.exit_code == 0
    r = run("solve", str(inst_file), "--algo", "exact", "-o", str(sol_file))
    assert r.exit_code == 0
    r = run("verify", str(inst_file), str(sol_file))
    assert r.exit_code == 0
    assert "ok" in r.output


def test_solve_algos_agree_on_small_instance(tmp_path):
    inst_file = tmp_path / "inst.txt"
    run("gen", "--shape", "binary", "-n", "6", "-q", "2", "--seed", "1",
        "-o", str(inst_file))
    costs = {}
    for algo in ("exact", "bicriteria", "qptas"):
        r = run("solve", str(inst_file), "--algo", algo)
        assert r.exit_code == 0, r.output
        costs[algo] = load_solution(r.output).total_cost
    assert costs["bicriteria"] == costs["exact"] == costs["qptas"]


def test_verify_rejects_bad_solution(tmp_path):
    inst = generate("star", 4, 2, "unit", 7)
    inst_file = tmp_path / "inst.txt"
    sol_file = tmp_path / "sol.txt"
    inst_file.write_text(save_instance(inst))
    sol = solve_exact(inst)
    text = save_solution(sol).replace("tour 1:1", "tour 1:0", 1)
    # drop one pickup entirely instead of zeroing it (0 counts are stripped)
    sol_file.write_text(text)
    r = run("verify", str(inst_file), str(sol_file))
    assert r.exit_code == 1


def test_verify_json_report(tmp_path):
    inst = generate("star", 4, 2, "unit", 7)
    inst_file = tmp_path / "inst.txt"
    sol_file = tmp_path / "sol.txt"
    inst_file.write_text(save_instance(inst))
    sol_file.write_text(save_solution(solve_exact(inst)))
    r = run("verify", str(inst_file), str(sol_file), "--json")
    assert r.exit_code == 0
    payload = json.loads(r.output)
    assert payload["ok"] is True


def test_verify_json_on_fractional_cost(tmp_path):
    # cost 2 * (1/3 + 1/2) for the two tokens of node 2, then 2 * 1/3 for
    # node 1's: 5/3, printed as the file format spells it
    inst_file = tmp_path / "inst.txt"
    sol_file = tmp_path / "sol.txt"
    inst_file.write_text("cvrp-tree v1\nn 3\nQ 3\nedge 0 1 1/3\n"
                         "edge 1 2 1/2\ndemand 1 1\ndemand 2 2\n")
    from treecvrp.baselines import itp_solve
    sol = itp_solve(load_instance(inst_file.read_text()))
    assert sol.total_cost == Fraction(5, 3)
    sol_file.write_text(save_solution(sol))
    r = run("verify", str(inst_file), str(sol_file), "--json")
    assert r.exit_code == 0, r.output
    payload = json.loads(r.output)
    assert payload == {"ok": True, "recomputed_cost": "5/3",
                       "violations": []}


@pytest.mark.parametrize("algo", bench.ALGORITHMS)
def test_solve_saves_the_bench_solution(tmp_path, algo):
    inst = generate("binary", 6, 2, "unit", 1)
    inst_file = tmp_path / "inst.txt"
    inst_file.write_text(save_instance(inst))
    r = run("solve", str(inst_file), "--algo", algo)
    assert r.exit_code == 0, r.output
    assert r.output == save_solution(bench.solve(algo, inst, Fraction(1, 2)))


@pytest.mark.parametrize("algo", ["exact", "itp"])
def test_solve_builds_no_dp_params_it_does_not_use(tmp_path, algo):
    # DPParams.defaults raises ZeroDivisionError at this eps; exact and ITP
    # never read it
    inst_file = tmp_path / "inst.txt"
    inst_file.write_text(save_instance(generate("star", 4, 2, "unit", 7)))
    r = run("solve", str(inst_file), "--algo", algo, "--eps", "1/1" + "0" * 200)
    assert r.exit_code == 0, r.output
    assert load_solution(r.output).total_cost == 6


def test_bound(tmp_path):
    inst_file = tmp_path / "inst.txt"
    inst_file.write_text(save_instance(generate("star", 4, 2, "unit", 7)))
    r = run("bound", str(inst_file))
    assert r.exit_code == 0
    assert r.output.strip() == "6"


def test_reduce_lowers_height(tmp_path):
    inst_file = tmp_path / "inst.txt"
    run("gen", "--shape", "path", "-n", "30", "-q", "3", "--seed", "2",
        "-o", str(inst_file))
    r = run("reduce", str(inst_file), "--eps", "0.5")
    assert r.exit_code == 0
    reduced = load_instance(r.output)
    original = load_instance(inst_file.read_text())
    assert reduced.height < original.height
    assert reduced.n == original.n


def test_transform_reports_json(tmp_path):
    inst_file = tmp_path / "inst.txt"
    sol_file = tmp_path / "sol.txt"
    inst = generate("parallel-paths", 25, 3, "unit", 0)
    inst_file.write_text(save_instance(inst))
    from treecvrp.baselines import itp_solve
    sol_file.write_text(save_solution(itp_solve(inst)))
    r = run("transform", str(inst_file), str(sol_file), "--seed", "4")
    assert r.exit_code in (0, 1)
    payload = json.loads(r.output)
    if r.exit_code == 0:
        assert payload["cost_after"] >= 0
        assert "sampled_ids" in payload
    else:
        assert "error" in payload


def test_transform_json_on_fractional_weights(tmp_path):
    inst = generate("random", 14, 3, "unit", 42)
    inst = inst.replace(weight=tuple(Fraction(w, 3) for w in inst.weight))
    inst_file = tmp_path / "inst.txt"
    sol_file = tmp_path / "sol.txt"
    inst_file.write_text(save_instance(inst))
    from treecvrp.baselines import itp_solve
    sol = itp_solve(inst)
    sol_file.write_text(save_solution(sol))
    r = run("transform", str(inst_file), str(sol_file), "--gamma", "1",
            "-g", "2", "--seed", "42")
    assert r.exit_code == 0, r.output
    payload = json.loads(r.output)
    assert payload["cost_before"] == sol.total_cost == 56  # int stays int
    assert payload["cost_after"] == "170/3"  # 56 + 2/3, as the file spells it
    assert Fraction(170, 3) - 56 == 2 * (Fraction(payload["sampled_cost"])
                                         - Fraction(payload["shortcut_savings"]))


@pytest.mark.parametrize("groups", ["0", "-1"])
def test_transform_needs_a_group(tmp_path, groups):
    # a big bucket is split into g groups of ceil(m / g) tours
    from treecvrp.baselines import itp_solve
    inst = generate("random", 40, 3, "unit", 0)
    inst_file = tmp_path / "inst.txt"
    sol_file = tmp_path / "sol.txt"
    inst_file.write_text(save_instance(inst))
    sol_file.write_text(save_solution(itp_solve(inst)))
    r = run("transform", str(inst_file), str(sol_file), "--eps", "1",
            "--gamma", "1", "--groups", groups)
    assert r.exit_code == 2, r.output
    assert "--groups" in r.output


def test_transform_rejects_negative_gamma(tmp_path):
    # a usage error, as for solve, not a resample failure (exit 1)
    from treecvrp.baselines import itp_solve
    inst = generate("random", 8, 3, "unit", 0)
    inst_file = tmp_path / "inst.txt"
    sol_file = tmp_path / "sol.txt"
    inst_file.write_text(save_instance(inst))
    sol_file.write_text(save_solution(itp_solve(inst)))
    r = run("transform", str(inst_file), str(sol_file), "--gamma", "-1")
    assert r.exit_code == 2, r.output
    assert "--gamma" in r.output


@pytest.mark.parametrize("line, violation", [
    ("tour 99:1", "tour 0: unknown node 99"),
    ("tour -1:1", "tour 0: unknown node -1"),  # not node 7, n - 1
    ("tour 1:5", "tour 0: load 5 exceeds capacity 3"),
])
def test_transform_rejects_infeasible_solution(tmp_path, line, violation):
    # checked before the transform reads it: a usage error naming the first
    # violation, not a traceback or a report on another solution
    inst_file = tmp_path / "inst.txt"
    sol_file = tmp_path / "sol.txt"
    inst_file.write_text(save_instance(generate("random", 8, 3, "unit", 0)))
    sol_file.write_text(f"{line}\ncost 2\n")
    r = run("transform", str(inst_file), str(sol_file))
    assert r.exit_code == 2, r.output
    assert f"infeasible solution: {violation}" in r.output


def test_solve_accepts_zero_groups(tmp_path):
    # the DP's g = 0 admits only small buckets, and is valid
    inst_file = tmp_path / "inst.txt"
    inst_file.write_text(save_instance(generate("star", 4, 2, "unit", 7)))
    r = run("solve", str(inst_file), "--algo", "qptas", "--groups", "0")
    assert r.exit_code == 0, r.output


@pytest.mark.parametrize("cmd, target", [
    (["solve", "--algo", "qptas", "--pad-cap", "2"], "solve_structured"),
    (["transform"], "transform"),
])
def test_gamma_alone_keeps_default_groups(tmp_path, monkeypatch, cmd, target):
    inst = generate("star", 4, 2, "unit", 7)
    inst_file = tmp_path / "inst.txt"
    sol_file = tmp_path / "sol.txt"
    inst_file.write_text(save_instance(inst))
    sol_file.write_text(save_solution(solve_exact(inst)))
    seen = []
    owner = bench if target == "solve_structured" else cli
    real = getattr(owner, target)

    def spy(*args, **kw):
        seen.append(args[2] if target == "solve_structured" else args[3])
        return real(*args, **kw)

    monkeypatch.setattr(owner, target, spy)
    files = [str(inst_file)] + ([str(sol_file)] if target == "transform" else [])
    r = run(cmd[0], *files, *cmd[1:], "--gamma", "5")
    assert r.exit_code == 0, r.output
    (params,) = seen
    default = TransformParams.defaults(inst.n, Fraction(1, 2))
    assert (params.gamma, params.groups) == (5, default.groups)
    if target == "solve_structured":
        assert params.pad_cap == 2
        assert params.schedule == thresholds(inst.capacity, Fraction(1, 2))


def test_solve_resource_exit_code(tmp_path):
    inst_file = tmp_path / "inst.txt"
    inst_file.write_text(save_instance(generate("random", 30, 4, "uniform", 0)))
    r = run("solve", str(inst_file), "--algo", "exact")
    assert r.exit_code == 3


def test_solve_reduce_height_round_trip(tmp_path):
    inst_file = tmp_path / "inst.txt"
    run("gen", "--shape", "path", "-n", "10", "-q", "2", "--seed", "5",
        "-o", str(inst_file))
    plain = run("solve", str(inst_file), "--algo", "exact")
    reduced = run("solve", str(inst_file), "--algo", "qptas",
                  "--reduce-height", "--eps", "0.5")
    assert plain.exit_code == 0 and reduced.exit_code == 0
    inst = load_instance(inst_file.read_text())
    cost_plain = load_solution(plain.output).total_cost
    cost_reduced = load_solution(reduced.output).total_cost
    assert cost_reduced <= (1 + 3 * 0.5) * cost_plain
    from treecvrp.verify import check_feasible
    assert check_feasible(inst, load_solution(reduced.output)).ok


@pytest.mark.parametrize("line", ["tour 1:1 1:2", "tour 1:x", "tour 1:-2"])
def test_usage_error_on_bad_solution(tmp_path, line):
    inst_file = tmp_path / "inst.txt"
    sol_file = tmp_path / "sol.txt"
    inst_file.write_text(save_instance(generate("star", 4, 2, "unit", 7)))
    sol_file.write_text(f"{line}\ncost 2\n")
    for cmd in ("verify", "transform"):
        r = run(cmd, str(inst_file), str(sol_file))
        assert r.exit_code == 2, r.output
        assert "bad solution" in r.output


@pytest.mark.parametrize("cmd, target", [
    (["reduce"], "build_reduced_tree"),
    (["solve", "--algo", "qptas"], "solve_structured"),
    (["transform"], "transform"),
])
def test_eps_is_parsed_exactly(tmp_path, monkeypatch, cmd, target):
    # with float eps 0.1, 170 * 1.1 = 187.00000000000003 rounds up to 188
    inst = TreeInstance((-1, 0), (0, 1), (0, 1), 200)
    inst_file = tmp_path / "inst.txt"
    sol_file = tmp_path / "sol.txt"
    inst_file.write_text(save_instance(inst))
    sol_file.write_text(save_solution(solve_exact(inst)))
    seen = []
    owner = bench if target == "solve_structured" else cli
    real = getattr(owner, target)

    def spy(*args, **kw):
        seen.append(args[2] if target == "transform" else args[1])
        return real(*args, **kw)

    monkeypatch.setattr(owner, target, spy)
    files = [str(inst_file)] + ([str(sol_file)] if target == "transform" else [])
    r = run(cmd[0], *files, *cmd[1:], "--eps", "0.1")
    assert r.exit_code == 0, r.output
    (eps,) = seen
    assert eps == Fraction(1, 10)
    assert 187 in thresholds(200, eps).sigma


@pytest.mark.parametrize("eps", ["0", "-1", "-1/2", "1/0"])
@pytest.mark.parametrize("cmd", [["reduce"], ["solve", "--algo", "qptas"],
                                 ["transform"]])
def test_nonpositive_eps_is_usage_error(tmp_path, cmd, eps):
    inst = generate("star", 4, 2, "unit", 7)
    inst_file = tmp_path / "inst.txt"
    sol_file = tmp_path / "sol.txt"
    inst_file.write_text(save_instance(inst))
    sol_file.write_text(save_solution(solve_exact(inst)))
    files = [str(inst_file)] + ([str(sol_file)] if cmd == ["transform"] else [])
    r = run(cmd[0], *files, *cmd[1:], "--eps", eps)
    assert r.exit_code == 2, r.output
    assert "must be positive" in r.output


def test_usage_error_on_bad_instance(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("garbage\n")
    r = run("solve", str(bad))
    assert r.exit_code == 2


@pytest.mark.parametrize("line", ["n 4", "Q 3"])
def test_usage_error_on_repeated_instance_line(tmp_path, line):
    inst_file = tmp_path / "inst.txt"
    text = save_instance(generate("star", 4, 2, "unit", 7))
    inst_file.write_text(text + line + "\n")
    r = run("solve", str(inst_file))
    assert r.exit_code == 2, r.output
    assert f"duplicate {line[0]} line" in r.output


def test_usage_error_on_repeated_cost_line(tmp_path):
    inst_file = tmp_path / "inst.txt"
    sol_file = tmp_path / "sol.txt"
    inst_file.write_text(save_instance(generate("star", 4, 2, "unit", 7)))
    sol_file.write_text("tour 1:1\ncost 5\ncost 7\n")
    for cmd in ("verify", "transform"):
        r = run(cmd, str(inst_file), str(sol_file))
        assert r.exit_code == 2, r.output
        assert "duplicate cost line" in r.output


@pytest.mark.parametrize("eps", [0, -1, "x", "1/0"])
def test_bench_bad_eps_is_usage_error(tmp_path, eps):
    config = tmp_path / "suite.json"
    config.write_text(json.dumps({
        "instances": [{"shape": "star", "n": 4, "Q": 2, "seeds": [7]}],
        "algorithms": ["bicriteria", "qptas"], "eps": eps}))
    r = run("bench", str(config))
    assert r.exit_code == 2, r.output
    assert "eps must be a positive number" in r.output


@pytest.mark.parametrize("spec, text", [
    ({"shape": "star", "Q": 2}, "missing 'n'"),
    ({"shape": "blob", "n": 4, "Q": 2}, "unknown shape 'blob'"),
    ({"shape": "star", "n": 4, "Q": 0}, "need n >= 2 and Q >= 1"),
    ({"shape": "star", "n": 4.9, "Q": 2}, "not an integer: 4.9"),
    ({"shape": "star", "n": 4, "Q": 2.5}, "not an integer: 2.5"),
    ({"shape": "star", "n": 4, "Q": 2, "seeds": [1.7]}, "not an integer: 1.7"),
    ({"shape": "star", "n": 4, "Q": True}, "not an integer: True"),
    ({"shape": "star", "n": 4, "Q": 2, "seeds": "12"},
     "seeds must be a non-empty list, got '12'"),
    ({"shape": "star", "n": 4, "Q": 2, "seeds": []},
     "seeds must be a non-empty list, got []"),
    ({"shape": "star", "n": "4", "Q": 2}, "not an integer: '4'"),
    ({"shape": "star", "n": 4, "Q": 2, "seed": 7},
     "unknown key 'seed' in instance spec"),
    ({"shape": "star", "n": 4, "Q": 2, "demand-model": "heavy"},
     "unknown key 'demand-model' in instance spec"),
])
def test_bench_bad_instance_spec_is_usage_error(tmp_path, spec, text):
    config = tmp_path / "suite.json"
    config.write_text(json.dumps({"instances": [spec],
                                  "algorithms": ["itp"]}))
    r = run("bench", str(config))
    assert r.exit_code == 2, r.output
    assert text in r.output


@pytest.mark.parametrize("text, message", [
    ("5", "suite config must be an object"),
    ('{"instances": 5, "algorithms": ["itp"]}',
     "needs 'instances' as a non-empty list"),
    ('{"instances": [{"shape": "star", "n": 4, "Q": 2}], "algorithms": []}',
     "needs 'algorithms' as a non-empty list"),
    ('{"instances": [{"shape": "star", "n": 4, "Q": 2}],'
     ' "algorithms": ["itp", "itp"]}', "repeated algorithm"),
    ('{"instances": [{"shape": "star", "n": 4, "Q": 2, "seeds": [7, 7]}],'
     ' "algorithms": ["itp"]}', "repeated instance"),
    ('{"instances": [{"shape": "star", "n": 4, "Q": 2}],'
     ' "algorithms": ["itp"], "epsilon": 0.1}',
     "unknown key 'epsilon' in suite config"),
])
def test_bench_bad_config_is_usage_error(tmp_path, text, message):
    config = tmp_path / "suite.json"
    config.write_text(text)
    r = run("bench", str(config))
    assert r.exit_code == 2, r.output
    assert message in r.output


def test_negative_pad_cap_is_usage_error(tmp_path):
    inst_file = tmp_path / "inst.txt"
    inst_file.write_text(save_instance(generate("star", 4, 2, "unit", 7)))
    r = run("solve", str(inst_file), "--algo", "qptas", "--pad-cap", "-1")
    assert r.exit_code == 2, r.output
    assert "--pad-cap" in r.output


@pytest.mark.parametrize("args", [
    ("--algo", "qptas", "--gamma", "-1"),
    ("--algo", "qptas", "--groups", "-1"),
    ("--algo", "qptas", "--gamma", "-1", "--groups", "-1"),
    ("--algo", "exact", "--max-tokens", "-5"),
])
def test_negative_counts_are_usage_errors(tmp_path, args):
    inst_file = tmp_path / "inst.txt"
    inst_file.write_text(save_instance(generate("random", 8, 3, "unit", 0)))
    r = run("solve", str(inst_file), *args)
    assert r.exit_code == 2, r.output
    assert args[2] in r.output


@pytest.mark.parametrize("args", [
    ("solve", "{missing}"),
    ("verify", "{missing}", "{missing}"),
    ("verify", "{inst}", "{missing}"),
    ("bound", "{missing}"),
    ("bound", "{dir}"),
    ("bound", "{binary}"),
    ("reduce", "{missing}"),
    ("transform", "{inst}", "{missing}"),
    ("bench", "{missing}"),
])
def test_unreadable_input_file_is_usage_error(tmp_path, args):
    inst_file = tmp_path / "inst.txt"
    inst_file.write_text(save_instance(generate("star", 4, 2, "unit", 7)))
    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"\xff\xfe")
    r = run(*(a.format(inst=inst_file, missing=tmp_path / "missing.txt",
                       dir=tmp_path, binary=binary) for a in args))
    assert r.exit_code == 2, r.output
    assert "cannot read" in r.output
