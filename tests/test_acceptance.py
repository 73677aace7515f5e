"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
print; on a normal run they appear in the captured output of failures.
"""

import itertools
import math
import random
import statistics

import pytest

from treecvrp.baselines import flow_lower_bound, itp_solve
from treecvrp.bench import run_suite
from treecvrp.dp import (DPParams, _own_tokens, _partitions,
                         merge_child_table, solve_bicriteria, solve_structured)
from treecvrp.exact import solve_exact
from treecvrp.generate import generate, stress_instance
from treecvrp.height import build_reduced_tree
from treecvrp.instance import TreeInstance
from treecvrp.structure import (TransformInfeasible, TransformParams,
                                profile_complexity, thresholds, transform)
from treecvrp.verify import check_feasible

from conftest import random_instance
from consistency import brute_consistent, check_consistency
from oracle import NoCut, solve_exact_naive, solve_residual

EPS = 0.5


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num}: {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} failed: {name} {detail}"


def _suite_instances(count, max_n, max_tokens, capacities=(2, 3, 4)):
    return [random_instance(seed, max_n=max_n, capacities=capacities,
                            unit_demand=False, max_tokens=max_tokens)
            for seed in range(count)]


@pytest.fixture(scope="module")
def sandwich_suite():
    """The 200 instances shared by criteria 2 and 3, with their optima.

    The optima come from the residual-vector oracle, not ``solve_exact``,
    which runs the profile DP that criterion 3 checks.
    """
    instances = _suite_instances(200, max_n=10, max_tokens=12)
    return [(inst, solve_residual(inst).total_cost) for inst in instances]


def test_criterion_1_oracle_cross_validation():
    # three exact solvers that share no code: the profile DP, the
    # residual-vector DP and the naive token enumerator
    mismatches = 0
    for seed in range(300):
        tokens = 9 if seed % 20 == 0 else 7
        inst = random_instance(seed, max_n=8, unit_demand=False,
                               max_tokens=tokens)
        sol = solve_exact(inst)
        costs = {sol.total_cost, solve_residual(inst).total_cost,
                 solve_exact_naive(inst).total_cost}
        if len(costs) > 1 or not check_feasible(inst, sol).ok:
            mismatches += 1
    _report(1, "profile DP vs residual DP vs naive enumerator on 300 "
            "instances", mismatches == 0, f"{mismatches} mismatches")


def test_criterion_2_sandwich_suite(sandwich_suite):
    violations = []
    load_cap = math.ceil((1 + EPS) * 1)  # recomputed per instance below
    for i, (inst, opt) in enumerate(sandwich_suite):
        lb = flow_lower_bound(inst)
        itp = itp_solve(inst).total_cost
        res = solve_bicriteria(inst, EPS)
        load_cap = math.ceil((1 + EPS) * inst.capacity)
        if not lb <= opt <= itp:
            violations.append(f"#{i}: lb={lb} opt={opt} itp={itp}")
        if res.solution.total_cost > opt:
            violations.append(f"#{i}: bicriteria {res.solution.total_cost} > opt {opt}")
        if res.max_load > load_cap:
            violations.append(f"#{i}: load {res.max_load} > {load_cap}")
    _report(2, "lower bound <= opt <= ITP and bicriteria <= opt on 200 instances",
            not violations, "; ".join(violations[:3]))


def test_criterion_3_structured_generous_optimality(sandwich_suite):
    deviations = []
    for i, (inst, opt) in enumerate(sandwich_suite):
        sol = solve_structured(inst, EPS)  # generous params by default
        if sol.total_cost != opt or not check_feasible(inst, sol).ok:
            deviations.append(f"#{i}: {sol.total_cost} != {opt}")
    _report(3, "structured DP equals opt at generous params on 200 instances",
            not deviations, "; ".join(deviations[:3]))


def test_criterion_4_structured_tight_params_stress():
    sched = thresholds(3, EPS)
    params = DPParams(gamma=2, groups=3, schedule=sched)
    bad = []
    for n in (25, 28, 30):
        for seed in range(4):
            inst = stress_instance(n=n, capacity=3, seed=seed)
            opt = solve_exact(inst).total_cost
            sol = solve_structured(inst, EPS, params)
            if not opt <= sol.total_cost <= (1 + 5 * EPS) * opt:
                bad.append(f"n={n} seed={seed}: {sol.total_cost} vs opt {opt}")
            if any(t.load > inst.capacity for t in sol.tours):
                bad.append(f"n={n} seed={seed}: overload")
    _report(4, "structured DP within (1+5*eps)*opt on the stress family",
            not bad, "; ".join(bad[:3]))


def test_criterion_5_height_reduction_sandwich():
    c = 3
    bad = []
    for i in range(100):
        shape = "path" if i % 2 else "random"
        inst = generate(shape, 4 + i % 7, 2 + i % 3, "unit", seed=i)
        rt = build_reduced_tree(inst, EPS)
        opt = solve_exact(inst).total_cost
        opt_red = solve_exact(rt.tree).total_cost
        if not opt_red <= opt <= (1 + c * EPS) * opt_red:
            bad.append(f"#{i}: opt'={opt_red} opt={opt}")
    for n in (50, 200, 800, 2000):
        for shape in ("path", "random"):
            inst = generate(shape, n, 3, "unit", seed=n)
            rt = build_reduced_tree(inst, EPS)
            if rt.tree.height > inst.height:
                bad.append(f"{shape} n={n}: height grew")
    _report(5, "height-reduction sandwich and height monotonicity",
            not bad, "; ".join(bad[:3]))


def _fold(o_v, z1, z2, capacity):
    """Profiles the DP makes from child profiles z1, z2 and o_v node tokens:
    as the sweep does, it starts from z1, folds in z2 and then the tokens'
    table."""
    acc = {z1: (0, None)}
    for table in ({z2: (0, None)}, _own_tokens(1, o_v, capacity, 0)):
        # the fold reads keys and costs; no witness is rebuilt here
        acc = merge_child_table(acc, table, capacity, 10 ** 9, 1, NoCut())
    return set(acc)


def test_criterion_6_consistency_vs_brute_force():
    # every z1, z2 of at most 3 child tours in all, o_v <= 3, Q <= 6; z_v
    # ranges over the size multisets of the right total and of a length that
    # can match: at least the tours of either child, at most all child tours
    # plus one new tour per node token
    cases = verdicts = disagreements = 0
    for q in range(1, 7):
        multisets = [tuple(c) for k in range(4) for c in
                     itertools.combinations_with_replacement(range(1, q + 1),
                                                             k)]
        profiles = [[z[::-1] for z in _partitions(total, q)]
                    for total in range(3 * q + 4)]
        for z1, z2 in itertools.product(multisets, repeat=2):
            if len(z1) + len(z2) > 3:
                continue
            for o_v in range(4):
                cases += 1
                folded = _fold(o_v, z1, z2, q)
                lo, hi = max(len(z1), len(z2)), len(z1) + len(z2) + o_v
                candidates = [z for z in profiles[o_v + sum(z1) + sum(z2)]
                              if lo <= len(z) <= hi]
                if not folded <= set(candidates):
                    disagreements += 1
                for z_v in candidates:
                    verdicts += 1
                    spec = check_consistency(o_v, z_v, z1, z2)
                    if spec != brute_consistent(o_v, z_v, z1, z2) or \
                            spec != (z_v in folded):
                        disagreements += 1
    _report(6, "DP fold equals consistency table and brute-force matcher",
            disagreements == 0,
            f"{cases} cases, {verdicts} profiles, "
            f"{disagreements} disagreements")


def test_criterion_7_threshold_properties():
    rng = random.Random(7)
    bad = []
    for _ in range(50):
        q = rng.randint(1, 10 ** 6)
        eps = rng.choice([0.05, 0.1, 0.25, 0.5, 1.0, 2.0])
        sigma = thresholds(q, eps).sigma
        head = min(math.ceil(1 / eps), q)
        checks = [
            sigma[0] == 1,
            sigma[-1] == q,
            all(a < b for a, b in zip(sigma, sigma[1:])),
            sigma[:head] == tuple(range(1, head + 1)),
            all(b <= math.ceil(a * (1 + eps))
                for a, b in zip(sigma, sigma[1:])),
        ]
        if not all(checks):
            bad.append(f"Q={q} eps={eps}: {checks}")
    _report(7, "threshold schedule properties on 50 (Q, eps) pairs",
            not bad, "; ".join(bad[:3]))


def test_criterion_8_transform_audit():
    inst = stress_instance()
    sol = solve_exact(inst)
    params = TransformParams(gamma=2, groups=3)
    sched = thresholds(inst.capacity, EPS)
    sampled_costs = []
    bad = []
    retries = 0
    for seed in range(100):
        try:
            inst2, sol2, rep = transform(inst, sol, EPS, params, seed)
        except TransformInfeasible:
            retries += 1
            continue
        sampled_costs.append(rep.sampled_cost)
        if not check_feasible(inst2, sol2).ok:
            bad.append(f"seed {seed}: infeasible")
        if sol2.total_cost - sol.total_cost != \
                2 * (rep.sampled_cost - rep.shortcut_savings):
            bad.append(f"seed {seed}: bookkeeping")
        if not profile_complexity(inst2, sol2, sched, params).ok:
            bad.append(f"seed {seed}: big bucket over g distinct sizes")
    mean = statistics.mean(sampled_costs)
    se = statistics.stdev(sampled_costs) / math.sqrt(len(sampled_costs))
    expected = EPS * sol.total_cost
    if se and abs(mean - expected) > 3 * se:
        bad.append(f"sampling mean {mean} vs {expected} (3*SE={3 * se:.1f})")
    _report(8, "structure-transform audit over 100 seeds", not bad,
            f"retry rate {retries}/100; " + "; ".join(bad[:3]))


def test_criterion_9_bench_determinism():
    config = {
        "instances": [{"shape": "random", "n": 7, "Q": 3, "seeds": [0, 1, 2]},
                      {"shape": "star", "n": 4, "Q": 2, "seeds": [7]}],
        "algorithms": ["exact", "itp", "bicriteria", "qptas"],
        "eps": EPS,
    }
    first = run_suite(config)
    second = run_suite(config)
    _report(9, "bench reruns are byte-identical", first == second,
            f"{len(first.splitlines())} CSV lines")
