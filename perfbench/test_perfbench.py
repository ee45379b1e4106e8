"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import check
import run
import tracing
import workloads

HERE = Path(__file__).resolve().parent


# Prints a hash of every input of one workload and seed.
BUILD_DIGEST = (
    "import hashlib, sys; sys.path.insert(0, sys.argv[1]); import workloads;"
    "w, s = sys.argv[2], int(sys.argv[3]);"
    "cases = workloads.build(w, s) + workloads.side_set(w, s);"
    "print(hashlib.sha256(''.join(c.name + c.text() + str(c.beta) + str(c.expected_opt)"
    " for c in cases).encode()).hexdigest())"
)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_a_pure_function_of_the_seed(workload):
    assert workloads.build(workload, 3) == workloads.build(workload, 3)
    assert workloads.side_set(workload, 3) == workloads.side_set(workload, 3)
    assert workloads.build(workload, 3) != workloads.build(workload, 4)
    digests = set()
    for hash_seed in ("0", "1", "random"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed}
        out = subprocess.run(
            [sys.executable, "-c", BUILD_DIGEST, str(HERE), workload, "3"],
            env=env, capture_output=True, text=True, check=True,
        )
        digests.add(out.stdout.strip())
    assert len(digests) == 1


def test_failing_chains_do_not_depend_on_the_seed():
    def failing(seed):
        names = {f"chain-m{m}" for m in workloads.FAILING_CHAIN_LENGTHS}
        return [c for c in workloads.build("long-paths", seed) if c.name in names]

    assert failing(1) == failing(2)
    assert len(failing(1)) == len(workloads.FAILING_CHAIN_LENGTHS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_side_sets_fit_the_brute_force(workload):
    for case in workloads.side_set(workload, 5):
        multi = [j for j in case.doc["jobs"] if len(j["eligible"]) >= 2]
        assert len(multi) <= check.BRUTE_FORCE_JOBS
        if case.expected_opt is not None:
            assert check.brute_force_opt(case.doc) == case.expected_opt


@pytest.fixture(scope="module")
def program():
    return run.import_program()


def test_brute_force_agrees_with_the_programs_oracle(program):
    oracle = program.oracle
    for workload in workloads.WORKLOADS:
        for case in workloads.side_set(workload, 7):
            instance = program.instance.parse_instance(case.text())
            assert check.brute_force_opt(case.doc) == oracle.exact_opt(instance)


def _solved(program, workload="two-valued-mix", seed=2):
    case = next(
        c for c in workloads.side_set(workload, seed)
        if len({j["weight"] for j in c.doc["jobs"]}) == 2
    )
    instance = program.instance.parse_instance(case.text())
    op, errors = run.run_op(program, case, instance)
    assert errors == [] and not op.failed
    return case, program.driver.solve(instance)


def test_checker_accepts_a_real_result(program):
    for workload in workloads.WORKLOADS:
        for case in workloads.side_set(workload, 1):
            case = replace(case, expected_opt=None)
            op, errors = run.run_op(program, case, program.instance.parse_instance(case.text()))
            assert errors == [] and not op.failed


def test_checker_rejects_a_job_on_an_ineligible_machine(program):
    case, sol = _solved(program)
    machines = [m["id"] for m in case.doc["machines"]]
    job = next(j for j in case.doc["jobs"] if len(j["eligible"]) < len(machines))
    tampered = dict(sol.assignment)
    tampered[job["id"]] = next(m for m in machines if m not in job["eligible"])
    errors = check.check_solution(
        case.doc, tampered, sol.makespan, sol.lower_bound, ["confirmed"]
    )
    assert any("ineligible" in e for e in errors)


def test_checker_rejects_a_makespan_above_the_bound(program):
    case, sol = _solved(program)
    bound = check.ratio_bound(case.doc)
    low = (sol.makespan * bound.denominator) // bound.numerator - 1
    errors = check.check_solution(case.doc, sol.assignment, sol.makespan, low, [])
    assert any(f"> {bound} * lower bound" in e for e in errors)
    errors = check.check_solution(
        case.doc, sol.assignment, sol.makespan + 1, sol.lower_bound, []
    )
    assert any("recomputed" in e for e in errors)


def test_checker_rejects_a_lower_bound_above_the_optimum(program):
    case, sol = _solved(program)
    opt = check.brute_force_opt(case.doc)
    assert check.check_against_opt(case.doc, sol.makespan, sol.lower_bound, opt) == []
    errors = check.check_against_opt(case.doc, sol.makespan, opt + 1, opt)
    assert any("brute-force optimum" in e for e in errors)


def test_checker_rejects_an_unconfirmed_declaration_and_a_missed_closed_form(program):
    case, sol = _solved(program)
    args = (case.doc, sol.assignment, sol.makespan, sol.lower_bound)
    assert check.check_solution(*args, ["confirmed", "needs_exhaustive"])
    assert check.check_solution(*args, [], expected_opt=sol.makespan - 1)


def test_ratio_bounds_follow_the_paper():
    def doc(jobs):
        return {"machines": [], "jobs": [
            {"id": str(i), "weight": w, "eligible": list(e)} for i, (w, e) in enumerate(jobs)
        ]}

    assert check.ratio_bound(doc([(10, "ab"), (4, "abc")])) == 1 + Fraction(5, 10)
    assert check.ratio_bound(doc([(11, "ab"), (4, "abc")])) == 1 + Fraction(5, 11)
    assert check.ratio_bound(doc([(10, "ab"), (6, "abc")])) == Fraction(3, 2)
    general = doc([(10, "ab"), (7, "abc"), (3, "bc")])
    assert check.ratio_bound(general) == Fraction(5, 3) + Fraction(7, 10) / 3
    assert check.ratio_bound(doc([(10, "ab"), (2, "abc"), (3, "bc")])) == (
        Fraction(5, 3) + Fraction(4, 7) / 3
    )
    assert check.ratio_bound(general, Fraction(9, 10)) == Fraction(5, 3) + Fraction(3, 10)


def test_traced_and_untraced_rounds_give_the_same_digest(program):
    cases = workloads.side_set("general-ladder", 4) + workloads.side_set("two-valued-mix", 4)
    instances = [program.instance.parse_instance(c.text()) for c in cases]
    plain = run.Rounds()
    plain.run_round(program, cases, instances)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run.Rounds()
        traced.run_round(program, cases, instances, tracer)
    finally:
        tracer.uninstall()
    assert plain.errors == traced.errors == []
    assert plain.digest() == traced.digest()
    _, calls = tracer.totals()
    assert calls["driver.solve"] == len(cases)
    assert calls["preprocess.reduce"] == sum(op.guesses for op in traced.first)
    assert program.driver.solve.__name__ == "solve"
    assert not hasattr(program.driver.solve, "__wrapped__")


def test_refuses_to_run_without_the_programs_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "long-paths", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert not any(line.startswith("{") for line in out.stdout.splitlines())


def test_result_line_has_the_agreed_shape(monkeypatch, tmp_path, capsys):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    small = {w: workloads.side_set(w, 1, 3) for w in workloads.WORKLOADS}
    monkeypatch.setattr(workloads, "build", lambda workload, seed: small[workload])
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "OUT", tmp_path)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        args = ["--workload", "general-ladder", "--seed", "1", "--seconds", "0", "--trace", str(trace)]
        assert run.main(args) == 0
        result = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] == 3 * (1 + trace)
        assert {n: m["unit"] for n, m in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in spec[key]
        }
