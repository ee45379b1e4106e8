"""Command-line interface: every subcommand plus exit-code conventions."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from graphbalance.cli import main

from conftest import AUTO_MODE_DECLARATIONS, AUTO_MODE_INSTANCE, build
from graphbalance import InvariantViolation, serialize_instance


def run(args):
    return main(list(args))


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "inst.json"
    assert run(
        [
            "generate", "two-valued", "--m", "4", "--heavy", "3", "--light", "5",
            "--W", "10", "--w", "3", "--seed", "1", "--out", str(path),
        ]
    ) == 0
    return path


def test_generate_is_deterministic(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        assert run(
            [
                "generate", "two-valued", "--m", "4", "--heavy", "3", "--light", "5",
                "--W", "10", "--w", "3", "--seed", "1", "--out", str(p),
            ]
        ) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_solve_verify_round_trip(tmp_path, instance_file):
    solution = tmp_path / "sol.json"
    assert run(["solve", str(instance_file), "--out", str(solution)]) == 0
    doc = json.loads(solution.read_text())
    assert set(doc) == {
        "assignment", "makespan", "t_star", "lower_bound", "ratio_certified",
    }
    assert run(["verify", str(instance_file), str(solution)]) == 0


def test_solve_verify_round_trip_as_separate_processes(tmp_path, instance_file):
    solution = tmp_path / "sol.json"
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    base = [sys.executable, "-m", "graphbalance.cli"]
    ran = subprocess.run(
        base + ["solve", str(instance_file), "--out", str(solution)],
        env=env, capture_output=True, text=True,
    )
    assert ran.returncode == 0, ran.stderr
    ran = subprocess.run(
        base + ["verify", str(instance_file), str(solution)],
        env=env, capture_output=True, text=True,
    )
    assert ran.returncode == 0, ran.stderr
    assert ran.stdout.startswith("valid")


def test_verify_rejects_tampered_solution(tmp_path, instance_file):
    solution = tmp_path / "sol.json"
    assert run(["solve", str(instance_file), "--out", str(solution)]) == 0
    doc = json.loads(solution.read_text())
    victim = next(iter(doc["assignment"]))
    doc["assignment"].pop(victim)
    solution.write_text(json.dumps(doc))
    assert run(["verify", str(instance_file), str(solution)]) == 1


def test_solve_general_requires_beta(instance_file):
    assert run(["solve", str(instance_file), "--mode", "general"]) == 1


def test_solve_general_adversarial_path(tmp_path, capsys):
    path_file = tmp_path / "path.json"
    assert run(
        ["generate", "adversarial-path", "--k", "2", "--scale", "100",
         "--out", str(path_file)]
    ) == 0
    out_file = tmp_path / "sol.json"
    assert run(
        ["solve", str(path_file), "--mode", "general", "--beta", "7/10",
         "--out", str(out_file)]
    ) == 0
    doc = json.loads(out_file.read_text())
    num, _, den = doc["ratio_certified"].partition("/")
    ratio = int(num) / int(den or "1")
    assert ratio <= 1.9


def test_trace_is_json_lines(tmp_path, instance_file):
    trace = tmp_path / "trace.jsonl"
    assert run(["solve", str(instance_file), "--trace", str(trace)]) == 0
    lines = trace.read_text().strip().splitlines()
    assert lines
    for line in lines:
        event = json.loads(line)
        assert "t" in event and "stage" in event


def test_oracle_outputs(tmp_path, instance_file, capsys):
    assert run(["oracle", str(instance_file)]) == 0
    opt = json.loads(capsys.readouterr().out)["opt"]
    assert run(["oracle", str(instance_file), "--t", str(opt)]) == 0
    assert json.loads(capsys.readouterr().out)["feasible"] is True
    assert run(["oracle", str(instance_file), "--t", str(opt - 1)]) == 0
    assert json.loads(capsys.readouterr().out)["feasible"] is False


def test_unreadable_file_is_input_error(tmp_path):
    assert run(["solve", str(tmp_path / "missing.json")]) == 1


def test_unparseable_instance_is_input_error(tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{nope")
    assert run(["solve", str(broken)]) == 1


def test_refused_instance_is_input_error(tmp_path, capsys):
    refused = tmp_path / "refused.json"
    refused.write_text('{"machines": [], "jobs": [], "extra": 1}')
    assert run(["solve", str(refused)]) == 1
    err = capsys.readouterr().err
    assert "unknown top-level fields: ['extra']" in err
    assert "internal error" not in err


@pytest.mark.parametrize("beta", ("1/2", "3/2"))
def test_beta_outside_the_range_is_input_error_in_auto_mode(instance_file, beta, capsys):
    # the instance resolves to two_valued, where no beta is used
    assert run(["solve", str(instance_file), "--beta", beta]) == 1
    assert "beta must lie in [4/7, 1)" in capsys.readouterr().err


def test_unexpected_exception_is_internal_error(instance_file, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr("graphbalance.cli.solve", broken)
    assert run(["solve", str(instance_file)]) == 2
    assert "internal error: RecursionError" in capsys.readouterr().err


def test_invariant_violation_is_internal_error(instance_file, monkeypatch, capsys):
    # a GraphBalanceError, yet a defect rather than bad input
    def broken(*args, **kwargs):
        raise InvariantViolation("potential did not drop: 3 -> 3")

    monkeypatch.setattr("graphbalance.cli.solve", broken)
    assert run(["solve", str(instance_file)]) == 2
    err = capsys.readouterr().err
    assert "internal invariant violation: potential did not drop" in err


def test_unknown_flag_is_input_error(instance_file):
    with pytest.raises(SystemExit) as err:
        run(["solve", str(instance_file), "--frobnicate"])
    assert err.value.code == 1


def exit_code(args):
    """The exit code, whether ``main`` returns it or argparse exits with it."""
    try:
        return run(args)
    except SystemExit as exc:
        return exc.code


def beta_args(instance_file, command):
    if command == "solve":
        return ["solve", str(instance_file), "--mode", "general"]
    return ["generate", "general", "--m", "4", "--n", "8", "--Wmax", "10", "--seed", "1"]


@pytest.mark.parametrize("command", ("solve", "generate"))
@pytest.mark.parametrize("beta", ("abc", "0.7", "1/0"))
def test_unreadable_beta_is_input_error(instance_file, command, beta):
    assert exit_code(beta_args(instance_file, command) + ["--beta", beta]) == 1


@pytest.mark.parametrize("command", ("solve", "generate"))
def test_unreadable_beta_message_asks_for_a_fraction(instance_file, command, capsys):
    assert exit_code(beta_args(instance_file, command) + ["--beta", "abc"]) == 1
    err = capsys.readouterr().err
    assert "argument --beta: expected an exact fraction p/q, got 'abc'" in err
    assert "parse_fraction" not in err


def test_generator_size_out_of_range_is_input_error(capsys):
    assert exit_code(
        ["generate", "two-valued", "--m", "1", "--heavy", "3", "--light", "5",
         "--W", "10", "--w", "3", "--seed", "1"]
    ) == 1
    assert "internal error" not in capsys.readouterr().err


@pytest.mark.parametrize("degree", ("0", "1"))
def test_max_light_degree_below_two_is_input_error(tmp_path, degree, capsys):
    out = tmp_path / "inst.json"
    assert exit_code(
        ["generate", "two-valued", "--m", "4", "--heavy", "3", "--light", "5",
         "--W", "10", "--w", "3", "--max-light-degree", degree, "--seed", "1",
         "--out", str(out)]
    ) == 1
    assert "max_light_degree must lie in [2, m]" in capsys.readouterr().err
    assert not out.exists()


HALL = {"jobs": ["h0"], "mode": "two_valued"}


@pytest.mark.parametrize(
    "result",
    (
        5,
        "assignment",
        {"assignment": 5},
        {"kind": "hall_violation"},
        {"t": "x", "kind": "hall_violation", "payload": HALL},
        {"t": 12.9, "kind": "hall_violation", "payload": HALL},
        {"t": True, "kind": "hall_violation", "payload": HALL},
        {"t": 12, "kind": "hall_violation", "payload": {**HALL, "jobs": 5}},
        {"t": 12, "kind": "dedicated_overflow",
         "payload": {"machine": ["m0"], "mode": "two_valued"}},
    ),
    ids=(
        "number", "string", "assignment-number", "no-t", "t-string", "t-float",
        "t-bool", "jobs-number", "machine-list",
    ),
)
def test_malformed_result_file_is_input_error(tmp_path, instance_file, result, capsys):
    path = tmp_path / "result.json"
    path.write_text(json.dumps(result))
    assert exit_code(["verify", str(instance_file), str(path)]) == 1
    assert "internal error" not in capsys.readouterr().err


@pytest.mark.parametrize("stored", (True, 1.0, "1"), ids=("bool", "float", "string"))
def test_verify_requires_an_integer_makespan(tmp_path, stored, capsys):
    inst_file = tmp_path / "inst.json"
    inst_file.write_text(serialize_instance(build([("a", 0)], [("x", 1, ["a"])])))
    result = tmp_path / "sol.json"
    result.write_text(json.dumps({"assignment": {"x": "a"}, "makespan": stored}))
    assert exit_code(["verify", str(inst_file), str(result)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "'makespan' must be an integer" in err


def test_declaration_verify_path(tmp_path):
    inst = build(
        [("a", 0), ("b", 0)],
        [("x", 5, ["a", "b"]), ("y", 5, ["a", "b"]), ("z", 5, ["a", "b"])],
    )
    inst_file = tmp_path / "inst.json"
    inst_file.write_text(serialize_instance(inst))
    decl_file = tmp_path / "decl.json"
    decl_file.write_text(
        json.dumps(
            {
                "t": 5,
                "kind": "multi_cycle_component",
                "payload": {"nodes": ["a", "b"], "edges": ["x", "y", "z"]},
            }
        )
    )
    assert run(["verify", str(inst_file), str(decl_file)]) == 0


def test_activated_set_below_the_heaviest_job_gets_a_verdict(tmp_path, capsys):
    # at t = 5 each weight-10 job overfills whichever of a and b takes it:
    # the claim holds, and a guess below the heaviest job is no input error
    inst_file = tmp_path / "inst.json"
    inst_file.write_text(serialize_instance(build(*AUTO_MODE_INSTANCE)))
    payload = {"activated": ["a"], "placement": {}, "pl": {}, "mode": "general", "beta": "7/10"}
    decl_file = tmp_path / "decl.json"
    decl_file.write_text(json.dumps({"t": 5, "kind": "activated_set", "payload": payload}))
    assert run(["verify", str(inst_file), str(decl_file)]) == 0
    assert capsys.readouterr() == ("confirmed: OPT >= 6 (activated_set)\n", "")


@pytest.mark.parametrize("kind", sorted(AUTO_MODE_DECLARATIONS))
def test_declaration_in_auto_mode_is_input_error(tmp_path, kind, capsys):
    inst_file = tmp_path / "inst.json"
    inst_file.write_text(serialize_instance(build(*AUTO_MODE_INSTANCE)))
    decl_file = tmp_path / "decl.json"
    decl_file.write_text(
        json.dumps({"t": 10, "kind": kind, "payload": AUTO_MODE_DECLARATIONS[kind]})
    )
    assert run(["verify", str(inst_file), str(decl_file)]) == 1
    assert capsys.readouterr().err == (
        "error: payload 'mode' must be two_valued or general\n"
    )


class TestBench:
    @pytest.fixture
    def corpus(self, tmp_path):
        directory = tmp_path / "corpus"
        directory.mkdir()
        for seed in range(4):
            run(
                [
                    "generate", "two-valued", "--m", "4", "--heavy", "2",
                    "--light", "4", "--W", "9", "--w", "4",
                    "--seed", str(seed), "--out", str(directory / f"i{seed}.json"),
                ]
            )
        return directory

    def test_csv_shape_and_row_count(self, tmp_path, corpus):
        out = tmp_path / "bench.csv"
        assert run(["bench", "--dir", str(corpus), "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 4
        assert list(rows[0]) == [
            "instance", "makespan", "t_star", "lower_bound",
            "ratio", "cores", "pushes", "ms",
        ]

    def test_rows_follow_sorted_file_order(self, tmp_path, corpus):
        # a.json was written last, as i3.json, but it sorts first
        (corpus / "i3.json").rename(corpus / "a.json")
        out = tmp_path / "bench.csv"
        assert run(["bench", "--dir", str(corpus), "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert [row["instance"] for row in rows] == ["a.json", "i0.json", "i1.json", "i2.json"]

    def test_instance_fitting_no_mode_is_input_error(self, corpus, capsys):
        # a heavy job on three machines fits no mode
        bad = build([("a", 0), ("b", 0), ("c", 0)], [("j", 5, ["a", "b", "c"]), ("k", 9, ["a", "b", "c"])])
        (corpus / "zz.json").write_text(serialize_instance(bad))
        assert run(["bench", "--dir", str(corpus)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""

    def test_jobs_option_is_a_usage_error(self, corpus, capsys):
        # bench solves in one process; --jobs is not an option
        assert exit_code(["bench", "--dir", str(corpus), "--jobs", "2"]) == 1
        captured = capsys.readouterr()
        assert "unrecognized arguments: --jobs 2" in captured.err
        assert captured.out == ""

    def test_empty_corpus_is_input_error(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert run(["bench", "--dir", str(empty)]) == 1
