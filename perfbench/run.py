"""Seeded benchmark of graphbalance: solve plus re-check, end to end and per layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload general-ladder --seed 1 --seconds 30 --trace 0

The benchmark imports the package from ``src/`` of the checkout it sits in,
builds the workload's instances from the seed, hands them to the program as
JSON text through ``parse_instance``, and repeats whole rounds of operations
(one ``solve`` and its re-check each) until another round would overrun
``--seconds``; it always completes one.  Checks run outside the timed spans.
The last line of standard output is one JSON object with the metrics:
end-to-end ones with ``--trace 0``, per-layer ones with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import resource
import statistics
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter, perf_counter_ns

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3
SIDE_SET_SIZE = 12


class SetupError(Exception):
    """The checkout does not hold the program's sources."""


@dataclass
class Program:
    driver: object
    oracle: object
    instance: object


@dataclass
class Op:
    """What the benchmark keeps of one solve and its re-check."""

    case: workloads.Case
    failed: bool
    solve_ns: int
    verify_ns: int = 0
    line: str = ""  # canonical outputs, for the digest
    makespan: int = 0
    lower_bound: int = 0
    guesses: int = 0
    declared: int = 0
    pushes: int = 0


def import_program() -> Program:
    """Import graphbalance afresh from this checkout's ``src``."""
    if not (SRC / "graphbalance" / "__init__.py").is_file():
        raise SetupError(f"no graphbalance package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "graphbalance" or n.startswith("graphbalance.")]:
        del sys.modules[name]
    package = importlib.import_module("graphbalance")
    if Path(package.__file__).resolve().parent != SRC / "graphbalance":
        raise SetupError(f"graphbalance was imported from {package.__file__}, not {SRC}")
    return Program(
        importlib.import_module("graphbalance.driver"),
        importlib.import_module("graphbalance.oracle"),
        importlib.import_module("graphbalance.instance"),
    )


def set_up(program: Program | None, workload: str, seed: int):
    """Import (unless *program* is given), generate, serialize and parse."""
    if program is None:
        program = import_program()
    cases = workloads.build(workload, seed)
    instances = [program.instance.parse_instance(case.text()) for case in cases]
    return program, cases, instances


def run_op(program: Program, case: workloads.Case, instance) -> tuple[Op, list[str]]:
    """Solve and re-check one case the way ``graphbalance verify`` does, then
    check the result apart from the program.  Only the first part is timed."""
    driver, oracle = program.driver, program.oracle
    start = perf_counter_ns()
    try:
        if case.beta is None:
            sol = driver.solve(instance)
        else:
            sol = driver.solve(instance, program.instance.SolveMode.GENERAL, case.beta)
    except RecursionError:
        line = json.dumps({"case": case.name, "failed": "RecursionError"})
        return Op(case, True, perf_counter_ns() - start, line=line), []
    solved = perf_counter_ns()
    valid, makespan = oracle.verify_solution(instance, sol.assignment)
    verdicts = [
        oracle.verify_certificate(instance, d, allow_exhaustive=False)
        for d in sol.declarations
    ]
    done = perf_counter_ns()

    errors = []
    if not valid or makespan != sol.makespan:
        errors.append("the program's own re-check rejected the solution")
    errors += check.check_solution(
        case.doc, sol.assignment, sol.makespan, sol.lower_bound, verdicts,
        case.beta, case.expected_opt,
    )
    line = json.dumps(
        {
            "case": case.name,
            "assignment": sorted(sol.assignment.items()),
            "makespan": sol.makespan,
            "t_star": sol.t_star,
            "lower_bound": sol.lower_bound,
            "declarations": [d.to_json() for d in sol.declarations],
            "verdicts": verdicts,
        },
        sort_keys=True,
    )
    op = Op(
        case, False, solved - start, done - solved, line, sol.makespan,
        sol.lower_bound, sol.cores_invoked, len(sol.declarations), sol.pushes,
    )
    return op, [f"{case.name}: {e}" for e in errors]


class Rounds:
    """Whole rounds of operations over one workload's cases.

    Each case's solve and re-check times are the least over the rounds.
    Other tenants of a shared host slow the processor down for seconds to
    minutes; the least of several rounds spread over the run filters out the
    shorter slow-downs, which a median keeps.  A full collection runs before
    each operation, outside its timed span, so that no operation pays for the
    garbage of the one before it.
    """

    def __init__(self):
        self.first: list[Op] = []
        self.best_solve_ns: list[int] = []
        self.best_verify_ns: list[int] = []
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run_round(self, program, cases, instances, tracer=None) -> None:
        ops = []
        for index, (case, instance) in enumerate(zip(cases, instances)):
            if tracer is not None:
                tracer.op = index
            gc.collect()
            op, errors = run_op(program, case, instance)
            ops.append(op)
            if not self.first:
                self.errors += errors
        self.rounds += 1
        self.attempted += len(ops)
        self.failed += sum(op.failed for op in ops)
        if not self.first:
            self.first = ops
            self.best_solve_ns = [op.solve_ns for op in ops]
            self.best_verify_ns = [op.verify_ns for op in ops]
            return
        if [op.line for op in ops] != [op.line for op in self.first]:
            self.errors.append("a round gave other outputs than the first")
        for i, op in enumerate(ops):
            self.best_solve_ns[i] = min(self.best_solve_ns[i], op.solve_ns)
            self.best_verify_ns[i] = min(self.best_verify_ns[i], op.verify_ns)

    def solve_s(self) -> list[float]:
        """Least solve time of each case that did not fail."""
        return [ns / 1e9 for op, ns in zip(self.first, self.best_solve_ns) if not op.failed]

    def total_ns(self) -> int:
        return sum(self.best_solve_ns) + sum(self.best_verify_ns)

    def digest(self) -> str:
        text = "\n".join(op.line for op in self.first)
        return hashlib.sha256(text.encode()).hexdigest()


def repeat(seconds: float, body) -> None:
    """Call *body* until another call would overrun *seconds*; at least once."""
    started = perf_counter()
    calls, last = 0, 0.0
    while not calls or perf_counter() - started + last <= seconds:
        begun = perf_counter()
        body()
        calls += 1
        last = perf_counter() - begun


def side_set_errors(program: Program, workload: str, seed: int) -> list[str]:
    """Solve small cases and compare them with a brute-force optimum."""
    errors = []
    for case in workloads.side_set(workload, seed, SIDE_SET_SIZE):
        instance = program.instance.parse_instance(case.text())
        # The closed form is checked against the brute force here: the
        # program meets it on long paths only, not on these short ones.
        op, found = run_op(program, replace(case, expected_opt=None), instance)
        if op.failed:
            errors.append(f"{case.name}: solve failed")
            continue
        opt = check.brute_force_opt(case.doc)
        errors += found
        errors += [
            f"{case.name}: {e}"
            for e in check.check_against_opt(
                case.doc, op.makespan, op.lower_bound, opt, case.beta
            )
        ]
        if case.expected_opt is not None and case.expected_opt != opt:
            errors.append(f"{case.name}: closed form {case.expected_opt} != optimum {opt}")
    return [f"side set {e}" for e in errors]


def end_to_end(rounds: Rounds, setup_s: list[float]) -> dict:
    solve_s = rounds.solve_s()
    done = [op for op in rounds.first if not op.failed]
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "solve_ms_p50": (statistics.median(solve_s) * 1e3, "ms"),
        "solves_per_s": (len(solve_s) / sum(solve_s), "1/s"),
        "verify_s": (sum(rounds.best_verify_ns) / 1e9, "s"),
        "ratio_mean": (statistics.fmean(op.makespan / op.lower_bound for op in done), "ratio"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def per_layer(tracer: tracing.Tracer, traced: Rounds, untraced: Rounds) -> dict:
    """Layer times in ms and counts per traced round; parsing is timed once,
    over the workload's inputs.  The overhead compares the least times of
    the traced and the untraced rounds."""
    ns, calls = tracer.totals()
    hits = tracer.hits
    n = traced.rounds

    def ms(name):
        return ns[name] / n / 1e6, "ms"

    def count(name):
        return calls[name] / n, "count"

    def hit_ratio(name):
        return (hits[name] / calls[name] if calls[name] else 0.0), "ratio"

    overhead = traced.total_ns() / untraced.total_ns()
    return {
        "general.find_push_ms": ms("general.find_push"),
        "general.find_push_calls": count("general.find_push"),
        "general.push_hit_ratio": hit_ratio("general.find_push"),
        "general.explore_ms": ms("general.explore"),
        "general.explore_calls": count("general.explore"),
        "general.forced_ms": ms("general.forced"),
        "general.forced_calls": count("general.forced"),
        "general.run_ms": ms("general.run"),
        "two_valued.label_levels_ms": ms("two_valued.label_levels"),
        "two_valued.label_levels_calls": count("two_valued.label_levels"),
        "two_valued.find_push_calls": count("two_valued.find_push"),
        "two_valued.push_hit_ratio": hit_ratio("two_valued.find_push"),
        "two_valued.run_ms": ms("two_valued.run"),
        "relief.run_ms": ms("relief.run"),
        "relief.calls": count("relief.run"),
        "matching.run_ms": ms("matching.run"),
        "matching.calls": count("matching.run"),
        "preprocess.reduce_ms": ms("preprocess.reduce"),
        "preprocess.reduce_calls": count("preprocess.reduce"),
        "preprocess.reduce_declared": (hits["preprocess.reduce"] / n, "count"),
        "preprocess.min_edge_load_into_ms": ms("preprocess.min_edge_load_into"),
        "preprocess.min_edge_load_into_calls": count("preprocess.min_edge_load_into"),
        "oracle.verify_certificate_ms": ms("oracle.verify_certificate"),
        "oracle.certificates": count("oracle.verify_certificate"),
        "driver.guesses": (sum(op.guesses for op in traced.first), "count"),
        "driver.declared_guesses": (sum(op.declared for op in traced.first), "count"),
        "driver.pushes": (sum(op.pushes for op in traced.first), "count"),
        "driver.verify_solution_ms": ms("driver.verify_solution"),
        "instance.parse_ms": (ns["instance.parse"] / 1e6, "ms"),
        "instance.validate_ms": ms("instance.validate"),
        "trace.overhead_pct": (100 * (overhead - 1), "%"),
    }


def untraced_run(workload: str, seed: int, seconds: float):
    setup_s = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        program, cases, instances = set_up(None, workload, seed)
        setup_s.append(perf_counter() - start)
    # Keep the inputs out of the collector's scans, as in a process that
    # holds one instance rather than a whole workload.
    gc.freeze()
    rounds = Rounds()
    repeat(seconds, lambda: rounds.run_round(program, cases, instances))
    errors = rounds.errors + side_set_errors(program, workload, seed)
    return rounds, errors, end_to_end(rounds, setup_s)


def traced_run(workload: str, seed: int, seconds: float):
    """Untraced and traced rounds in turn on the same inputs, so that both
    see the same state of the host; parsing is traced once, in the set-up."""
    program, cases, instances = set_up(None, workload, seed)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        set_up(program, workload, seed)
    finally:
        tracer.uninstall()
    gc.freeze()
    untraced, traced = Rounds(), Rounds()

    def pair():
        untraced.run_round(program, cases, instances)
        tracer.install()
        try:
            traced.run_round(program, cases, instances, tracer)
        finally:
            tracer.uninstall()

    repeat(seconds, pair)
    errors = untraced.errors + traced.errors + side_set_errors(program, workload, seed)
    if traced.digest() != untraced.digest():
        errors.append("traced and untraced rounds gave other outputs")
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"{workload}-seed{seed}.spans.jsonl")
    metrics = per_layer(tracer, traced, untraced)
    traced.attempted += untraced.attempted
    traced.failed += untraced.failed
    return traced, errors, metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    run = traced_run if args.trace else untraced_run
    try:
        rounds, errors, metrics = run(args.workload, args.seed, args.seconds)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for error in errors[:20]:
        print(f"perfbench: check failed: {error}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": rounds.attempted,
        "failed": rounds.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": rounds.rounds, "digest": rounds.digest(), "errors": errors,
        **result,
        "ops": [
            {"case": op.case.name, "failed": op.failed, "solve_ms": solve_ns / 1e6,
             "verify_ms": verify_ns / 1e6, "guesses": op.guesses, "pushes": op.pushes}
            for op, solve_ns, verify_ns in zip(
                rounds.first, rounds.best_solve_ns, rounds.best_verify_ns
            )
        ],
    }
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for key, (value, unit) in metrics.items():
        print(f"{key:36s} {value:14.6g} {unit}")
    print(f"rounds {rounds.rounds}  attempted {result['attempted']}  failed {result['failed']}")
    print(f"digest {args.workload} seed={args.seed} {rounds.digest()}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
