"""Command-line front end: solve, generate, verify, oracle, bench."""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import oracle
from .driver import solve
from .errors import (
    GraphBalanceError,
    InvariantViolation,
    ParseError,
    ValidationError,
)
from .instance import (
    SolveMode,
    format_fraction,
    generate_adversarial_path,
    generate_general,
    generate_two_valued,
    parse_fraction,
    parse_instance,
    serialize_instance,
)
from .preprocess import Declaration

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INTERNAL = 2

_MODES = {
    "auto": SolveMode.AUTO,
    "two-valued": SolveMode.TWO_VALUED,
    "general": SolveMode.GENERAL,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are input errors, not defects
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _beta(text: str) -> Fraction:
    try:
        return parse_fraction(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an exact fraction p/q, got {text!r}"
        ) from None


def _read_instance(path: str):
    return parse_instance(Path(path).read_text(encoding="utf-8"))


def _write_output(text: str, out: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cmd_solve(args) -> int:
    instance = _read_instance(args.instance)
    mode = _MODES[args.mode]
    if mode == SolveMode.GENERAL and args.beta is None:
        raise ValidationError(["--beta p/q is required in general mode"])
    trace: list | None = [] if args.trace else None
    solution = solve(instance, mode, args.beta, trace=trace)
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            for event in trace:
                fh.write(json.dumps(event) + "\n")
    _write_output(json.dumps(solution.to_json(), indent=1), args.out)
    return EXIT_OK


def _cmd_generate(args) -> int:
    try:
        if args.family == "two-valued":
            instance = generate_two_valued(
                args.m,
                args.heavy,
                args.light,
                args.W,
                args.w,
                args.m if args.max_light_degree is None else args.max_light_degree,
                args.seed,
            )
        elif args.family == "general":
            instance = generate_general(args.m, args.n, args.beta, args.Wmax, args.seed)
        else:
            instance = generate_adversarial_path(args.k, args.scale)
    except ValueError as exc:  # the generators refuse out-of-range sizes
        raise ValidationError([str(exc)]) from None
    _write_output(serialize_instance(instance), args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    instance = _read_instance(args.instance)
    doc = json.loads(Path(args.result).read_text(encoding="utf-8"))
    if not isinstance(doc, dict):
        raise ParseError("result file must hold a JSON object")
    if "assignment" in doc:
        assignment = doc["assignment"]
        if not isinstance(assignment, dict) or not all(
            isinstance(v, str) for v in assignment.values()
        ):
            raise ParseError("'assignment' must map job ids to machine ids")
        if "makespan" in doc and type(doc["makespan"]) is not int:
            raise ParseError("'makespan' must be an integer")
        valid, makespan = oracle.verify_solution(instance, assignment)
        if not valid:
            print("invalid: assignment does not cover the jobs legally")
            return EXIT_INPUT
        if "makespan" in doc and doc["makespan"] != makespan:
            print(f"invalid: stored makespan {doc['makespan']} != recomputed {makespan}")
            return EXIT_INPUT
        print(f"valid: makespan {makespan}")
        return EXIT_OK
    if "kind" in doc:
        declaration = Declaration.from_json(doc)
        verdict = oracle.verify_certificate(instance, declaration)
        print(f"{verdict}: OPT >= {declaration.t + 1} ({declaration.kind})")
        return EXIT_OK if verdict == oracle.CONFIRMED else EXIT_INPUT
    raise ParseError("result file is neither a solution nor a declaration")


def _cmd_oracle(args) -> int:
    instance = _read_instance(args.instance)
    if args.t is not None:
        feasible = oracle.feasible_at(instance, args.t)
        _write_output(json.dumps({"t": args.t, "feasible": feasible}), None)
    else:
        _write_output(json.dumps({"opt": oracle.exact_opt(instance)}), None)
    return EXIT_OK


def _bench_one(path: Path):
    instance = parse_instance(path.read_text(encoding="utf-8"))
    started = time.perf_counter()
    solution = solve(instance)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    return {
        "instance": path.name,
        "makespan": solution.makespan,
        "t_star": solution.t_star,
        "lower_bound": solution.lower_bound,
        "ratio": format_fraction(solution.ratio_certified),
        "cores": solution.cores_invoked,
        "pushes": solution.pushes,
        "ms": f"{elapsed_ms:.1f}",
    }


def _cmd_bench(args) -> int:
    paths = sorted(Path(args.dir).glob("*.json"))
    if not paths:
        raise ParseError(f"no *.json instances under {args.dir}")
    rows = [_bench_one(p) for p in paths]
    buffer = io.StringIO()
    writer = csv.DictWriter(
        buffer,
        fieldnames=[
            "instance", "makespan", "t_star", "lower_bound",
            "ratio", "cores", "pushes", "ms",
        ],
    )
    writer.writeheader()
    writer.writerows(rows)
    _write_output(buffer.getvalue(), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="graphbalance")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("solve", help="solve an instance file")
    p.add_argument("instance")
    p.add_argument("--mode", choices=sorted(_MODES), default="auto")
    p.add_argument(
        "--beta",
        type=_beta,
        help="exact fraction p/q (required with --mode general)",
    )
    p.add_argument("--trace", help="write a JSON-lines event trace here")
    p.add_argument("--out", help="write the solution JSON here instead of stdout")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("generate", help="write a deterministic instance")
    fam = p.add_subparsers(dest="family", required=True, parser_class=_Parser)
    tv = fam.add_parser("two-valued")
    tv.add_argument("--m", type=int, required=True)
    tv.add_argument("--heavy", type=int, required=True)
    tv.add_argument("--light", type=int, required=True)
    tv.add_argument("--W", type=int, required=True)
    tv.add_argument("--w", type=int, required=True)
    tv.add_argument("--max-light-degree", type=int, default=None)
    tv.add_argument("--seed", type=int, required=True)
    tv.add_argument("--out")
    ge = fam.add_parser("general")
    ge.add_argument("--m", type=int, required=True)
    ge.add_argument("--n", type=int, required=True)
    ge.add_argument("--beta", type=_beta, required=True)
    ge.add_argument("--Wmax", type=int, required=True)
    ge.add_argument("--seed", type=int, required=True)
    ge.add_argument("--out")
    ap = fam.add_parser("adversarial-path")
    ap.add_argument("--k", type=int, required=True)
    ap.add_argument("--scale", type=int, required=True)
    ap.add_argument("--out")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("verify", help="check a solution or declaration")
    p.add_argument("instance")
    p.add_argument("result")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("oracle", help="exact optimum or feasibility at --t")
    p.add_argument("instance")
    p.add_argument("--t", type=int, default=None)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("bench", help="solve a corpus and emit CSV")
    p.add_argument("--dir", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvariantViolation as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (GraphBalanceError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # a defect, not bad input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
