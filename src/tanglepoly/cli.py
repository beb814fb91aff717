"""Command-line frontend.

Subcommands: ``compute`` (invariants of one diagram), ``fuzz`` (random-walk
invariance harness), ``sum`` (connected sum of two diagrams with an
additivity check), ``derivative`` (finite-type derivatives of a singular
diagram) and ``gen`` (prescribed-linking-number link generator).

Exit codes: 0 success, 2 parse/validation error or an input over one of the
bounds below, 3 singular input where a classical diagram is required, 4 fuzz
counterexample, 5 gluing incompatibility.  All output is deterministic given
inputs, flags and seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

# parse checks every input; validate stays bound in this module for bench/spans.py.
from .diagram import TangleDiagram, validate  # noqa: F401
from .gaussio import MAX_CHORDS, ParseError, parse, serialize
# the polynomials and vassiliev_derivative stay bound here for bench/spans.py.
from .invariants import (  # noqa: F401
    InvariantReport,
    _normal_form,
    invariant_report,
    laurent_linking_polynomial,
    linking_polynomial,
    self_crossing_polynomial,
)
from .laurent import zero
# random_walk stays bound in this module for bench/spans.py.
from .moves import DEFAULT_CHORD_CAP, iter_walk, random_walk  # noqa: F401
# check_additivity stays bound in this module for bench/spans.py.
from .ops import (  # noqa: F401
    GlueError,
    check_additivity,
    compare_additivity,
    connect,
    is_string_link,
    link_with_linking_numbers,
)
from .singular import all_resolutions, resolve, vassiliev_derivative  # noqa: F401

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_SINGULAR = 3
EXIT_FUZZ_FAIL = 4
EXIT_GLUE = 5

# Input bounds, checked before any work: derivative keeps its bound on k
# singular chords, though it resolves them only for k <= 1; gen builds a + b
# chords; fuzz makes trials * steps moves, each on a diagram of at most cap
# chords or the input's count; Fraction expands the digits of a coefficient
# (and 1e<k> to 10**k), so its text is bounded and exponent notation refused.
MAX_SINGULAR_CHORDS = 16
MAX_GEN_CHORDS = MAX_CHORDS  # so that gen output always parses back
MAX_FUZZ_STEPS = 10_000
MAX_FUZZ_TRIALS = 10_000
MAX_FUZZ_CAP = 1_000
MAX_RATIONAL_CHARS = 100


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _rational(text: str) -> Fraction:
    if len(text) > MAX_RATIONAL_CHARS:
        raise argparse.ArgumentTypeError(
            f"coefficient longer than {MAX_RATIONAL_CHARS} characters")
    if "e" in text.lower():
        raise argparse.ArgumentTypeError(f"exponent notation is not accepted: {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not an exact rational: {text!r}")


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise _CliError(EXIT_PARSE, f"cannot read {path}: {exc}")


def _load(path: str) -> TangleDiagram:
    try:
        diagram = parse(_read_input(path))
    except ParseError as exc:
        raise _CliError(EXIT_PARSE, f"{path}: {exc}")
    return diagram


def _matrix_lines(name: str, matrix) -> list[str]:
    lines = [f"{name}:"]
    for i, row in enumerate(matrix):
        cells = [("." if i == j else str(value)) for j, value in enumerate(row)]
        lines.append("  " + " ".join(cells))
    return lines


def _report_lines(report: InvariantReport) -> list[str]:
    lines = [
        f"components: {len(report.vlk)}",
        f"a: {report.a}",
        f"b: {report.b}",
        f"psc: {report.psc.render()}",
        f"plk: {report.plk.render()}",
        f"plkL: {report.plk_laurent.render()}",
    ]
    lines += _matrix_lines("vlk", report.vlk)
    lines += _matrix_lines("wriggle", report.wriggle)
    return lines


def _emit(args, text_lines: list[str], json_obj) -> None:
    if args.format == "json":
        print(json.dumps(json_obj, indent=2))
    else:
        print("\n".join(text_lines))


def _require_classical(diagram: TangleDiagram, path: str) -> None:
    if diagram.has_singular():
        raise _CliError(
            EXIT_SINGULAR,
            f"{path}: diagram has singular chords; use the derivative subcommand")


def _single_input(args) -> str:
    inputs = args.input or []
    if len(inputs) != 1:
        raise _CliError(EXIT_PARSE, "exactly one --input is required")
    return inputs[0]


def _cmd_compute(args) -> int:
    path = _single_input(args)
    diagram = _load(path)
    _require_classical(diagram, path)
    report = invariant_report(diagram, args.a, args.b)
    _emit(args, _report_lines(report), report.to_json_dict())
    return EXIT_OK


def _cmd_fuzz(args) -> int:
    if min(args.steps, args.trials, args.cap) < 0:
        raise _CliError(EXIT_PARSE, "steps, trials and cap must be nonnegative")
    for flag, value, bound in (("steps", args.steps, MAX_FUZZ_STEPS),
                               ("trials", args.trials, MAX_FUZZ_TRIALS),
                               ("cap", args.cap, MAX_FUZZ_CAP)):
        if value > bound:
            raise _CliError(EXIT_PARSE, f"fuzz takes --{flag} of at most {bound}")
    path = _single_input(args)
    diagram = _load(path)
    _require_classical(diagram, path)
    # equal normal forms are equal reports at every (a, b)
    baseline = _normal_form(diagram)
    moves_done = 0
    for trial in range(args.trials):
        walk = iter_walk(diagram, args.steps, args.seed * 1_000_003 + trial, cap=args.cap)
        before = next(walk)
        for step, after in enumerate(walk, 1):
            if after is before:
                continue  # no legal move: the walk repeated the diagram
            moves_done += 1
            if _normal_form(after) != baseline:
                failure = {
                    "ok": False,
                    "trial": trial,
                    "step": step,
                    "before": serialize(before),
                    "after": serialize(after),
                }
                # a serialized diagram ends in exactly one newline
                _emit(args, [f"FAIL trial={trial} step={step}",
                             "--- diagram before the move ---", failure["before"][:-1],
                             "--- diagram after the move ---", failure["after"][:-1]],
                      failure)
                return EXIT_FUZZ_FAIL
            before = after
    summary = {"ok": True, "trials": args.trials, "steps": args.steps,
               "moves": moves_done}
    _emit(args, [f"fuzz ok: trials={args.trials} steps={args.steps} "
                 f"moves={moves_done}"], summary)
    return EXIT_OK


def _cmd_sum(args) -> int:
    inputs = args.input or []
    if len(inputs) != 2:
        raise _CliError(EXIT_PARSE, "sum needs exactly two --input diagrams")
    upper = _load(inputs[0])
    lower = _load(inputs[1])
    _require_classical(upper, inputs[0])
    _require_classical(lower, inputs[1])
    try:
        glue = connect(upper, lower)
    except GlueError as exc:
        raise _CliError(EXIT_GLUE, str(exc))

    reports = {
        "upper": invariant_report(upper, args.a, args.b),
        "lower": invariant_report(lower, args.a, args.b),
        "sum": invariant_report(glue.diagram, args.a, args.b),
    }
    verdict = "n/a"
    if is_string_link(upper) and is_string_link(lower):
        checks = compare_additivity(glue, reports["sum"], reports["upper"],
                                    reports["lower"])
        verdict = "PASS" if all(checks.values()) else "FAIL"

    lines: list[str] = []
    for name, report in reports.items():
        lines.append(f"[{name}]")
        lines += _report_lines(report)
    lines.append("relations: " + " ".join(
        f"t{i}=u{j}" for i, j in glue.relations))
    lines.append(f"additivity: {verdict}")
    json_obj = {name: report.to_json_dict() for name, report in reports.items()}
    json_obj["relations"] = [list(pair) for pair in glue.relations]
    json_obj["additivity"] = verdict
    _emit(args, lines, json_obj)
    return EXIT_OK


def _cmd_derivative(args) -> int:
    path = _single_input(args)
    diagram = _load(path)
    singular_count = sum(1 for c in diagram.chords if not c.is_classical)
    if singular_count > MAX_SINGULAR_CHORDS:
        raise _CliError(
            EXIT_PARSE, f"{path}: {singular_count} singular chords; derivative "
            f"takes at most {MAX_SINGULAR_CHORDS} (it needs 2^k resolutions)")
    # Both resolutions of a singular chord weigh +frame at end_a, -frame at
    # end_b: each term depends on one choice at most, so k >= 2 sums to 0.
    psc = plk = plk_l = zero(len(diagram.components))
    if singular_count <= 1:
        for resolution in all_resolutions(diagram):
            report = invariant_report(resolve(diagram, resolution), args.a, args.b)
            psc += report.psc.scale(resolution.weight)
            plk += report.plk.scale(resolution.weight)
            plk_l += report.plk_laurent.scale(resolution.weight)
    lines = [
        f"singular chords: {singular_count}",
        f"a: {args.a}",
        f"b: {args.b}",
        f"psc: {psc.render()}",
        f"plk: {plk.render()}",
        f"plkL: {plk_l.render()}",
    ]
    json_obj = {
        "singular": singular_count,
        "psc": psc.to_json_terms(),
        "plk": {"a": str(args.a), "b": str(args.b), "value": plk.to_json_terms()},
        "plkL": {"a": str(args.a), "b": str(args.b), "value": plk_l.to_json_terms()},
    }
    _emit(args, lines, json_obj)
    return EXIT_OK


def _cmd_gen(args) -> int:
    if args.a_count < 0 or args.b_count < 0:
        raise _CliError(EXIT_PARSE, "gen needs nonnegative band sizes")
    if args.a_count + args.b_count > MAX_GEN_CHORDS:
        raise _CliError(EXIT_PARSE, f"gen builds at most {MAX_GEN_CHORDS} chords (a + b)")
    print(serialize(link_with_linking_numbers(args.a_count, args.b_count)), end="")
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tanglepoly",
        description="Index-polynomial invariants of virtual tangles")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--input", "-i", action="append",
                       help="Gauss-code file, or '-' for stdin")
        p.add_argument("--a", type=_rational, default=Fraction(1),
                       help="coefficient a as 'p/q' or integer (default 1)")
        p.add_argument("--b", type=_rational, default=Fraction(1),
                       help="coefficient b as 'p/q' or integer (default 1)")
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("compute", help="invariants of one diagram")
    common(p)
    p.set_defaults(handler=_cmd_compute)

    p = sub.add_parser("fuzz", help="random-walk invariance harness")
    common(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--cap", type=int, default=DEFAULT_CHORD_CAP,
                   help="chord-count cap during walks")
    p.set_defaults(handler=_cmd_fuzz)

    p = sub.add_parser("sum", help="connected sum of two diagrams")
    common(p)
    p.set_defaults(handler=_cmd_sum)

    p = sub.add_parser("derivative", help="finite-type derivatives")
    common(p)
    p.set_defaults(handler=_cmd_derivative)

    p = sub.add_parser("gen", help="link with prescribed linking numbers")
    p.add_argument("a_count", type=int, metavar="a")
    p.add_argument("b_count", type=int, metavar="b")
    p.set_defaults(handler=_cmd_gen)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except _CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
