"""Command-line frontend.

Subcommands: ``compute`` (invariants of one diagram), ``fuzz`` (random-walk
invariance harness), ``sum`` (connected sum of two diagrams with an
additivity check), ``derivative`` (finite-type derivatives of a singular
diagram) and ``gen`` (prescribed-linking-number link generator).

Exit codes: 0 success, 2 parse/validation error or an input over one of the
bounds below, 3 singular input where a classical diagram is required, 4 fuzz
counterexample, 5 gluing incompatibility, 141 stdout closed before the output
was written.  All output is deterministic given inputs, flags and seed.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from fractions import Fraction

# parse checks every input; validate stays bound in this module for bench/spans.py.
from .diagram import TangleDiagram, validate  # noqa: F401
from .gaussio import MAX_CHORDS, ParseError, parse, serialize
# the polynomials stay bound here for bench/spans.py.
from .invariants import (  # noqa: F401
    InvariantReport,
    _normal_form,
    invariant_report,
    laurent_linking_polynomial,
    linking_polynomial,
    self_crossing_polynomial,
)
from .laurent import as_parameter
# random_walk stays bound in this module for bench/spans.py.
from .moves import DEFAULT_CHORD_CAP, iter_walk, random_walk  # noqa: F401
from .ops import GlueError, check_additivity, connect, is_string_link, link_with_linking_numbers
from .singular import vassiliev_derivative

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_SINGULAR = 3
EXIT_FUZZ_FAIL = 4
EXIT_GLUE = 5
EXIT_PIPE = 141  # 128 + SIGPIPE, what a shell reports for cat in the same place

# Input bounds, checked before any work: gen builds a + b chords; fuzz makes
# trials * steps moves, each on a diagram of at most cap chords or the
# input's count.  as_parameter bounds the text of a coefficient.
MAX_GEN_CHORDS = MAX_CHORDS  # so that gen output always parses back
MAX_FUZZ_STEPS = 10_000
MAX_FUZZ_TRIALS = 10_000
MAX_FUZZ_CAP = 1_000


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _rational(text: str) -> Fraction:
    try:
        return as_parameter(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _read_input(path: str) -> str:
    try:
        if path == "-":
            # the bytes under stdin; a text-only stream (io.StringIO) is read as is
            data = getattr(sys.stdin, "buffer", sys.stdin).read()
        else:
            with open(path, "rb") as handle:
                data = handle.read()
    except OSError as exc:
        raise _CliError(EXIT_PARSE, f"cannot read {path}: {exc}")
    if isinstance(data, str):
        return data
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # lines counted as parse counts them, by str.splitlines
        line = len((data[:exc.start].decode("utf-8") + ".").splitlines())
        raise _CliError(EXIT_PARSE, f"{path}: byte 0x{data[exc.start]:02x} "
                        f"is not UTF-8 (line {line})")


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


def _poly_lines(a, b, psc, plk, plk_laurent) -> list[str]:
    """The text block that every report and derivative prints."""
    return [f"a: {a}", f"b: {b}", f"psc: {psc.render()}", f"plk: {plk.render()}",
            f"plkL: {plk_laurent.render()}"]


def _poly_json(a, b, psc, plk, plk_laurent) -> dict:
    """The JSON entries that every report and derivative prints."""
    return {
        "psc": psc.to_json_terms(),
        "plk": {"a": str(a), "b": str(b), "value": plk.to_json_terms()},
        "plkL": {"a": str(a), "b": str(b), "value": plk_laurent.to_json_terms()},
    }


def _report_lines(report: InvariantReport) -> list[str]:
    return [f"components: {len(report.vlk)}",
            *_poly_lines(report.a, report.b, report.psc, report.plk, report.plk_laurent),
            *_matrix_lines("vlk", report.vlk), *_matrix_lines("wriggle", report.wriggle)]


def _report_json(report: InvariantReport) -> dict:
    # _json_text writes the matrices' tuples as JSON lists
    return {**_poly_json(report.a, report.b, report.psc, report.plk, report.plk_laurent),
            "vlk": report.vlk, "wriggle": report.wriggle}


def _json_text(value, indent: str, string) -> str:
    """The text of ``json.dumps(value, indent=2)`` for the dicts with str
    keys, lists, tuples, strs, ints, True, False and None that the commands
    emit; any other type raises TypeError.  ``indent`` is a newline and the
    indentation of the line where ``value`` starts, a bare newline at the
    top; ``string`` is json's ASCII escaper,
    ``json.encoder.encode_basestring_ascii``.  The pieces are joined once."""
    parts: list[str] = []
    put = parts.append

    def write(value, indent: str) -> None:
        if isinstance(value, str):
            put(string(value))
        elif value is None or value is True or value is False:
            put("null" if value is None else "true" if value else "false")
        elif isinstance(value, int):
            put(int.__repr__(value))
        elif not isinstance(value, (dict, list, tuple)):
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        elif not value:
            put("{}" if isinstance(value, dict) else "[]")
        elif isinstance(value, dict):
            put("{")
            inner = sep = indent + "  "
            for key, item in value.items():
                put(f"{sep}{string(key)}: ")
                write(item, inner)
                sep = "," + inner
            put(indent + "}")
        elif {*map(type, value)} == {int}:  # every exps list and vlk row
            inner = indent + "  "
            put(f"[{inner}{(',' + inner).join(map(int.__repr__, value))}{indent}]")
        else:
            put("[")
            inner = sep = indent + "  "
            for item in value:
                put(sep)
                write(item, inner)
                sep = "," + inner
            put(indent + "]")

    write(value, indent)
    return "".join(parts)


def _emit(args, text_lines, json_obj) -> None:
    """Print the output in ``args.format``: ``text_lines`` and ``json_obj``
    take no arguments and build the lines of text and the JSON value, and
    only the one asked for is called."""
    if args.format == "json":
        import json  # here, so that text output does not pay for its import

        print(_json_text(json_obj(), "\n", json.encoder.encode_basestring_ascii))
    else:
        print("\n".join(text_lines()))


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
    _emit(args, lambda: _report_lines(report), lambda: _report_json(report))
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
                _emit(args, lambda: [f"FAIL trial={trial} step={step}",
                                     "--- diagram before the move ---", failure["before"][:-1],
                                     "--- diagram after the move ---", failure["after"][:-1]],
                      lambda: failure)
                return EXIT_FUZZ_FAIL
            before = after
    _emit(args, lambda: [f"fuzz ok: trials={args.trials} steps={args.steps} "
                         f"moves={moves_done}"],
          lambda: {"ok": True, "trials": args.trials, "steps": args.steps,
                   "moves": moves_done})
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
        checks = check_additivity(glue, reports["sum"], reports["upper"], reports["lower"])
        verdict = "PASS" if all(checks.values()) else "FAIL"

    def text_lines() -> list[str]:
        lines: list[str] = []
        for name, report in reports.items():
            lines.append(f"[{name}]")
            lines += _report_lines(report)
        lines.append("relations: " + " ".join(
            f"t{i}=u{j}" for i, j in glue.relations))
        lines.append(f"additivity: {verdict}")
        return lines

    def json_obj() -> dict:
        obj = {name: _report_json(report) for name, report in reports.items()}
        obj["relations"] = [list(pair) for pair in glue.relations]
        obj["additivity"] = verdict
        return obj

    _emit(args, text_lines, json_obj)
    return EXIT_OK


def _cmd_derivative(args) -> int:
    diagram = _load(_single_input(args))
    singular_count = sum(1 for c in diagram.chords if not c.is_classical)
    psc, plk, plk_l = vassiliev_derivative(diagram, args.a, args.b)
    _emit(args, lambda: [f"singular chords: {singular_count}",
                         *_poly_lines(args.a, args.b, psc, plk, plk_l)],
          lambda: {"singular": singular_count, **_poly_json(args.a, args.b, psc, plk, plk_l)})
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
        code = args.handler(args)
        sys.stdout.flush()  # so that a closed stdout raises here, not at exit
        return code
    except _CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code
    except BrokenPipeError:
        # the reader left; fd 1 goes to devnull, so the flush at exit passes
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE


if __name__ == "__main__":
    sys.exit(main())
