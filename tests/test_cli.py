"""Command-line surface: values, formats, exit codes, determinism."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from tanglepoly.cli import main
from helpers import (
    CLASP_TEXT,
    SINGULAR_VIRTUAL_TREFOIL_TEXT,
    VIRTUAL_TREFOIL_TEXT,
)

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def clasp_file(tmp_path):
    path = tmp_path / "clasp.tangle"
    path.write_text(CLASP_TEXT)
    return str(path)


@pytest.fixture
def trefoil_file(tmp_path):
    path = tmp_path / "trefoil.tangle"
    path.write_text(VIRTUAL_TREFOIL_TEXT)
    return str(path)


@pytest.fixture
def singular_file(tmp_path):
    path = tmp_path / "singular.tangle"
    path.write_text(SINGULAR_VIRTUAL_TREFOIL_TEXT)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_clasp(capsys, clasp_file):
    code, out, _ = run(capsys, "compute", "-i", clasp_file, "--a", "1", "--b", "2")
    assert code == 0
    assert "plk: 3 t1 t2" in out
    assert "plkL: 1 t1 t2^-1 + 2 t1^-1 t2" in out
    assert "psc: 0" in out


def test_compute_trefoil(capsys, trefoil_file):
    code, out, _ = run(capsys, "compute", "-i", trefoil_file)
    assert code == 0
    assert "psc: -2 + 2 t1" in out


def test_compute_identity_braid(capsys, tmp_path):
    path = tmp_path / "id.tangle"
    path.write_text("tangle 2 2\ncomponent A long T1:in B1:out\n"
                    "component B long T2:in B2:out\n")
    code, out, _ = run(capsys, "compute", "-i", str(path))
    assert code == 0
    assert "psc: 0" in out and "plk: 0" in out and "plkL: 0" in out


def test_compute_json(capsys, clasp_file):
    # negative rationals need the --flag=value spelling
    code, out, _ = run(capsys, "compute", "-i", clasp_file, "--a", "2/3",
                       "--b=-1/5", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"psc", "plk", "plkL", "vlk", "wriggle"}
    assert data["plk"]["a"] == "2/3"
    assert data["plk"]["value"] == [{"coeff": "7/15", "exps": [1, 1]}]
    assert data["vlk"] == [[0, 1], [1, 0]]


def test_report_shape_and_json(capsys, clasp_file):
    from tanglepoly.laurent import zero

    code, out, _ = run(capsys, "compute", "-i", clasp_file, "--a", "1", "--b", "2",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"psc", "plk", "plkL", "vlk", "wriggle"}
    assert data["vlk"] == [[0, 1], [1, 0]]
    assert data["wriggle"] == [[0, 0], [0, 0]]
    assert data["plk"]["a"] == "1" and data["plk"]["b"] == "2"
    assert data["plk"]["value"] == [{"coeff": "3", "exps": [1, 1]}]
    assert data["psc"] == zero(2).to_json_terms()


def test_compute_rational_flag_rejected(capsys, clasp_file):
    for bad in ("abc", "1/0"):
        with pytest.raises(SystemExit) as info:
            main(["compute", "-i", clasp_file, "--a", bad])
        assert info.value.code == 2
        capsys.readouterr()


def test_compute_rational_bounds_before_fraction(capsys, clasp_file, monkeypatch):
    # Fraction('1e<k>') builds 10**k; such text must be refused unread.
    # laurent.as_fraction reads the text of --a and --b.
    import tanglepoly.cli as cli
    import tanglepoly.laurent as laurent

    seen = []

    def spy(*args):
        seen.extend(arg for arg in args if isinstance(arg, str))
        return Fraction(*args)

    monkeypatch.setattr(laurent, "Fraction", spy)
    monkeypatch.setattr(cli, "Fraction", spy)
    too_long = "1" * (laurent.MAX_RATIONAL_CHARS + 1)
    for argv in (["--a", "1e5000"], ["--b=1e999999999"], ["--a", "2E3"],
                 ["--a", too_long]):
        with pytest.raises(SystemExit) as info:
            main(["compute", "-i", clasp_file, *argv])
        assert info.value.code == 2
        assert "error: argument --" in capsys.readouterr().err
    assert seen == []
    code, out, _ = run(capsys, "compute", "-i", clasp_file, "--a", "0.5", "--b=-1/5")
    assert code == 0
    assert "a: 1/2" in out and "b: -1/5" in out


@pytest.mark.parametrize("text, span", [
    ("tangle \u00b2 0\n", "line 1, cols 8-8"),
    ("tangle \u0663 0\n", "line 1, cols 8-8"),
    ("tangle 1 " + "9" * 5000 + "\n", "line 1, cols 10-5009"),
    ("tangle 1 1\ncomponent A long T" + "9" * 5000 + ":in B1:out\n",
     "line 2, cols 18-5021"),
], ids=["superscript-digit", "arabic-indic-digit", "long-count", "long-boundary-index"])
def test_bad_integer_token_exit_code(capsys, tmp_path, text, span):
    path = tmp_path / "bad.tangle"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "compute", "-i", str(path))
    assert code == 2
    assert out == ""
    assert f"({span})" in err


def test_parse_error_exit_code(capsys, tmp_path):
    path = tmp_path / "bad.tangle"
    path.write_text("tangle 0 0\ncomponent K closed\nO1+ U2+\n")
    code, _, err = run(capsys, "compute", "-i", str(path))
    assert code == 2
    assert "dangling chord" in err


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "compute", "-i", "/nonexistent/never.tangle")
    assert code == 2


def test_singular_input_rejected_by_compute(capsys, singular_file):
    code, _, err = run(capsys, "compute", "-i", singular_file)
    assert code == 3
    assert "derivative" in err


def test_derivative_on_singular(capsys, singular_file):
    code, out, _ = run(capsys, "derivative", "-i", singular_file)
    assert code == 0
    assert "singular chords: 1" in out
    assert "psc: -2 + 2 t1" in out


def test_derivative_two_singular_vanishes(capsys, tmp_path):
    path = tmp_path / "two.tangle"
    path.write_text("tangle 0 0\ncomponent K closed\nS1+ O3+ S2- S1+ U3+ S2-\n")
    code, out, _ = run(capsys, "derivative", "-i", str(path))
    assert code == 0
    assert "psc: 0" in out and "plk: 0" in out and "plkL: 0" in out


def test_derivative_matches_compute_without_singular(capsys, trefoil_file):
    from tanglepoly import parse

    code, out, _ = run(capsys, "derivative", "-i", trefoil_file)
    assert code == 0
    assert "psc: -2 + 2 t1" in out
    # with no singular chord the derivative is the report itself
    samples = [str(path) for path in sorted((ROOT / "samples").glob("*.tangle"))
               if not parse(path.read_text()).has_singular()]
    assert len(samples) == 3
    for path in samples:
        for flags in ((), ("--a=2/3", "--b=-5")):
            _, report, _ = run(capsys, "compute", "-i", path, *flags)
            code, derivative, _ = run(capsys, "derivative", "-i", path, *flags)
            assert code == 0
            assert derivative.splitlines() == ["singular chords: 0", *report.splitlines()[1:6]]
            _, report, _ = run(capsys, "compute", "-i", path, *flags, "--format", "json")
            code, derivative, _ = run(capsys, "derivative", "-i", path, *flags,
                                      "--format", "json")
            assert code == 0
            report = json.loads(report)
            assert json.loads(derivative) == {"singular": 0, "psc": report["psc"],
                                              "plk": report["plk"], "plkL": report["plkL"]}


def test_derivative_matches_sweep_oracle(capsys, tmp_path):
    # the order-one sum against three sweeps over all 2^k resolutions
    import random

    from tanglepoly import parse, serialize
    from helpers import random_diagram
    from rebuild_oracle import derivative_by_sweeps

    rng = random.Random(71)
    path = tmp_path / "singular.tangle"
    long_inputs = joining_inputs = nonzero = 0
    for k in range(13):
        for _ in range(8 if k <= 4 else 1):
            text = serialize(random_diagram(rng, max_components=3, max_chords=6,
                                            n_singular=k))
            path.write_text(text)
            diagram = parse(text)
            long_inputs += any(comp.is_long for comp in diagram.components)
            joining_inputs += any(not c.is_classical and c.end_a.component != c.end_b.component
                                  for c in diagram.chords)
            for a, b in ((Fraction(1), Fraction(1)), (Fraction(2, 3), Fraction(-5))):
                expected_text, expected_json = derivative_by_sweeps(diagram, a, b)
                flags = ("--a", str(a), f"--b={b}")
                assert run(capsys, "derivative", "-i", str(path), *flags) == \
                    (0, expected_text, "")
                assert run(capsys, "derivative", "-i", str(path), *flags,
                           "--format", "json") == (0, expected_json, "")
                nonzero += k == 1 and "plk: 0\n" not in expected_text
    assert long_inputs >= 20 and joining_inputs >= 15 and nonzero >= 6


def _count_reports(monkeypatch):
    """Count the reports that ``vassiliev_derivative`` builds."""
    import tanglepoly.singular as singular

    built = []
    original = singular.invariant_report

    def counting_report(*args):
        built.append(args)
        return original(*args)

    monkeypatch.setattr(singular, "invariant_report", counting_report)
    return built


def test_derivative_builds_two_reports_at_one_singular_chord(capsys, singular_file,
                                                              monkeypatch):
    built = _count_reports(monkeypatch)
    code, out, _ = run(capsys, "derivative", "-i", singular_file)
    assert code == 0 and "psc: -2 + 2 t1" in out
    assert len(built) == 2


def _singular_file(tmp_path, k):
    """One closed component that meets each of k singular chords twice."""
    visits = " ".join(f"S{n}+" for n in range(1, k + 1))
    path = tmp_path / f"singular{k}.tangle"
    path.write_text(f"tangle 0 0\ncomponent K closed\n{visits} {visits}\n")
    return str(path)


def test_derivative_builds_no_report_at_the_bound(capsys, tmp_path, monkeypatch):
    built = _count_reports(monkeypatch)
    for k in (16, 17, 40):
        code, out, _ = run(capsys, "derivative", "-i", _singular_file(tmp_path, k))
        assert code == 0
        assert out == f"singular chords: {k}\na: 1\nb: 1\npsc: 0\nplk: 0\nplkL: 0\n"
    assert built == []


def test_derivative_past_sixteen_singular_chords(capsys, tmp_path):
    # the derivative of an order-one invariant vanishes at k >= 2, so k has no bound
    for k in (17, 40):
        path = _singular_file(tmp_path, k)
        code, out, err = run(capsys, "derivative", "-i", path)
        assert (code, err) == (0, "")
        assert out == f"singular chords: {k}\na: 1\nb: 1\npsc: 0\nplk: 0\nplkL: 0\n"
        code, out, err = run(capsys, "derivative", "-i", path, "--format", "json")
        assert (code, err) == (0, "")
        zero = {"a": "1", "b": "1", "value": []}
        assert json.loads(out) == {"singular": k, "psc": [], "plk": zero, "plkL": zero}


def test_fuzz_success_and_determinism(capsys, clasp_file):
    args = ("fuzz", "-i", clasp_file, "--steps", "25", "--trials", "4",
            "--seed", "7")
    code, first, _ = run(capsys, *args)
    assert code == 0
    assert "fuzz ok" in first
    code, second, _ = run(capsys, *args)
    assert code == 0
    assert first == second
    code, third, _ = run(capsys, "fuzz", "-i", clasp_file, "--steps", "0",
                         "--trials", "2", "--seed", "7")
    assert code == 0


def test_fuzz_counts_only_applied_moves(capsys):
    # cap 0 leaves the chordless braid no legal move, so every step repeats
    sample = Path(__file__).resolve().parent.parent / "samples" / "identity_braid2.tangle"
    code, out, _ = run(capsys, "fuzz", "-i", str(sample),
                       "--steps", "50", "--trials", "2", "--cap", "0")
    assert code == 0
    assert "moves=0" in out


def test_fuzz_skips_repeated_steps(capsys, clasp_file, monkeypatch):
    import tanglepoly.cli as cli

    checked = []
    original = cli._normal_form

    def counting_check(diagram):
        checked.append(diagram)
        return original(diagram)

    monkeypatch.setattr(cli, "_normal_form", counting_check)
    monkeypatch.setattr(cli, "iter_walk",
                        lambda diagram, steps, seed, cap: iter([diagram] * (steps + 1)))
    code, out, _ = run(capsys, "fuzz", "-i", clasp_file, "--steps", "5",
                       "--trials", "3", "--format", "json")
    assert code == 0
    assert json.loads(out)["moves"] == 0
    assert len(checked) == 1  # the baseline only


def test_fuzz_negative_cap(capsys, clasp_file):
    for flag in ("--cap", "--steps", "--trials"):
        code, out, err = run(capsys, "fuzz", "-i", clasp_file, flag, "-3")
        assert code == 2
        assert out == ""
        assert err == "steps, trials and cap must be nonnegative\n"


@pytest.mark.parametrize("flag, bound", [("--steps", "MAX_FUZZ_STEPS"),
                                         ("--trials", "MAX_FUZZ_TRIALS"),
                                         ("--cap", "MAX_FUZZ_CAP")])
def test_fuzz_upper_bounds(capsys, clasp_file, monkeypatch, flag, bound):
    import tanglepoly.cli as cli

    def no_walk(*args, **kwargs):
        raise AssertionError("a walk started")

    monkeypatch.setattr(cli, "iter_walk", no_walk)
    monkeypatch.setattr(cli, "_normal_form", no_walk)
    limit = getattr(cli, bound)
    code, out, err = run(capsys, "fuzz", "-i", clasp_file, flag, str(limit + 1))
    assert code == 2
    assert out == ""
    assert f"{flag} of at most {limit}" in err
    # the bound itself is accepted; a stub walk keeps the run small
    monkeypatch.undo()
    monkeypatch.setattr(cli, "iter_walk",
                        lambda diagram, steps, seed, cap: iter([diagram] * (steps + 1)))
    code, _, _ = run(capsys, "fuzz", "-i", clasp_file, flag, str(limit))
    assert code == 0


def test_fuzz_rejects_singular(capsys, singular_file):
    code, _, err = run(capsys, "fuzz", "-i", singular_file, "--steps", "1",
                       "--trials", "1")
    assert code == 3


def test_fuzz_counterexample_exit_code(capsys, clasp_file, monkeypatch):
    # legal moves never change the invariants, so fault-inject a broken
    # "move" to pin the counterexample contract: exit 4 plus both diagrams
    import tanglepoly.cli as cli
    from tanglepoly import parse, serialize

    broken = parse("tangle 2 2\ncomponent A long T1:in B1:out\nO1- U2+\n"
                   "component B long T2:in B2:out\nU1- O2+\n")

    def fake_walk(diagram, steps, seed, cap):
        yield from (diagram, broken)

    monkeypatch.setattr(cli, "iter_walk", fake_walk)
    code, out, _ = run(capsys, "fuzz", "-i", clasp_file, "--steps", "1",
                       "--trials", "1")
    assert code == 4
    assert out == ("FAIL trial=0 step=1\n--- diagram before the move ---\n"
                   + serialize(parse(CLASP_TEXT))
                   + "--- diagram after the move ---\n" + serialize(broken))


def test_fuzz_counterexample_json(capsys, clasp_file, monkeypatch):
    import tanglepoly.cli as cli
    from tanglepoly import parse, serialize

    broken = parse("tangle 2 2\ncomponent A long T1:in B1:out\nO1- U2+\n"
                   "component B long T2:in B2:out\nU1- O2+\n")

    def fake_walk(diagram, steps, seed, cap):
        yield from (diagram, broken)

    monkeypatch.setattr(cli, "iter_walk", fake_walk)
    code, out, _ = run(capsys, "fuzz", "-i", clasp_file, "--steps", "1",
                       "--trials", "1", "--format", "json")
    assert code == 4
    failure = {"ok": False, "trial": 0, "step": 1,
               "before": serialize(parse(CLASP_TEXT)), "after": serialize(broken)}
    assert out == json.dumps(failure, indent=2) + "\n"


def test_sum_clasp_clasp(capsys, clasp_file):
    code, out, _ = run(capsys, "sum", "-i", clasp_file, "-i", clasp_file,
                       "--a", "1", "--b", "2")
    assert code == 0
    assert "additivity: PASS" in out
    assert "plk: 6 t1 t2" in out
    assert "relations: t1=u1 t2=u2" in out


def test_sum_with_identity(capsys, clasp_file, tmp_path):
    path = tmp_path / "id.tangle"
    path.write_text("tangle 2 2\ncomponent A long T1:in B1:out\n"
                    "component B long T2:in B2:out\n")
    code, out, _ = run(capsys, "sum", "-i", clasp_file, "-i", str(path),
                       "--a", "1", "--b", "2")
    assert code == 0
    assert "additivity: PASS" in out
    # the sum against the trivial braid keeps the clasp's invariants
    assert out.count("plk: 3 t1 t2") >= 2


def test_sum_incompatible(capsys, clasp_file, tmp_path):
    path = tmp_path / "one.tangle"
    path.write_text("tangle 1 1\ncomponent A long T1:in B1:out\n")
    code, _, err = run(capsys, "sum", "-i", clasp_file, "-i", str(path))
    assert code == 5
    assert "mismatch" in err


def test_sum_needs_two_inputs(capsys, clasp_file):
    code, _, err = run(capsys, "sum", "-i", clasp_file)
    assert code == 2


def test_gen_pipe_compute(capsys, tmp_path):
    code, out, _ = run(capsys, "gen", "3", "2")
    assert code == 0
    path = tmp_path / "gen.tangle"
    path.write_text(out)
    code, out, _ = run(capsys, "compute", "-i", str(path))
    assert code == 0
    assert "vlk:" in out
    assert ". 3" in out and "-2 ." in out


def test_gen_0_0_is_unlink(capsys, tmp_path):
    code, out, _ = run(capsys, "gen", "0", "0")
    assert code == 0
    path = tmp_path / "unlink.tangle"
    path.write_text(out)
    code, out, _ = run(capsys, "compute", "-i", str(path))
    assert code == 0
    assert "psc: 0" in out and "plk: 0" in out


def test_gen_separation_witness(capsys, tmp_path):
    code, out, _ = run(capsys, "gen", "2", "1")
    path = tmp_path / "sep.tangle"
    path.write_text(out)
    code, out, _ = run(capsys, "compute", "-i", str(path), "--a", "1", "--b", "2")
    assert code == 0
    assert "plk: 0" in out
    assert "plkL: 2 t1 t2^-1 + -2 t1^-1 t2" in out


def test_gen_negative(capsys):
    code, _, err = run(capsys, "gen", "-1", "2")
    assert code == 2


def test_gen_bound(capsys):
    from tanglepoly.cli import MAX_GEN_CHORDS

    code, out, err = run(capsys, "gen", str(MAX_GEN_CHORDS), "1")
    assert code == 2
    assert out == ""
    assert "at most" in err


def test_stdin_input(capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO(CLASP_TEXT))
    code, out, _ = run(capsys, "compute", "-i", "-", "--a", "1", "--b", "2")
    assert code == 0
    assert "plk: 3 t1 t2" in out


NOT_UTF8_TEXT = b"tangle 0 0\ncomponent K closed\nO1+ U1\xff+\n"


def _run_on_stdin(data: bytes):
    """``tanglepoly compute -i -`` in a fresh interpreter, fed ``data``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "tanglepoly.cli", "compute", "-i", "-"],
                          input=data, env=env, capture_output=True)


@pytest.mark.parametrize("unbuffered", ["1", None])
@pytest.mark.parametrize("argv", [
    ["compute", "-i", str(ROOT / "samples" / "clasp.tangle")],
    ["compute", "-i", str(ROOT / "samples" / "clasp.tangle"), "--format", "json"],
    ["gen", "3", "2"],
])
def test_closed_stdout_exits_141_quietly(argv, unbuffered):
    # stdout is a pipe whose reader has left, with and without buffering:
    # the write or the flush at the end raises EPIPE
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "tanglepoly.cli", *argv], env=env,
                              stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")


def test_input_file_that_is_not_utf8(capsys, tmp_path):
    path = tmp_path / "bad.tangle"
    path.write_bytes(NOT_UTF8_TEXT)
    code, out, err = run(capsys, "compute", "-i", str(path))
    assert (code, out) == (2, "")
    assert err.rstrip().endswith(f"{path}: byte 0xff is not UTF-8 (line 3)")


def test_stdin_that_is_not_utf8():
    proc = _run_on_stdin(NOT_UTF8_TEXT)
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr.rstrip().endswith(b"-: byte 0xff is not UTF-8 (line 3)")
    # lines are counted as the parser counts them, so \r ends one too
    proc = _run_on_stdin(b"tangle 0 0\r\n\r" + NOT_UTF8_TEXT.split(b"\n", 1)[1])
    assert proc.stderr.rstrip().endswith(b"(line 4)")


def test_stdin_bytes_read_as_a_file_is(capsys, clasp_file):
    code, out, _ = run(capsys, "compute", "-i", clasp_file)
    assert code == 0
    proc = _run_on_stdin(CLASP_TEXT.replace("\n", "\r\n").encode())
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, out.encode(), b"")


def test_parser_is_built_once_and_calls_do_not_leak(capsys, clasp_file, trefoil_file):
    from tanglepoly import cli

    cli._build_parser.cache_clear()
    code, alone, _ = run(capsys, "compute", "-i", trefoil_file)
    assert code == 0
    parser = cli._build_parser()
    # --input appends: a second call must not see the first call's list
    first = run(capsys, "sum", "-i", clasp_file, "-i", clasp_file)
    assert first[0] == 0
    assert run(capsys, "sum", "-i", clasp_file, "-i", clasp_file) == first
    # nor may fuzz's flags and defaults reach a later compute
    code, _, _ = run(capsys, "fuzz", "-i", trefoil_file, "--a", "3", "--b", "2",
                     "--format", "json", "--steps", "5", "--trials", "1", "--seed", "4")
    assert code == 0
    assert run(capsys, "compute", "-i", trefoil_file) == (0, alone, "")
    assert cli._build_parser() is parser


def test_sum_computes_each_report_once(capsys, monkeypatch):
    from tanglepoly import invariants

    calls = []
    kernel = invariants._kernel

    def spy(diagram, *args):
        calls.append(diagram)
        return kernel(diagram, *args)

    monkeypatch.setattr(invariants, "_kernel", spy)
    sample = str(Path(__file__).resolve().parent.parent / "samples" / "clasp.tangle")
    code, out, _ = run(capsys, "sum", "-i", sample, "-i", sample)
    assert code == 0
    assert "additivity: PASS" in out
    assert len(calls) == 3


@pytest.mark.parametrize("bound, value, text", [
    ("MAX_CHORDS", 1, "tangle 0 0\ncomponent K closed\nO1+ U1+ O2+ U2+\n"),
    ("MAX_COMPONENTS", 1, "tangle 0 0\ncomponent K closed\nO1+ U1+ component L closed\n"),
    # 'component' is the longest keyword
    ("MAX_TOKEN_CHARS", 9, "tangle 0 0\ncomponent K closed\nO1+ U1+ O1234567+\n"),
])
def test_file_bounds_exit_2(capsys, monkeypatch, tmp_path, bound, value, text):
    from tanglepoly import gaussio

    monkeypatch.setattr(gaussio, bound, value)
    path = tmp_path / "big.tangle"
    path.write_text(text)
    code, out, err = run(capsys, "compute", "-i", str(path))
    assert code == 2
    assert out == ""
    assert "(line 3, cols 9-" in err


def test_fuzz_memory_does_not_grow_with_steps(capsys, tmp_path):
    # over the cap, the walk only removes kinks from this knot, one a step; a
    # run that kept every diagram it visits peaked 2.5 times as high at 160
    import tracemalloc

    kinks = " ".join(f"O{k}{'+-'[k % 2]} U{k}{'+-'[k % 2]}" for k in range(1, 241))
    path = tmp_path / "kinked.tangle"
    path.write_text(f"tangle 0 0\ncomponent K closed\nO0+ Ox+ U0+ Ux+ {kinks}\n")
    peaks = {}
    for steps in (40, 160):
        tracemalloc.start()
        try:
            code, out, _ = run(capsys, "fuzz", "-i", str(path), "--steps", str(steps),
                               "--trials", "1", "--seed", "5")
            peaks[steps] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and f"moves={steps}" in out
    assert peaks[160] <= 1.5 * peaks[40], peaks


def _json_text(value):
    from json.encoder import encode_basestring_ascii

    from tanglepoly.cli import _json_text

    return _json_text(value, "\n", encode_basestring_ascii)


def test_json_writer_matches_json_dumps_on_command_output(capsys, monkeypatch, tmp_path):
    # every JSON value compute, derivative, fuzz and sum print, on inputs of
    # 0 to 16 components, against json.dumps
    import random

    import tanglepoly.cli as cli
    from tanglepoly import serialize
    from helpers import random_diagram, random_string_link

    written = []
    write = cli._json_text

    def spy(value, indent, string):
        text = write(value, indent, string)
        written.append((value, text))
        return text

    monkeypatch.setattr(cli, "_json_text", spy)
    rng = random.Random(18)
    paths = {name: tmp_path / f"{name}.tangle"
             for name in ("classical", "singular", "upper", "lower")}
    runs = []
    for n_comp in range(17):
        for _ in range(2):
            if n_comp:
                diagrams = {
                    "classical": random_diagram(rng, n_comp, 12),
                    "singular": random_diagram(rng, n_comp, 8, n_singular=rng.randint(0, 2)),
                }
                texts = {name: serialize(d) for name, d in diagrams.items()}
            else:
                texts = {"classical": "tangle 0 0\n", "singular": "tangle 0 0\n"}
            texts["upper"], texts["lower"] = (
                serialize(random_string_link(rng, n_comp, 10 if n_comp else 0))
                for _ in range(2))
            for name, text in texts.items():
                paths[name].write_text(text)
            flags = rng.choice(((), ("--a=2/3", "--b=-5")))
            for argv in (("compute", "-i", paths["classical"]),
                         ("derivative", "-i", paths["singular"]),
                         ("fuzz", "-i", paths["classical"], "--steps", "6", "--trials", "1"),
                         ("sum", "-i", paths["upper"], "-i", paths["lower"])):
                code, out, _ = run(capsys, *map(str, argv), *flags, "--format", "json")
                assert code == 0
                runs.append(out)
    assert len(written) == len(runs) == 17 * 2 * 4
    for (value, text), out in zip(written, runs):
        assert text == json.dumps(value, indent=2)
        assert out == text + "\n"


@pytest.mark.parametrize("value", [
    'a "quoted" word', "back\\slash\\", "\x00\x08\t\n\x0c\r\x1b\x1f\x7f", "\u00e9 \u00fc \u00df",
    "line\u2028para\u2029", "\U0001d54b", "", 0, -7, 10 ** 40, True, False, None,
    [], {}, (), [[]], [{}], {"": []}, [1, [2, [3, []]]], (1, 2, 3), ((), ("x", 1)),
    [True, False, None], [1, True, 0], [0, False], {"k\"ey\u2028": "v\\", "n": [-1, 0, 1]},
    {"a": {"b": {"c": [(1, -2), [], {}]}}},
])
def test_json_writer_matches_json_dumps(value):
    assert _json_text(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [Fraction(1, 2), 0.5, {1, 2}, [1, 0.5], {"a": [Fraction(3)]},
                                   {"a": {"b"}}])
def test_json_writer_refuses_other_types(value):
    with pytest.raises(TypeError):
        _json_text(value)


@pytest.mark.parametrize("fmt, used, unused", [("text", "render", "to_json_terms"),
                                                ("json", "to_json_terms", "render")])
def test_only_the_asked_for_format_is_built(capsys, monkeypatch, clasp_file, singular_file,
                                            fmt, used, unused):
    from tanglepoly.laurent import LaurentPoly

    calls = []
    method = getattr(LaurentPoly, used)

    def counted(self):
        calls.append(self)
        return method(self)

    def refused(self):
        raise AssertionError(f"--format {fmt} called LaurentPoly.{unused}")

    monkeypatch.setattr(LaurentPoly, used, counted)
    monkeypatch.setattr(LaurentPoly, unused, refused)
    for argv in (("compute", "-i", clasp_file),
                 ("sum", "-i", clasp_file, "-i", clasp_file),
                 ("derivative", "-i", singular_file)):
        calls.clear()
        code, out, _ = run(capsys, *argv, "--format", fmt)
        assert code == 0 and out
        # the spy sees the format that was built
        assert len(calls) == (9 if argv[0] == "sum" else 3)


def test_fuzz_success_output_in_both_formats(capsys, clasp_file):
    args = ("fuzz", "-i", clasp_file, "--steps", "25", "--trials", "4", "--seed", "7")
    code, text, _ = run(capsys, *args)
    assert code == 0
    moves = int(text.rsplit("moves=", 1)[1])
    assert moves > 0
    assert text == f"fuzz ok: trials=4 steps=25 moves={moves}\n"
    code, out, _ = run(capsys, *args, "--format", "json")
    assert code == 0
    assert out == json.dumps({"ok": True, "trials": 4, "steps": 25, "moves": moves},
                             indent=2) + "\n"
