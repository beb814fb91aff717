"""The traced benchmark run wraps package functions by name: every name that
``bench/spans.py`` lists must still be bound where it looks, so a rename
fails here and not only in the traced smoke run."""

import types
from pathlib import Path

import tanglepoly
import tanglepoly.cli
from tanglepoly.cli import main
from helpers import CLASP_TEXT, SINGULAR_VIRTUAL_TREFOIL_TEXT

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _spans() -> types.ModuleType:
    """``bench/spans.py`` run from its text, so that no bytecode is written
    beside it."""
    module = types.ModuleType("spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), module.__dict__)
    return module


def test_instrument_finds_every_traced_name_and_restores(capsys, tmp_path):
    spans = _spans()
    cli, singular = tanglepoly.cli, tanglepoly.singular
    originals = (cli.vassiliev_derivative, singular.resolve, tanglepoly.LaurentPoly.render)
    path = tmp_path / "singular.tangle"
    path.write_text(SINGULAR_VIRTUAL_TREFOIL_TEXT)
    tracer = spans.Tracer()
    try:
        spans.instrument(tracer, tanglepoly)
        assert cli.vassiliev_derivative is not originals[0]
        assert main(["derivative", "-i", str(path)]) == 0
    finally:
        tracer.restore()
    assert "psc: -2 + 2 t1" in capsys.readouterr().out
    # the derivative figures time what the CLI runs: one derivative, two resolutions
    assert tracer.total("singular.vassiliev_derivative")[0] == 1
    assert tracer.total("singular.resolve")[0] == 2
    assert (cli.vassiliev_derivative, singular.resolve,
            tanglepoly.LaurentPoly.render) == originals


def test_sum_runs_the_traced_additivity_check(capsys, tmp_path):
    spans = _spans()
    cli = tanglepoly.cli
    originals = (cli.check_additivity, tanglepoly.ops.check_additivity)
    path = tmp_path / "clasp.tangle"
    path.write_text(CLASP_TEXT)
    tracer = spans.Tracer()
    try:
        spans.instrument(tracer, tanglepoly)
        assert cli.check_additivity is not originals[0]
        assert main(["sum", "-i", str(path), "-i", str(path)]) == 0
    finally:
        tracer.restore()
    assert "additivity: PASS" in capsys.readouterr().out
    # the additivity figure times the one check that sum runs
    assert tracer.total("ops.check_additivity")[0] == 1
    assert (cli.check_additivity, tanglepoly.ops.check_additivity) == originals
