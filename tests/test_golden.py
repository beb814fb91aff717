"""CLI output pinned byte for byte on the sample diagrams.

Each case runs one command on files in ``samples/`` and compares its
stdout with ``golden/<case>.out`` and its exit code and stderr with the
entry in ``golden/status.json``.  The files hold the output of an earlier
version of the program, so a change that alters any number, any rendering
or any fuzz trail fails here.  To write them from the package on the path:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from itertools import product
from pathlib import Path

import pytest

from tanglepoly.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
SAMPLES = sorted(path.stem for path in (ROOT / "samples").glob("*.tangle"))
COEFFICIENTS = {"default": [], "a2_3_b-5": ["--a", "2/3", "--b=-5"]}
FUZZ = ["--seed", "3", "--steps", "40", "--trials", "3"]


def _cases() -> dict[str, list[str]]:
    runs: dict[str, list[str]] = {}
    single = [(command, [name]) for command in ("compute", "derivative", "fuzz")
              for name in SAMPLES]
    pairs = [("sum", [upper, lower]) for upper, lower in product(SAMPLES, repeat=2)]
    for (command, names), (coeff, extra), fmt in product(
            single + pairs, COEFFICIENTS.items(), ("text", "json")):
        argv = [command]
        for name in names:
            argv += ["-i", f"samples/{name}.tangle"]
        argv += extra + ["--format", fmt] + (FUZZ if command == "fuzz" else [])
        runs[".".join([command, "+".join(names), coeff, fmt])] = argv
    return runs


CASES = _cases()


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)  # the paths in argv, and so in stderr, are relative to it
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


def test_golden_cases_are_all_written():
    status = json.loads((GOLDEN / "status.json").read_text(encoding="utf-8"))
    assert sorted(status) == sorted(CASES)
    assert sorted(path.stem for path in GOLDEN.glob("*.out")) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_output(case):
    code, out, err = _run(CASES[case])
    status = json.loads((GOLDEN / "status.json").read_text(encoding="utf-8"))[case]
    assert out == (GOLDEN / f"{case}.out").read_bytes().decode("utf-8")
    assert [code, err] == [status["exit"], status["stderr"]]


def _write() -> None:
    GOLDEN.mkdir(exist_ok=True)
    status = {}
    for case, argv in CASES.items():
        code, out, err = _run(argv)
        (GOLDEN / f"{case}.out").write_bytes(out.encode("utf-8"))
        status[case] = {"exit": code, "stderr": err}
    (GOLDEN / "status.json").write_text(
        json.dumps(status, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    _write()
