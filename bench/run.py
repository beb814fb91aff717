"""Benchmark of tanglepoly: ``python3 bench/run.py --workload W --seed N
--seconds S --trace 0|1``, run from the root of a source checkout.

The package is imported from ``src/`` of that checkout; its bytecode is
compiled first, so that set-up time never includes compilation.  The run
then launches, one after the other, a few set-up probes (processes that
only import the package) and the workload process, which runs whole rounds
of operations for S seconds and checks every output against the oracle.
All workload processes get a fixed ``PYTHONHASHSEED``.  The last line of
standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("compute", "fuzz", "algebra")
PROBES = 6              # set-up probes before and again after the workload process
PROBE_TIMEOUT_S = 30
# the workload process overruns --seconds by its last round, the input
# generation and the checks; beyond twice the time plus this it has hung
WORKLOAD_SLACK_S = 60


class Failed(Exception):
    """A launch that hung or exited with an error; the run gives no result."""


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONHASHSEED"] = "0"
    return env


def launch(args: list[str], timeout: float) -> tuple[float, dict]:
    """Run ``child.py`` once (a probe or the workload process); returns its
    launch time and the JSON it printed."""
    command = [sys.executable, "-s", str(BENCH / "child.py"), str(ROOT / "src"), *args]
    launched = time.monotonic()
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, env=child_env(),
                              timeout=timeout, text=True)
    except subprocess.TimeoutExpired:
        raise Failed(f"{args[0]} process did not end within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise Failed(f"{args[0]} process exited with code {proc.returncode}")
    return launched, json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args = parser.parse_args()

    package = ROOT / "src" / "tanglepoly"
    if not (package / "__init__.py").is_file() or not (ROOT / "samples").is_dir():
        print(f"no package source under {ROOT}: run from a tanglepoly checkout",
              file=sys.stderr)
        return 2
    if not compileall.compile_dir(str(package), quiet=1) or \
            not compileall.compile_dir(str(BENCH), quiet=1, maxlevels=0):
        print("bytecode compilation failed", file=sys.stderr)
        return 2

    setups, imports = [], []

    def probe(args: list[str], timeout: float = PROBE_TIMEOUT_S) -> dict:
        launched, result = launch(args, timeout)
        setups.append(result["imported"] - launched)
        imports.append(result["imported"] - result["started"])
        return result

    try:
        for _ in range(PROBES):
            probe(["probe"])
        result = probe(["run", args.workload, str(args.seed), str(args.seconds), args.trace,
                        str(ROOT)], args.seconds * 2 + WORKLOAD_SLACK_S)
        for _ in range(PROBES):
            probe(["probe"])
    except Failed as exc:
        print(exc, file=sys.stderr)
        return 1

    metrics = result["metrics"]
    if args.trace == "1":
        metrics = {"import.tanglepoly_ms": {"value": statistics.median(imports) * 1e3,
                                            "unit": "ms"}, **metrics}
    else:
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}, **metrics}
        print(f"tail latency is p{result['tail_percentile']} of {result['samples']} samples",
              file=sys.stderr)
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
