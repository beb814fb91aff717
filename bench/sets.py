"""Run sets of benchmark runs and summarise their spread.

    python3 bench/sets.py run OUT.jsonl [--seeds 1-10]
    python3 bench/sets.py show A.jsonl [B.jsonl]

``run`` makes one untraced run per workload and seed, one after the other,
with the ``run_seconds`` of BENCHMARK.json, appending each result to OUT.
``show`` prints, per workload and end-to-end metric, the median and the
spread (third minus first quartile, as a share of the median) of each set,
and with two sets how much worse the second median is than the first
(negative: better).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in WORKLOADS:
        for seed in seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            with open(args.out, "a", encoding="utf-8") as handle:
                handle.write(json.dumps({"workload": workload, "seed": seed, **result}) + "\n")
            print(workload, seed, "failed", result["failed"], "of", result["attempted"],
                  flush=True)
    return 0


def load(path: str) -> dict[str, dict[str, list[float]]]:
    values: dict[str, dict[str, list[float]]] = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        row = json.loads(line)
        for name, metric in row["metrics"].items():
            values.setdefault(row["workload"], {}).setdefault(name, []).append(metric["value"])
    return values


def spread(values: list[float]) -> float:
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def show(args) -> int:
    sets = [load(path) for path in args.sets]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    higher = {m["name"] for m in spec["end_to_end"] if m["better"] == "higher"}
    head = ["workload", "metric", "bound"]
    for k in range(1, len(sets) + 1):
        head += [f"median {k}", f"spread {k}"]
    if len(sets) == 2:
        head.append("worse by")
    print("| " + " | ".join(head) + " |")
    print("|" + " --- |" * len(head))
    for workload, metrics in sets[0].items():
        for name in metrics:
            cells = [workload, name, f"{bounds.get(name, 0):.0%}"]
            for values in sets:
                series = values[workload][name]
                cells += [f"{statistics.median(series):.4g}", f"{spread(series):.1%}"]
            if len(sets) == 2:
                first, second = (statistics.median(s[workload][name]) for s in sets)
                worse = first / second - 1 if name in higher else second / first - 1
                cells.append(f"{worse:+.1%}")
            print("| " + " | ".join(cells) + " |")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run")
    p.add_argument("out")
    p.add_argument("--seeds", default="1-10")
    p.set_defaults(handler=run)
    p = sub.add_parser("show")
    p.add_argument("sets", nargs="+")
    p.set_defaults(handler=show)
    args = parser.parse_args()
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
