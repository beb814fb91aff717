"""One workload process: build the inputs, run whole rounds of operations
for the requested time, then check every output against the oracle.

``main(argv, started, imported)`` is called by ``child.py`` with argv
``SRC probe`` (report set-up only) or
``SRC run WORKLOAD SEED SECONDS TRACE ROOT``.  The result is one JSON line
on standard output.  Inputs come only from the seed; a round is the same
list of operations every time, so every run attempts whole rounds.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable

import gen
import oracle
import spans

import tanglepoly
import tanglepoly.cli

FUZZ_STEPS = 100

# Highest percentile with at least ten samples beyond it at the reference
# commit (README, "Tail percentile"); fixed per workload so that a change of
# speed does not move the tail to another percentile.
TAIL_PERCENTILE = {"compute": 90, "fuzz": 95, "algebra": 90}

# compute: (chords, components, long components).  A percentile of a round
# is steady only where several operations of about the same cost meet, so
# the round has groups of instances of one shape, each instance its own
# random tangle: eight of 200 chords on one component (about 50 ms) hold
# the median of the 21 operations, three of 800 chords on 16 components
# (about 350 ms) hold the 90th percentile, with cheaper ones below, middle
# ones between and the 3200-chord tangle above.  The 4-component closed
# ones at 50/200/800/3200 chords give the traced run its per-size rows.
COMPUTE_SPECS = [
    (50, 1, 1), (50, 4, 0), (50, 4, 2), (200, 2, 2), (200, 4, 0), (200, 8, 4),
    *[(200, 1, 0)] * 4, *[(200, 1, 1)] * 4,
    (800, 4, 0), (800, 8, 4), (200, 16, 8),
    *[(800, 16, 8)] * 3,
    (3200, 4, 0),
]

# fuzz: 45 walks per round, each on its own seed, so that the round's cost
# averages over many walks: the three classical samples five times each, then
# three random tangles of each (chords, components, long components) below.
FUZZ_SAMPLES = ["clasp", "identity_braid2", "virtual_trefoil"]
FUZZ_SAMPLE_WALKS = 5
FUZZ_RANDOM = [(2, 1, 0), (4, 1, 1), (5, 2, 1), (6, 1, 0), (6, 2, 2), (8, 3, 1),
               (8, 2, 0), (10, 3, 2), (12, 2, 1), (14, 1, 0)]
FUZZ_RANDOM_WALKS = 3

# algebra: sums of string links (strands, chords per input), derivatives
# (chords, components, long components, singular chords), one `gen` with
# both band sizes drawn from GEN_BAND, and equality of a 4-strand sum's closure
# with a rotated or sign-flipped copy (chords per input, rotated?).  As for
# compute, six sums of about 25 ms hold the median of the 21 operations
# and three 16-strand sums (about 650 ms, the steadiest operation of the
# round) the 90th percentile; the derivatives, whose cost varies most with
# the seed, sit between the groups, and the 800-chord equality above.
SUM_SPECS = [(2, 10), (3, 20), *[(4, 40), (5, 30), (6, 24)] * 2, (8, 60),
             *[(16, 80)] * 3]
DERIVATIVE_SPECS = [(20, 1, 0, 1), (20, 2, 1, 2), (12, 2, 1, 3), (40, 2, 1, 4),
                    (24, 2, 0, 5)]
EQUAL_SPECS = [(100, True), (400, True), (25, False)]
GEN_BAND = (50, 150)


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]   # None when the output is right
    # distinct outputs with how often each came back; a list of every output
    # would grow with the number of rounds and show in peak_rss_mb
    outputs: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Crash:
    """Output of an operation that raised."""

    text: str


def call_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = tanglepoly.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), err.getvalue()


def cli_output(output) -> str:
    """Standard output of a CLI operation that exited 0; raises otherwise."""
    if isinstance(output, Crash):
        raise AssertionError(output.text)
    code, out, err = output
    if code != 0:
        raise AssertionError(f"exit code {code}: {err.strip()}")
    return out


def _rationals(rng: random.Random) -> tuple[list[str], Fraction, Fraction]:
    a, b = gen.rational(rng), gen.rational(rng)
    return [f"--a={a}", f"--b={b}"], Fraction(a), Fraction(b)


def _same_report(got: dict, want: dict, what: str) -> None:
    for key in ("components", "a", "b", "psc", "plk", "plkL", "vlk", "wriggle"):
        if got[key] != want[key]:
            raise AssertionError(f"{what}: {key} is {got[key]}, expected {want[key]}")


def _zero_at_one(poly: dict, what: str) -> None:
    if sum(poly.values()):
        raise AssertionError(f"{what}: psc is not 0 at t = 1")


def _checker(body: Callable[[object], None]) -> Callable[[object], str | None]:
    def check(output) -> str | None:
        try:
            body(output)
        except Exception as exc:  # whatever the output breaks, it is wrong
            return f"{type(exc).__name__}: {exc}"
        return None
    return check


# ── Rounds ───────────────────────────────────────────────────────────────


class Inputs:
    """Input files of one run, in a directory of the checkout."""

    def __init__(self, root: Path):
        self.root = root
        root.mkdir(parents=True, exist_ok=True)
        self._count = 0

    def put(self, text: str) -> str:
        self._count += 1
        path = self.root / f"in{self._count}.tangle"
        path.write_text(text, encoding="utf-8")
        return str(path)


def compute_round(rng: random.Random, inputs: Inputs, samples) -> list[Op]:
    ops = []
    for number, (chords, comps, longs) in enumerate(COMPUTE_SPECS):
        text = gen.tangle(rng, chords, comps, longs)
        flags, a, b = _rationals(rng)
        fmt = "json" if number % 2 else "text"
        argv = ["compute", "-i", inputs.put(text), *flags, "--format", fmt]

        def body(output, text=text, a=a, b=b, fmt=fmt):
            out = cli_output(output)
            got = (oracle.report_from_json(json.loads(out)) if fmt == "json"
                   else oracle.report_from_text(out.splitlines()))
            _same_report(got, oracle.invariants(oracle.read(text), a, b), "compute")
            _zero_at_one(got["psc"], "compute")

        ops.append(Op(f"compute c{chords} n{comps} l{longs} {fmt}",
                      lambda argv=argv: call_cli(argv), _checker(body)))
    return ops


def fuzz_round(rng: random.Random, inputs: Inputs, samples) -> list[Op]:
    texts = [samples[name] for name in FUZZ_SAMPLES for _ in range(FUZZ_SAMPLE_WALKS)]
    texts += [gen.tangle(rng, *spec) for spec in FUZZ_RANDOM
              for _ in range(FUZZ_RANDOM_WALKS)]
    ops = []
    for number, text in enumerate(texts):
        flags, a, b = _rationals(rng)
        seed = rng.randrange(1 << 30)
        fmt = "json" if number % 2 else "text"
        argv = ["fuzz", "-i", inputs.put(text), *flags, "--steps", str(FUZZ_STEPS),
                "--trials", "1", "--seed", str(seed), "--format", fmt]

        def body(output, text=text, a=a, b=b, seed=seed, fmt=fmt):
            out = cli_output(output)
            if fmt == "json":
                summary = json.loads(out)
                ok = summary["ok"] is True and summary["trials"] == 1 \
                    and summary["steps"] == FUZZ_STEPS
            else:
                ok = out.startswith(f"fuzz ok: trials=1 steps={FUZZ_STEPS} ")
            if not ok:
                raise AssertionError(f"fuzz summary {out.strip()!r}")
            _walk_keeps_invariants(text, seed, a, b)

        ops.append(Op(f"fuzz {number}", lambda argv=argv: call_cli(argv), _checker(body)))
    return ops


def _walk_keeps_invariants(text: str, seed: int, a: Fraction, b: Fraction) -> None:
    """The walk of trial 0 (the CLI seeds it with seed * 1_000_003), checked
    step by step against the oracle's values for the starting diagram."""
    want = oracle.invariants(oracle.read(text), a, b)
    trail = tanglepoly.random_walk(tanglepoly.parse(text), FUZZ_STEPS, seed * 1_000_003)
    for step, diagram in enumerate(trail):
        _same_report(oracle.invariants(oracle.from_model(diagram), a, b), want,
                     f"fuzz step {step}")


def algebra_round(rng: random.Random, inputs: Inputs, samples) -> list[Op]:
    ops = []
    for number, (strands, chords) in enumerate(SUM_SPECS):
        upper, lower = (gen.string_link(rng, strands, chords) for _ in range(2))
        flags, a, b = _rationals(rng)
        fmt = "json" if number % 2 else "text"
        argv = ["sum", "-i", inputs.put(upper), "-i", inputs.put(lower), *flags,
                "--format", fmt]

        def body(output, upper=upper, lower=lower, a=a, b=b, fmt=fmt, n=strands):
            out = cli_output(output)
            up, low = oracle.read(upper), oracle.read(lower)
            want = {"upper": oracle.invariants(up, a, b),
                    "lower": oracle.invariants(low, a, b),
                    "sum": oracle.invariants(oracle.stack(up, low), a, b)}
            for key in ("psc", "plk", "plkL"):
                if oracle.plus(want["upper"][key], want["lower"][key]) != want["sum"][key]:
                    raise AssertionError(f"oracle: {key} of the stack is not additive")
            if fmt == "json":
                obj = json.loads(out)
                got = {name: oracle.report_from_json(obj[name]) for name in want}
                relations, verdict = [tuple(p) for p in obj["relations"]], obj["additivity"]
            else:
                got, relations, verdict = _sum_text(out)
            for name in want:
                _same_report(got[name], want[name], f"sum [{name}]")
            if relations != [(i, i) for i in range(1, n + 1)]:
                raise AssertionError(f"relations {relations}")
            if verdict != "PASS":
                raise AssertionError(f"additivity {verdict}")

        ops.append(Op(f"sum s{strands} c{chords} {fmt}", lambda argv=argv: call_cli(argv),
                      _checker(body)))

    for number, (chords, comps, longs, k) in enumerate(DERIVATIVE_SPECS):
        text = gen.tangle(rng, chords, comps, longs, singular=k)
        flags, a, b = _rationals(rng)
        fmt = "json" if number % 2 else "text"
        argv = ["derivative", "-i", inputs.put(text), *flags, "--format", fmt]

        def body(output, text=text, a=a, b=b, fmt=fmt, k=k, n=comps):
            out = cli_output(output)
            if fmt == "json":
                obj = json.loads(out)
                singular = obj["singular"]
                got = {"psc": oracle.poly_from_json(obj["psc"], n),
                       "plk": oracle.poly_from_json(obj["plk"]["value"], n),
                       "plkL": oracle.poly_from_json(obj["plkL"]["value"], n)}
            else:
                fields = dict(line.split(": ", 1) for line in out.splitlines())
                singular = int(fields["singular chords"])
                got = {key: oracle.poly_from_text(fields[key], n)
                       for key in ("psc", "plk", "plkL")}
            want = oracle.derivative(oracle.read(text), a, b)
            if singular != k:
                raise AssertionError(f"singular chords {singular}, expected {k}")
            for key, poly in got.items():
                if poly != want[key]:
                    raise AssertionError(f"derivative {key} is {poly}, expected {want[key]}")
                if k >= 2 and poly:
                    raise AssertionError(f"derivative {key} of order {k} is not 0")

        ops.append(Op(f"derivative k{k} {fmt}", lambda argv=argv: call_cli(argv),
                      _checker(body)))

    a_count, b_count = (rng.randint(*GEN_BAND) for _ in range(2))
    argv = ["gen", str(a_count), str(b_count)]

    def body(output, a_count=a_count, b_count=b_count):
        diagram = oracle.read(cli_output(output))
        if len(diagram.comps) != 2 or not all(c.closed for c in diagram.comps):
            raise AssertionError("gen did not write a two-component closed link")
        labels = {t[1:-1] for c in diagram.comps for t in c.tokens}
        if len(labels) != a_count + b_count:
            raise AssertionError(f"gen wrote {len(labels)} chords")
        if oracle.vlk(diagram) != [[0, a_count], [-b_count, 0]]:
            raise AssertionError(f"gen gave vlk {oracle.vlk(diagram)}")
        if oracle.psc(diagram):
            raise AssertionError("gen gave a nonzero psc")

    ops.append(Op(f"gen {a_count} {b_count}", lambda argv=argv: call_cli(argv),
                  _checker(body)))

    for chords, rotate in EQUAL_SPECS:
        upper = tanglepoly.parse(gen.string_link(rng, 4, chords))
        lower = tanglepoly.parse(gen.string_link(rng, 4, chords))
        closed = oracle.from_model(tanglepoly.closure(tanglepoly.connect(upper, lower).diagram))
        if rotate:
            copy = oracle.rotated(closed, [rng.randrange(1, 1 << 20) for _ in closed.comps])
        else:
            labels = sorted({t[1:-1] for c in closed.comps for t in c.tokens}, key=int)
            copy = oracle.sign_flipped(closed, rng.choice(labels))
        other = tanglepoly.parse(copy.text())

        def equal(upper=upper, lower=lower, other=other):
            tp = tanglepoly
            return tp.equal_diagrams(tp.closure(tp.connect(upper, lower).diagram), other)

        def body(output, rotate=rotate):
            if output is not rotate:
                raise AssertionError(f"equal_diagrams gave {output!r}, expected {rotate}")

        ops.append(Op(f"equal c{2 * chords} {'rotated' if rotate else 'flipped'}",
                      equal, _checker(body)))
    return ops


def _sum_text(out: str):
    blocks: dict[str, list[str]] = {}
    relations, verdict, current = [], None, None
    for line in out.splitlines():
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1]
            blocks[current] = []
        elif line.startswith("relations:"):
            relations = [tuple(int(side[1:]) for side in pair.split("="))
                         for pair in line.split()[1:]]
        elif line.startswith("additivity:"):
            verdict = line.split()[1]
        else:
            blocks[current].append(line)
    return ({name: oracle.report_from_text(lines) for name, lines in blocks.items()},
            relations, verdict)


ROUNDS = {"compute": compute_round, "fuzz": fuzz_round, "algebra": algebra_round}


# ── Running ──────────────────────────────────────────────────────────────


def run_op(op: Op):
    try:
        return op.run()
    except Exception as exc:  # counted as a failed operation, never fatal
        return Crash(f"{type(exc).__name__}: {exc}")


def run_rounds(ops: list[Op], seconds: float) -> tuple[list[float], list[float]]:
    """Whole rounds until ``seconds`` have passed (at least one); returns
    every operation's latency and every round's wall time."""
    latencies, rounds = [], []
    start = perf_counter()
    while True:
        begin_round = perf_counter()
        for op in ops:
            begin = perf_counter()
            output = run_op(op)
            latencies.append(perf_counter() - begin)
            op.outputs[output] = op.outputs.get(output, 0) + 1
        rounds.append(perf_counter() - begin_round)
        if perf_counter() - start >= seconds:
            return latencies, rounds


def check_outputs(ops: list[Op]) -> tuple[int, int, bool]:
    """(attempted, failed, correct); each distinct output is checked once."""
    attempted = failed = 0
    correct = True
    for op in ops:
        for output, count in op.outputs.items():
            attempted += count
            verdict = op.check(output)
            if verdict is not None:
                print(f"{op.name}: {verdict}", file=sys.stderr)
                failed += count
                if not isinstance(output, Crash):
                    correct = False
    return attempted, failed, correct


def percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def layer_metrics(tracer: spans.Tracer, ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer figures; times and counts are per operation unless the name
    says otherwise."""
    def ms(*names):
        return sum(tracer.total(name)[1] for name in names) * 1e3 / ops, "ms"

    def calls(*names):
        return sum(tracer.total(name)[0] for name in names) / ops, "count"

    def per_call(key):
        n, seconds = tracer.tagged.get(key, (0, 0.0))
        return (seconds * 1e3 / n if n else 0.0), "ms"

    def counted(key):
        return tracer.counts.get(key, 0) / ops, "count"

    def ratio(top, bottom, unit="ratio"):
        return (top / bottom if bottom else 0.0), unit

    loads = tracer.total("gaussio.parse")[0]
    additivity = tracer.total("ops.check_additivity")[0]
    applied = tracer.total("moves.apply")[0]
    out = {
        "gaussio.parse_ms": ms("gaussio.parse"),
        "gaussio.serialize_ms": ms("gaussio.serialize"),
        "diagram.validate_ms": ms("diagram.validate"),
        "diagram.validate_per_load": ratio(tracer.total("diagram.validate")[0], loads),
        "invariants.report_ms": ms("invariants.invariant_report"),
        "invariants.psc_ms": ms("invariants.self_crossing_polynomial"),
        "invariants.index_calls": calls("invariants.intersection_index"),
        "invariants.vlk_ms": ms("invariants.virtual_linking_number"),
        "invariants.vlk_calls": calls("invariants.virtual_linking_number"),
    }
    for size in spans.REPORT_SIZES:
        out[f"invariants.report_ms.c{size}"] = per_call(
            f"invariants.invariant_report.c{size}")
    for size in spans.CANONICAL_SIZES:
        out[f"diagram.canonical_ms.c{size}"] = per_call(f"diagram.canonical.c{size}")
    out.update({
        "laurent.polys_built": counted("laurent.polys_built"),
        "laurent.add_calls": calls("laurent.__add__"),
        "laurent.ms": (tracer.layer_s.get("laurent", 0.0) * 1e3 / ops, "ms"),
        "laurent.render_ms": ms("laurent.render", "laurent.to_json_terms"),
        "diagram.lookup_calls": counted("diagram.lookup_calls"),
        "diagram.from_tokens_calls": calls("diagram.from_tokens"),
        "diagram.from_tokens_ms": ms("diagram.from_tokens"),
        "diagram.component_tokens_ms": ms("diagram.component_tokens"),
        "moves.walk_ms": ms("moves.random_walk"),
        "moves.enumerate_ms": ms("moves.enumerate_sites"),
        "moves.apply_ms": ms("moves.apply"),
        "moves.sites_enumerated": counted("moves.sites_enumerated"),
        "moves.site_use_ratio": ratio(applied, tracer.counts.get("moves.sites_enumerated", 0)),
    })
    for kind in tanglepoly.MoveKind:
        key = f"moves.applied.{kind.name.lower()}"
        out[key] = counted(key)
    out.update({
        "moves.repeat_steps": counted("moves.repeat_steps"),
        "ops.connect_ms": ms("ops.connect"),
        "ops.additivity_ms": ms("ops.check_additivity"),
        "ops.additivity_psc_calls": ratio(tracer.counts.get("ops.additivity_psc_calls", 0),
                                          additivity, "count"),
        "singular.resolutions": calls("singular.resolve"),
        "singular.derivative_ms": ms("singular.vassiliev_derivative"),
        "diagram.canonical_ms": ms("diagram.canonical"),
        "diagram.canonical_calls": calls("diagram.canonical"),
        "cli.self_ms": (tracer.self_time("cli.main") * 1e3 / ops, "ms"),
    })
    return out


def main(argv: list[str], started: float, imported: float) -> int:
    src = Path(argv[0]).resolve()
    if Path(tanglepoly.__file__).resolve().parent != src / "tanglepoly":
        print(f"imported {tanglepoly.__file__}, not the package under {src}", file=sys.stderr)
        return 2
    setup = {"started": started, "imported": imported}
    if argv[1] == "probe":
        print(json.dumps(setup))
        return 0
    workload, seed, seconds, traced, root = argv[2], int(argv[3]), float(argv[4]), \
        argv[5] == "1", Path(argv[6])
    samples = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted((root / "samples").glob("*.tangle"))}
    oracle.self_check(samples)

    out_dir = root / "bench" / "out"
    inputs = Inputs(out_dir / f"inputs-{os.getpid()}")
    try:
        ops = ROUNDS[workload](random.Random(f"{workload}:{seed}"), inputs, samples)
        for op in ops[:3]:          # first calls of each code path, untimed
            run_op(op)
        if traced:
            result = traced_run(ops, seconds, out_dir, workload, seed)
        else:
            latencies, rounds = run_rounds(ops, seconds)
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            tail = TAIL_PERCENTILE[workload]
            result = {
                # the median round, so that a slow spell of the machine
                # shorter than half the run does not move the figure
                "ops_per_s": (statistics.median(len(ops) / t for t in rounds), "1/s"),
                "latency_p50_ms": (percentile(latencies, 50) * 1e3, "ms"),
                "latency_tail_ms": (percentile(latencies, tail) * 1e3, "ms"),
                "peak_rss_mb": (peak_kb / 1024, "MB"),
            }
            setup["samples"] = len(latencies)
            setup["tail_percentile"] = tail
        attempted, failed, correct = check_outputs(ops)
    finally:
        shutil.rmtree(inputs.root, ignore_errors=True)
    setup.update(correct=correct, attempted=attempted, failed=failed,
                 metrics={k: {"value": v, "unit": u} for k, (v, u) in result.items()})
    print(json.dumps(setup))
    return 0


def traced_run(ops: list[Op], seconds: float, out_dir: Path, workload: str,
               seed: int) -> dict:
    """Untraced and traced rounds in turn until ``seconds`` have passed; the
    per-layer figures come from the traced rounds, and the overhead compares
    the median round of each kind, measured over the same stretch of time."""
    tracer = spans.Tracer()
    traced_ops = [Op(op.name, tracer.span("bench.op", op.run), op.check, op.outputs)
                  for op in ops]
    plain, traced, count = [], [], 0
    start = perf_counter()
    while perf_counter() - start < seconds:
        plain += run_rounds(ops, 0.0)[1]
        spans.instrument(tracer, tanglepoly)
        try:
            latencies, rounds = run_rounds(traced_ops, 0.0)
        finally:
            tracer.restore()
        traced += rounds
        count += len(latencies)
    result = layer_metrics(tracer, count)
    overhead = statistics.median(traced) / statistics.median(plain) * 100 - 100
    result["trace.overhead_pct"] = (overhead, "%")
    dump = tracer.dump()
    dump.update(workload=workload, seed=seed, ops=count, traced_rounds=len(traced),
                untraced_round_s=plain, traced_round_s=traced)
    (out_dir / f"trace-{workload}-{seed}.json").write_text(
        json.dumps(dump, indent=1) + "\n", encoding="utf-8")
    return result
