"""Timing wrappers for the traced run.

The benchmark, not the program, records the spans: ``instrument`` replaces
public functions of each module with wrappers, at every name where a caller
looks them up (``tanglepoly.cli.invariant_report``,
``tanglepoly.invariants.virtual_linking_number``, ...), and ``restore`` puts
the originals back.  Each wrapper opens a span with the innermost open span
as its parent and, on exit, adds its duration and self time (duration minus
the time covered by child spans) to the edge (parent, name).  Spans are
aggregated per edge in memory, since a fuzz run opens millions of them, and
written once when the run ends.

A layer's time is the time spent in its outermost spans, so a span nested in
another span of the same layer (``LaurentPoly.__add__`` building a
``LaurentPoly``) is not counted twice.
"""

from __future__ import annotations

from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.edges: dict[tuple[str, str], list] = {}   # -> [calls, total s, self s]
        self.layer_s: dict[str, float] = {}
        self.tagged: dict[str, list] = {}               # "name.tag" -> [calls, total s]
        self.counts: dict[str, int] = {}
        self._stack: list[list] = []                    # open spans: [name, child s]
        self._depth: dict[str, int] = {}                # open spans per layer
        self._patches: list[tuple[object, str, object]] = []

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def span(self, name: str, fn, tag=None, after=None, inside=None):
        """Wrap ``fn`` in a span.  ``tag(*args)`` may name a size bucket that
        also gets the duration; ``after(args, result)`` reads counts off the
        result; ``inside=(ancestor, counter)`` counts calls made while a span
        named ``ancestor`` is open."""
        layer = name.split(".", 1)[0]
        stack, depth, edges, layer_s = self._stack, self._depth, self.edges, self.layer_s

        def wrapper(*args, **kwargs):
            if inside is not None and any(frame[0] == inside[0] for frame in stack):
                self.count(inside[1])
            parent = stack[-1][0] if stack else "-"
            frame = [name, 0.0]
            stack.append(frame)
            depth[layer] = depth.get(layer, 0) + 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                depth[layer] -= 1
                if stack:
                    stack[-1][1] += elapsed
                edge = edges.get((parent, name))
                if edge is None:
                    edge = edges[(parent, name)] = [0, 0.0, 0.0]
                edge[0] += 1
                edge[1] += elapsed
                edge[2] += elapsed - frame[1]
                if not depth[layer]:
                    layer_s[layer] = layer_s.get(layer, 0.0) + elapsed
                if tag is not None:
                    bucket = tag(*args)
                    if bucket:
                        entry = self.tagged.setdefault(f"{name}.{bucket}", [0, 0.0])
                        entry[0] += 1
                        entry[1] += elapsed
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def counter(self, key: str, fn):
        """Wrap ``fn`` so that it only counts its calls."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def patch(self, owner, attribute: str, wrapper) -> None:
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # ── Aggregates ──────────────────────────────────────────────────────

    def total(self, name: str) -> tuple[int, float]:
        """Calls and inclusive seconds of every span with this name."""
        calls, seconds = 0, 0.0
        for (_parent, child), (n, total, _self) in self.edges.items():
            if child == name:
                calls += n
                seconds += total
        return calls, seconds

    def self_time(self, name: str) -> float:
        return sum(s for (_p, child), (_n, _t, s) in self.edges.items() if child == name)

    def dump(self) -> dict:
        return {
            "edges": [
                {"parent": parent, "name": name, "calls": calls,
                 "total_ms": total * 1e3, "self_ms": own * 1e3}
                for (parent, name), (calls, total, own) in sorted(self.edges.items())
            ],
            "layers_ms": {layer: s * 1e3 for layer, s in sorted(self.layer_s.items())},
            "tagged": {key: {"calls": n, "total_ms": s * 1e3}
                       for key, (n, s) in sorted(self.tagged.items())},
            "counts": dict(sorted(self.counts.items())),
        }


# ── What to wrap in the package ──────────────────────────────────────────

# (span name, home module, function, modules whose globals the callers use;
# "" is the package namespace, which the benchmark's own library calls use)
FUNCTIONS = [
    ("cli.main", "cli", "main", ["cli"]),
    ("gaussio.parse", "gaussio", "parse", ["cli", ""]),
    ("gaussio.serialize", "gaussio", "serialize", ["cli", ""]),
    ("diagram.validate", "diagram", "validate", ["cli", "gaussio"]),
    ("diagram.from_tokens", "diagram", "from_tokens", ["gaussio", "diagram", "ops"]),
    ("diagram.component_tokens", "diagram", "component_tokens",
     ["gaussio", "diagram", "moves", "ops"]),
    ("diagram.canonical", "diagram", "canonical", ["diagram"]),
    ("diagram.equal_diagrams", "diagram", "equal_diagrams", [""]),
    ("invariants.invariant_report", "invariants", "invariant_report", ["cli"]),
    ("invariants.self_crossing_polynomial", "invariants", "self_crossing_polynomial",
     ["invariants", "cli", "ops"]),
    ("invariants.linking_polynomial", "invariants", "linking_polynomial", ["cli", "ops"]),
    ("invariants.laurent_linking_polynomial", "invariants", "laurent_linking_polynomial",
     ["cli", "ops"]),
    ("invariants.intersection_index", "invariants", "intersection_index", ["invariants"]),
    ("invariants.virtual_linking_number", "invariants", "virtual_linking_number",
     ["invariants"]),
    ("laurent.mono", "laurent", "mono", ["invariants"]),
    ("laurent.zero", "laurent", "zero", ["invariants"]),
    ("moves.random_walk", "moves", "random_walk", ["cli"]),
    ("moves.enumerate_sites", "moves", "enumerate_sites", ["moves"]),
    ("moves.apply", "moves", "apply", ["moves"]),
    ("ops.connect", "ops", "connect", ["cli", ""]),
    ("ops.closure", "ops", "closure", [""]),
    ("ops.check_additivity", "ops", "check_additivity", ["cli"]),
    ("ops.is_string_link", "ops", "is_string_link", ["cli"]),
    ("singular.vassiliev_derivative", "singular", "vassiliev_derivative", ["cli"]),
    ("singular.resolve", "singular", "resolve", ["singular"]),
]

LAURENT_METHODS = ["__add__", "__neg__", "__sub__", "__eq__", "scale", "remap_variables",
                   "eval_at_ones", "sorted_terms", "render", "to_json_terms"]

REPORT_SIZES = (50, 200, 800, 3200)
CANONICAL_SIZES = (50, 200, 800)


def _size_tag(sizes):
    """Bucket of the baseline table: 4 closed components, a listed chord count."""
    def tag(diagram, *_rest):
        comps = diagram.components
        chords = len(diagram.chords)
        if len(comps) == 4 and chords in sizes and all(c.is_closed for c in comps):
            return f"c{chords}"
        return None
    return tag


def instrument(tracer: Tracer, package) -> None:
    """Install every wrapper; ``tracer.restore()`` undoes it."""
    modules = {name: getattr(package, name) for name in
               ("cli", "gaussio", "diagram", "invariants", "laurent", "moves", "ops",
                "singular")}
    modules[""] = package

    def walk_repeats(args, trail):
        tracer.count("moves.repeat_steps",
                     sum(1 for k in range(1, len(trail)) if trail[k] is trail[k - 1]))

    def sites_listed(args, sites):
        tracer.count("moves.sites_enumerated", len(sites))

    def move_kind(args, _result):
        tracer.count(f"moves.applied.{args[1].kind.name.lower()}")

    extras = {
        "invariants.invariant_report": {"tag": _size_tag(REPORT_SIZES)},
        "diagram.canonical": {"tag": _size_tag(CANONICAL_SIZES)},
        "invariants.self_crossing_polynomial": {
            "inside": ("ops.check_additivity", "ops.additivity_psc_calls")},
        "moves.random_walk": {"after": walk_repeats},
        "moves.enumerate_sites": {"after": sites_listed},
        "moves.apply": {"after": move_kind},
    }
    for span_name, home, function, callers in FUNCTIONS:
        wrapper = tracer.span(span_name, getattr(modules[home], function),
                              **extras.get(span_name, {}))
        for caller in callers:
            tracer.patch(modules[caller], function, wrapper)

    poly = modules["laurent"].LaurentPoly
    for method in LAURENT_METHODS:
        tracer.patch(poly, method, tracer.span(f"laurent.{method}", getattr(poly, method)))
    tracer.patch(poly, "__init__", tracer.counter("laurent.polys_built", poly.__init__))
    diagram_type = modules["diagram"].TangleDiagram
    for method in ("chord", "component"):
        tracer.patch(diagram_type, method,
                     tracer.counter("diagram.lookup_calls", getattr(diagram_type, method)))
