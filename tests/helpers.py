"""Shared fixtures-in-code: named example diagrams and seeded random
diagram generators used across the test modules.

The named diagrams are built through the parser on purpose: the text is
the same encoding a user would write, and parsing it exercises the format
on every test run.  All random generators take an explicit ``random.Random``
so every test is reproducible from its seed.
"""

from __future__ import annotations

import random
from fractions import Fraction

from tanglepoly import (
    Classical,
    GlueResult,
    LaurentPoly,
    Singular,
    TangleDiagram,
    check_additivity,
    from_tokens,
    invariant_report,
    parse,
)

# ── Named diagrams ────────────────────────────────────────────────────────

CLASP_TEXT = """\
tangle 2 2
component A long T1:in B1:out
O1+ U2+
component B long T2:in B2:out
U1+ O2+
"""

VIRTUAL_TREFOIL_TEXT = """\
tangle 0 0
component K closed
O1+ O2+ U1+ U2+
"""

LONG_VIRTUAL_TREFOIL_TEXT = """\
tangle 1 1
component K long T1:in B1:out
O1+ O2+ U1+ U2+
"""

CLASSICAL_TREFOIL_TEXT = """\
tangle 0 0
component K closed
O1+ U2+ O3+ U1+ O2+ U3+
"""

SINGULAR_VIRTUAL_TREFOIL_TEXT = """\
tangle 0 0
component K closed
S1+ O2+ S1+ U2+
"""


def clasp() -> TangleDiagram:
    return parse(CLASP_TEXT)


def virtual_trefoil() -> TangleDiagram:
    return parse(VIRTUAL_TREFOIL_TEXT)


def long_virtual_trefoil() -> TangleDiagram:
    return parse(LONG_VIRTUAL_TREFOIL_TEXT)


def classical_trefoil() -> TangleDiagram:
    return parse(CLASSICAL_TREFOIL_TEXT)


def singular_virtual_trefoil() -> TangleDiagram:
    return parse(SINGULAR_VIRTUAL_TREFOIL_TEXT)


def identity_braid(strands: int) -> TangleDiagram:
    lines = [f"tangle {strands} {strands}"]
    for i in range(1, strands + 1):
        lines.append(f"component S{i} long T{i}:in B{i}:out")
    return parse("\n".join(lines) + "\n")


def clasp_single_chord(over_first: bool) -> TangleDiagram:
    """Clasp with one crossing deleted: keeps the chord where the first
    (resp. second) strand is on top."""
    if over_first:
        text = ("tangle 2 2\n"
                "component A long T1:in B1:out\nO1+\n"
                "component B long T2:in B2:out\nU1+\n")
    else:
        text = ("tangle 2 2\n"
                "component A long T1:in B1:out\nU2+\n"
                "component B long T2:in B2:out\nO2+\n")
    return parse(text)


def positive_braid_triangle() -> TangleDiagram:
    """Three-strand positive braid containing a triangle-slide site."""
    return parse(
        "tangle 3 3\n"
        "component a long T1:in B3:out\nOX+ OY+\n"
        "component b long T2:in B2:out\nUX+ OZ+\n"
        "component c long T3:in B1:out\nUY+ UZ+\n")


def closed_triangle_knot() -> TangleDiagram:
    """One closed component carrying the triangle pattern; psc = 2(t-1)."""
    return parse("tangle 0 0\ncomponent K closed\nOX+ OY+ UX+ OZ+ UY+ UZ+\n")


# ── Polynomial shorthand ──────────────────────────────────────────────────


def poly(nvars: int, terms: dict) -> LaurentPoly:
    return LaurentPoly(nvars, {tuple(k): Fraction(v) for k, v in terms.items()})


# ── Additivity ────────────────────────────────────────────────────────────


def additivity(upper: TangleDiagram, lower: TangleDiagram, glue: GlueResult,
               a, b) -> dict[str, bool]:
    """``check_additivity`` on the reports at (a, b) of the glued, upper and
    lower diagram, built in that order."""
    glued, top, bottom = (invariant_report(d, a, b) for d in (glue.diagram, upper, lower))
    return check_additivity(glue, glued, top, bottom)


# ── Random diagram generators ─────────────────────────────────────────────

_SHAPES = ("strand", "cup", "cap", "through")


def _random_boundary(rng: random.Random, n_long: int):
    """Pick a shape for each long component and assign boundary indices."""
    tops: list[tuple[int, str]] = []     # (component idx, 'start'|'end')
    bottoms: list[tuple[int, str]] = []
    for idx in range(n_long):
        shape = rng.choice(_SHAPES)
        if shape == "strand":      # enters top, leaves bottom
            tops.append((idx, "start"))
            bottoms.append((idx, "end"))
        elif shape == "cup":       # enters and leaves at the bottom
            bottoms.append((idx, "start"))
            bottoms.append((idx, "end"))
        elif shape == "cap":       # enters and leaves at the top
            tops.append((idx, "start"))
            tops.append((idx, "end"))
        else:                      # enters bottom, leaves top
            bottoms.append((idx, "start"))
            tops.append((idx, "end"))
    return tops, bottoms


def random_diagram(rng: random.Random, max_components: int = 3,
                   max_chords: int = 10, n_singular: int = 0,
                   allow_long: bool = True) -> TangleDiagram:
    """Arbitrary valid diagram: any chord arrangement on randomly shaped
    components is a virtual tangle."""
    from tanglepoly.diagram import BoundaryPoint, Side

    n_comp = rng.randint(1, max_components)
    n_long = rng.randint(0, n_comp) if allow_long else 0
    n_chords = rng.randint(0, max_chords)

    tokens: list[list] = [[] for _ in range(n_comp)]
    kinds = {}
    for k in range(1, n_chords + 1):
        label = str(k)
        kinds[label] = Classical(rng.choice((1, -1)), rng.choice(("a", "b")))
        for tag in ("a", "b"):
            tokens[rng.randrange(n_comp)].append((label, tag))
    for k in range(n_chords + 1, n_chords + n_singular + 1):
        label = str(k)
        kinds[label] = Singular(rng.choice((1, -1)))
        for tag in ("a", "b"):
            tokens[rng.randrange(n_comp)].append((label, tag))
    for row in tokens:
        rng.shuffle(row)

    tops, bottoms = _random_boundary(rng, n_long)
    starts: dict[int, BoundaryPoint] = {}
    ends: dict[int, BoundaryPoint] = {}
    for number, (idx, which) in enumerate(tops, start=1):
        point = BoundaryPoint(Side.TOP, number)
        (starts if which == "start" else ends)[idx] = point
    for number, (idx, which) in enumerate(bottoms, start=1):
        point = BoundaryPoint(Side.BOTTOM, number)
        (starts if which == "start" else ends)[idx] = point

    specs = []
    for idx in range(n_comp):
        if idx < n_long:
            specs.append((f"c{idx + 1}", starts[idx], ends[idx], tokens[idx]))
        else:
            specs.append((f"c{idx + 1}", None, None, tokens[idx]))
    return from_tokens(len(tops), len(bottoms), specs, kinds)


def random_closed_knot(rng: random.Random, max_chords: int = 8) -> TangleDiagram:
    """One closed component."""
    return random_diagram(rng, max_components=1, max_chords=max_chords,
                          allow_long=False)


def random_two_component_closed(rng: random.Random,
                                max_chords: int = 8) -> TangleDiagram:
    n_chords = rng.randint(0, max_chords)
    tokens: list[list] = [[], []]
    kinds = {}
    for k in range(1, n_chords + 1):
        label = str(k)
        kinds[label] = Classical(rng.choice((1, -1)), rng.choice(("a", "b")))
        for tag in ("a", "b"):
            tokens[rng.randrange(2)].append((label, tag))
    for row in tokens:
        rng.shuffle(row)
    specs = [("K1", None, None, tokens[0]), ("K2", None, None, tokens[1])]
    return from_tokens(0, 0, specs, kinds)


def random_string_link(rng: random.Random, strands: int,
                       max_chords: int = 8) -> TangleDiagram:
    from tanglepoly.diagram import BoundaryPoint, Side

    n_chords = rng.randint(0, max_chords)
    tokens: list[list] = [[] for _ in range(strands)]
    kinds = {}
    for k in range(1, n_chords + 1):
        label = str(k)
        kinds[label] = Classical(rng.choice((1, -1)), rng.choice(("a", "b")))
        for tag in ("a", "b"):
            tokens[rng.randrange(strands)].append((label, tag))
    for row in tokens:
        rng.shuffle(row)
    specs = [
        (f"S{i + 1}",
         BoundaryPoint(Side.TOP, i + 1),
         BoundaryPoint(Side.BOTTOM, i + 1),
         tokens[i])
        for i in range(strands)
    ]
    return from_tokens(strands, strands, specs, kinds)
