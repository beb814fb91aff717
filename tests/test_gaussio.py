"""Format: parser errors with spans, serializer round trips, totality, and
a differential test against the old parser."""

import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from tanglepoly import (
    ParseError,
    TangleDiagram,
    equal_diagrams,
    link_with_linking_numbers,
    parse,
    serialize,
    validate,
    virtual_linking_number,
)
from helpers import (
    CLASP_TEXT,
    _random_boundary,
    clasp,
    random_diagram,
    singular_virtual_trefoil,
    virtual_trefoil,
)
from parse_oracle import parse as oracle_parse


def test_parse_clasp_structure():
    d = clasp()
    assert (d.top, d.bottom) == (2, 2)
    assert tuple(comp.cid for comp in d.components) == ("A", "B")
    assert len(d.chords) == 2
    assert virtual_linking_number(d, 1, 2) == 1
    assert virtual_linking_number(d, 2, 1) == 1


def test_parse_virtual_trefoil_structure():
    d = virtual_trefoil()
    assert len(d.components) == 1
    assert d.components[0].is_closed
    assert len(d.chords) == 2


def test_parse_singular_frames():
    d = singular_virtual_trefoil()
    chord = d.chord("1")
    assert not chord.is_classical
    assert chord.kind.frame == 1


def expect_error(text: str, fragment: str):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert fragment in info.value.message, info.value.message
    return info.value


def test_dangling_chord_error_with_span():
    err = expect_error("tangle 0 0\ncomponent K closed\nO1+ U1+ O3+\n", "dangling chord")
    assert err.span.line == 3
    assert (err.span.col_start, err.span.col_end) == (9, 11)


def test_label_used_three_times():
    expect_error("tangle 0 0\ncomponent K closed\nO1+ U1+ O1+ U2+ O2+ U3+ O3+ U4+ O4+\n",
                 "more than twice")


def test_over_under_mismatch():
    expect_error("tangle 0 0\ncomponent K closed\nO1+ O1+\n", "once as O and once as U")


def test_sign_mismatch():
    expect_error("tangle 0 0\ncomponent K closed\nO1+ U1-\n", "sign mismatch")


def test_singular_classical_mix():
    expect_error("tangle 0 0\ncomponent K closed\nS1+ O1+\n", "mixes singular")


def test_boundary_reuse_and_range():
    expect_error("tangle 1 1\ncomponent A long T1:in B2:out\n", "out of range")
    expect_error(
        "tangle 1 2\ncomponent A long T1:in B1:out\ncomponent B long B2:in B1:out\n",
        "used twice")


def test_component_declared_twice():
    err = expect_error("tangle 0 0\ncomponent K closed\ncomponent L closed\n"
                       "component K closed\n", "component 'K' declared twice")
    assert err.message == "component 'K' declared twice"
    assert (err.span.line, err.span.col_start, err.span.col_end) == (4, 11, 11)
    # the first repeat is the one reported, after many distinct names; with
    # the two repeats the file holds MAX_COMPONENTS components
    names = "".join(f"component c{i} closed\n" for i in range(998))
    err = expect_error("tangle 0 0\n" + names + "component c7 closed\ncomponent c9 closed\n",
                       "component 'c7' declared twice")
    assert err.span.line == 1000


def test_boundary_unused():
    expect_error("tangle 2 2\ncomponent A long T1:in B1:out\n", "not used")


def test_direction_violations():
    err = expect_error("tangle 1 1\ncomponent A long T1:out B1:out\n", "start at an 'in'")
    assert err.message == "long component must start at an 'in' point"
    assert (err.span.line, err.span.col_start, err.span.col_end) == (2, 18, 23)
    err = expect_error("tangle 1 1\ncomponent A long T1:in B1:in\n", "end at an 'out'")
    assert err.message == "long component must end at an 'out' point"
    assert (err.span.line, err.span.col_start, err.span.col_end) == (2, 24, 28)
    err = expect_error("tangle 1 1\ncomponent A long T1:in B1:bad\n", "bad boundary point")
    assert (err.span.line, err.span.col_start, err.span.col_end) == (2, 24, 29)
    # the direction is checked after the index, on each point before the next is read
    expect_error("tangle 1 1\ncomponent A long T1234567890:out B1:bad\n", "more than 9 digits")
    expect_error("tangle 1 1\ncomponent A long T1:out B1:bad\n", "start at an 'in'")


def test_lexical_errors():
    expect_error("knot 0 0\n", "expected 'tangle'")
    expect_error("tangle x 0\n", "expected top point count")
    expect_error("tangle 0 0\nwidget\n", "expected 'component'")
    expect_error("tangle 0 0\ncomponent K closed\nO1\n", "bad visit token")
    expect_error("tangle 0 0\ncomponent K sideways\n", "expected 'closed' or 'long'")
    expect_error("tangle 1 1\ncomponent A long T1 B1:out\n", "bad boundary point")
    expect_error("tangle 0 0\ncomponent K\n", "unexpected end of input")


def test_newline_required_after_header():
    expect_error("tangle 0 0\ncomponent K closed O1+ U1+\n", "end of line")


def test_comments_and_whitespace():
    d = parse("tangle 0 0   # a knot\ncomponent K closed\n  O1+   U1+  # kink\n")
    assert len(d.chords) == 1


def test_serialize_empty():
    empty = TangleDiagram(0, 0, (), ())
    assert serialize(empty) == "tangle 0 0\n"
    assert equal_diagrams(parse("tangle 0 0\n"), empty)


def test_serialize_clasp_exact():
    assert serialize(clasp()) == CLASP_TEXT


def test_round_trip_generator():
    d = link_with_linking_numbers(1, 1)
    again = parse(serialize(d))
    assert equal_diagrams(d, again)
    assert virtual_linking_number(again, 1, 2) == 1
    assert virtual_linking_number(again, 2, 1) == -1


def test_round_trip_random_diagrams():
    rng = random.Random(23)
    for _ in range(40):
        d = random_diagram(rng, max_components=4, max_chords=10,
                           n_singular=rng.randint(0, 2))
        assert equal_diagrams(parse(serialize(d)), d)


def same_as_oracle(text):
    """Parse with both parsers: they must give equal diagrams, or raise a
    ParseError with the same message and span.  Returns the diagram, or
    None on an error."""
    try:
        expected = oracle_parse(text)
    except ParseError as err:
        with pytest.raises(ParseError) as info:
            parse(text)
        assert (info.value.message, info.value.span) == (err.message, err.span), text
        return None
    diagram = parse(text)
    assert diagram == expected and repr(diagram) == repr(expected), text
    # parse does not run validate on what it builds; this runs it on every
    # text that parses
    assert validate(diagram) == [], text
    return diagram


@given(st.text(max_size=80))
@settings(max_examples=300)
def test_parse_is_total(text):
    # any input either parses or raises ParseError with an in-bounds span,
    # and the old parser does the same
    try:
        parse(text)
    except ParseError as err:
        lines = text.splitlines() or [""]
        assert 1 <= err.span.line <= max(len(lines), 1)
        assert err.span.col_start >= 1
        assert err.span.col_end >= err.span.col_start
    same_as_oracle(text)


@given(st.integers(0, 4), st.integers(0, 4))
def test_parse_serialize_identity_on_generator(a, b):
    d = link_with_linking_numbers(a, b)
    assert parse(serialize(d)) == d


# ── Differential test against tests/parse_oracle.py ──────────────────────

_NAME_CHARS = "abKLxyz019_'.:+-OUS\u00e9"
_GAPS = (" ", " ", " ", "  ", "\t", "\u00a0", "\u3000")


def _name(rng: random.Random) -> str:
    return "".join(rng.choice(_NAME_CHARS) for _ in range(rng.randint(1, 4)))


def _valid_text(rng: random.Random, max_chords: int = 60) -> str:
    """A random valid file: 1-6 components, some long, up to ``max_chords``
    chords, some singular, with random distinct names, comments, odd
    spacing and visit rows split over several lines."""
    n_comp = rng.randint(1, 6)
    n_long = rng.randint(0, n_comp)
    tops, bottoms = _random_boundary(rng, n_long)
    ends: list[dict[str, str]] = [{} for _ in range(n_long)]
    for side, points in (("T", tops), ("B", bottoms)):
        for number, (idx, which) in enumerate(points, start=1):
            ends[idx][which] = f"{side}{number}:{'in' if which == 'start' else 'out'}"

    rows: list[list[str]] = [[] for _ in range(n_comp)]
    labels: set[str] = set()
    for _ in range(rng.randint(0, max_chords)):
        label = _name(rng)
        while label in labels:
            label += rng.choice(_NAME_CHARS)
        labels.add(label)
        sign = rng.choice("+-")
        roles = ("S", "S") if rng.random() < 0.15 else rng.choice((("O", "U"), ("U", "O")))
        for role in roles:
            rows[rng.randrange(n_comp)].append(f"{role}{label}{sign}")
    for row in rows:
        rng.shuffle(row)

    names: list[str] = []
    while len(names) < n_comp:
        name = _name(rng)
        if name not in names:
            names.append(name)
    out = [f"tangle{rng.choice(_GAPS)}{len(tops)} {len(bottoms)}"]
    if rng.random() < 0.3:
        out[0] += "  # " + _name(rng)
    for idx, (name, row) in enumerate(zip(names, rows)):
        kind = f"long {ends[idx]['start']} {ends[idx]['end']}" if idx < n_long else "closed"
        out.append(f"{rng.choice(('', ' '))}component {name}{rng.choice(_GAPS)}{kind}")
        line: list[str] = []
        for token in row:
            line.append(token)
            if rng.random() < 0.1:
                out.append(rng.choice(_GAPS).join(line))
                line = []
        out.append(rng.choice(_GAPS).join(line))
        if rng.random() < 0.2:
            out.append("# " + _name(rng))
    return "\n".join(out) + rng.choice(("\n", "", "\n\n"))


def test_parse_matches_oracle_on_valid_texts():
    rng = random.Random(7)
    long_seen = singular_seen = closed_seen = 0
    for _ in range(2000):
        diagram = same_as_oracle(_valid_text(rng))
        assert diagram is not None
        long_seen += any(comp.is_long for comp in diagram.components)
        closed_seen += any(comp.is_closed for comp in diagram.components)
        singular_seen += diagram.has_singular()
    assert min(long_seen, closed_seen, singular_seen) >= 500


_TOKEN_RE = re.compile(r"\S+")
_LINE_BREAKS = ("\r\n", "\r", "\x0c", " ", "\x0b", "\x1c", "\x85", "\u2028")
_UNICODE_SPACES = ("\u00a0", "\u2003", "\u3000", "\x1f")


def _mutate(rng: random.Random, text: str) -> str:
    """One random edit of the kinds a hand-written file might carry."""
    spans = [m.span() for m in _TOKEN_RE.finditer(text)]
    start, end = rng.choice(spans)
    visits = [(s, e) for s, e in spans if text[s] in "OUS" and text[e - 1] in "+-"]
    s, e = rng.choice(visits or spans)
    how = rng.choice(("drop", "duplicate", "swap", "overwrite", "role", "sign", "label",
                      "header", "comment", "line breaks", "spaces"))
    if how == "drop":
        return text[:start] + text[end:]
    if how == "duplicate":
        return text[:end] + " " + text[start:end] + text[end:]
    if how == "swap":
        (s1, e1), (s2, e2) = sorted(rng.sample(spans, 2)) if len(spans) > 1 else (spans[0],) * 2
        return text[:s1] + text[s2:e2] + text[e1:s2] + text[s1:e1] + text[e2:]
    if how == "overwrite":      # with a copy of another token, often a similar one
        alike = [(s2, e2) for s2, e2 in spans if text[s2] == text[start]]
        s2, e2 = rng.choice(rng.choice((alike, spans)))
        return text[:start] + text[s2:e2] + text[end:]
    if how == "role":           # O <-> U, or a singular passage made classical
        return text[:s] + {"O": "U", "U": "O", "S": "O"}.get(text[s], "S") + text[s + 1:]
    if how == "sign":
        return text[:e - 1] + {"+": "-", "-": "+"}.get(text[e - 1], "+") + text[e:]
    if how == "label":          # to another visit's label or a fresh one
        s2, e2 = rng.choice(visits or spans)
        label = rng.choice((text[s2 + 1:e2 - 1], _name(rng)))
        return text[:s + 1] + label + text[e - 1:]
    if how == "header":
        s2, e2 = spans[rng.randrange(min(3, len(spans)))]
        bad = rng.choice(("knot", "tangle", "x", "0", "1234567890", "\u0663", "-1"))
        return text[:s2] + bad + text[e2:]
    if how == "comment":
        at = rng.randrange(len(text) + 1)
        return text[:at] + "#" + text[at:]
    if how == "line breaks":
        return text.replace("\n", rng.choice(_LINE_BREAKS))
    return "".join(rng.choice(_UNICODE_SPACES) if ch == " " and rng.random() < 0.5 else ch
                   for ch in text)


# one fragment of each ParseError message the parser can raise
_CHECKS = (
    "expected 'tangle'", "expected top point count", "expected bottom point count",
    "more than 9 digits", "unexpected end of input", "expected 'component'",
    "declared twice", "expected 'closed' or 'long'", "bad boundary point",
    "must start at an 'in' point", "must end at an 'out' point", "out of range",
    "used twice", "expected end of line", "bad visit token", "not used by any component",
    "dangling chord", "appears more than twice", "sign mismatch", "mixes singular",
    "once as O and once as U",
)


def test_parse_matches_oracle_on_mutated_texts():
    rng = random.Random(11)
    outcomes = {"parsed": 0, "error": 0}
    fired: set[str] = set()
    for _ in range(2000):
        text = _valid_text(rng, max_chords=20)
        for _ in range(rng.randint(1, 2)):
            text = _mutate(rng, text)
        try:
            oracle_parse(text)
        except ParseError as err:
            fired.update(check for check in _CHECKS if check in err.message)
        outcomes["parsed" if same_as_oracle(text) is not None else "error"] += 1
    assert min(outcomes.values()) >= 300
    assert fired == set(_CHECKS), set(_CHECKS) - fired


# ── Spans on error only, late errors in long texts, and the file bounds ──

def _big_text(rng: random.Random, chords: int) -> str:
    """A valid file of ``chords`` classical chords on two long and two
    closed components, each row on one line with mixed whitespace."""
    rows: list[list[str]] = [[] for _ in range(4)]
    for label in range(1, chords + 1):
        sign = rng.choice("+-")
        for role in rng.choice((("O", "U"), ("U", "O"))):
            rows[rng.randrange(4)].append(f"{role}{label}{sign}")
    headers = ("component a long T1:in B1:out", "component b long T2:in B2:out",
               "component c closed", "component d closed")
    out = ["tangle 2 2"]
    for header, row in zip(headers, rows):
        rng.shuffle(row)
        out += [header, "".join(token + rng.choice(_GAPS) for token in row)]
    return "\n".join(out) + "\n"


def test_valid_parse_builds_no_span(monkeypatch):
    from tanglepoly import gaussio

    built = []

    class Spy(gaussio.SourceSpan):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    text = _big_text(random.Random(3), 3200)
    monkeypatch.setattr(gaussio, "SourceSpan", Spy)
    assert len(parse(text).chords) == 3200
    assert built == []
    # an error still builds its one span
    with pytest.raises(ParseError):
        parse(text + "O1+")
    assert len(built) == 1


def _late_errors(text: str) -> list[tuple[str, str, int]]:
    """Each kind of late error put at the end of a long valid text from
    ``_big_text``: (message fragment, text, line of the error)."""
    end = len(text.rstrip())                 # the end of the last visit row
    last = text[:end].split()[-1]
    label, sign = last[1:-1], last[-1]
    header = text.rindex("component d closed") + len("component d closed")
    return [
        ("bad visit token", text[:end] + "\t\u00a0\u3000Q9+" + text[end:], 9),
        ("dangling chord", text + "O999999+\n", 10),
        ("appears more than twice", text[:end] + " " + last + text[end:], 9),
        ("sign mismatch", text[:end - 1] + {"+": "-", "-": "+"}[sign] + text[end:], 9),
        ("mixes singular", text[:end - len(last)] + f"S{label}{sign}" + text[end:], 9),
        ("expected end of line", text[:header] + " " + last + text[header:], 8),
    ]


@pytest.mark.parametrize("seed", [5, 6])
def test_late_errors_match_oracle_on_long_texts(seed):
    text = _big_text(random.Random(seed), 3200)
    assert same_as_oracle(text) is not None
    for fragment, bad, line in _late_errors(text):
        assert same_as_oracle(bad) is None, fragment
        with pytest.raises(ParseError) as info:
            parse(bad)
        assert fragment in info.value.message, (fragment, info.value.message)
        assert info.value.span.line == line, fragment


def test_chord_label_bound(monkeypatch):
    from tanglepoly import gaussio

    monkeypatch.setattr(gaussio, "MAX_CHORDS", 3)
    text = "tangle 0 0\ncomponent K closed\nO1+ U1+ O2- U2- Ox+ Ux+\n"
    assert len(parse(text).chords) == 3
    err = expect_error(text[:-1] + " Oy+ Uy+\n", "more than 3 chord labels")
    assert (err.span.line, err.span.col_start, err.span.col_end) == (3, 25, 27)


def test_component_bound():
    from tanglepoly.gaussio import MAX_COMPONENTS

    assert MAX_COMPONENTS == 1_000
    names = "".join(f"component c{i} closed\n" for i in range(MAX_COMPONENTS))
    assert len(parse("tangle 0 0\n" + names).components) == MAX_COMPONENTS
    # the next header fails, before its name is read
    err = expect_error("tangle 0 0\n" + names + "component c7 sideways\n",
                       "more than 1000 components")
    assert err.message == "more than 1000 components"
    assert (err.span.line, err.span.col_start, err.span.col_end) == (1002, 1, 9)


def test_token_length_bound(monkeypatch):
    from tanglepoly import gaussio

    monkeypatch.setattr(gaussio, "MAX_TOKEN_CHARS", 10)
    name = "n" * 10
    d = parse(f"tangle 0 0\ncomponent {name} closed\n")
    assert tuple(comp.cid for comp in d.components) == (name,)
    # fires before any other check, at the first token over the bound, and
    # not on text after a '#'
    err = expect_error(f"knot\ncomponent {name} closed # {name}xx\n\t{name}x {name}yy\n",
                       "token longer than 10 characters")
    assert (err.span.line, err.span.col_start, err.span.col_end) == (3, 2, 12)


def test_gen_output_is_within_the_chord_bound():
    from tanglepoly import cli, gaussio

    assert cli.MAX_GEN_CHORDS <= gaussio.MAX_CHORDS


# ── The serializer against tests/rebuild_oracle.py ────────────────────────


def test_serialize_matches_token_oracle(monkeypatch):
    from collections import Counter

    from tanglepoly import connect, moves, random_walk, reverse_component
    from tanglepoly.diagram import Singular
    from helpers import closed_triangle_knot, positive_braid_triangle, random_string_link
    from rebuild_oracle import serialize_by_tokens

    applied = Counter()
    real_apply = moves.apply

    def spy(diagram, site):
        applied[type(site).__name__] += 1
        return real_apply(diagram, site)

    monkeypatch.setattr(moves, "apply", spy)
    rng = random.Random(29)
    diagrams = [clasp(), virtual_trefoil(), singular_virtual_trefoil(),
                TangleDiagram(0, 0, (), ())]
    starts = [positive_braid_triangle(), closed_triangle_knot()]
    starts += [random_diagram(rng, max_components=3, max_chords=8,
                              n_singular=rng.choice((0, 1, 2))) for _ in range(40)]
    for seed, start in enumerate(starts):
        diagrams += random_walk(start, 30, seed=seed, cap=rng.choice((6, 12, 24)))
    for strands in (1, 2, 3, 4):
        for _ in range(6):
            upper, lower = (random_string_link(rng, strands, 10) for _ in range(2))
            diagrams.append(connect(upper, lower).diagram)
    diagrams += [link_with_linking_numbers(a, b) for a in range(4) for b in range(4)]
    diagrams += [reverse_component(d, comp.cid) for d in list(diagrams)
                 for comp in d.components]
    assert set(applied) == {"KinkInsert", "KinkRemove", "PairInsert", "PairRemove",
                            "TriangleSlide"}, applied
    frames = {c.kind.frame for d in diagrams for c in d.chords if isinstance(c.kind, Singular)}
    assert frames == {1, -1}
    for d in diagrams:
        assert serialize(d) == serialize_by_tokens(d), d


def test_serialize_refuses_kinds_the_format_cannot_write():
    from tanglepoly import DiagramError
    from tanglepoly.diagram import Chord, Classical, Singular

    good = clasp()
    first, second = good.chords
    for kind in (Classical(2, "a"), Classical(0, "a"), Singular(0), Singular(3),
                 Classical(1, "c")):
        bad = TangleDiagram(good.top, good.bottom, good.components,
                            (first, Chord(second.label, second.end_a, second.end_b, kind)))
        assert validate(bad)
        with pytest.raises(DiagramError) as info:
            serialize(bad)
        assert str(info.value) == f"chord {second.label!r}: the format cannot write {kind!r}"


# ── The tokenizer keeps only lines that hold tokens ───────────────────────


def test_comment_lines_cost_no_memory():
    import tracemalloc

    text = "tangle 0 0\n" + "##\n" * 100_000
    tracemalloc.start()
    try:
        assert parse(text) == TangleDiagram(0, 0, (), ())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * len(text), peak


@pytest.mark.parametrize("chunk", [1, 2, 3, 5, 8])
def test_lines_split_in_chunks_as_splitlines(monkeypatch, chunk):
    from tanglepoly import gaussio

    monkeypatch.setattr(gaussio, "_CHUNK", chunk)
    rng = random.Random(chunk)
    pieces = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "", "a", "bc",
              "# x", " "]
    for _ in range(300):
        text = "".join(rng.choice(pieces) for _ in range(rng.randint(0, 30)))
        assert list(gaussio._lines(text)) == text.splitlines(), repr(text)
    # spans and the end of input keep their line numbers and columns
    text = "tangle 0 0\r\n\r\n# c\rcomponent K closed\x0c\u2028O1+  U1+ O2+\r\n\n  "
    with pytest.raises(ParseError) as info:
        parse(text)
    assert (info.value.message, str(info.value.span)) == (
        "dangling chord '2': label appears only once", "line 6, cols 10-12")
    with pytest.raises(ParseError) as info:
        parse("tangle 0\r\n\r\n  ")
    assert str(info.value.span) == "line 3, cols 2-2"
