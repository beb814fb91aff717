"""Format: parser errors with spans, serializer round trips, totality."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from tanglepoly import (
    ParseError,
    equal_diagrams,
    link_with_linking_numbers,
    parse,
    serialize,
    virtual_linking_number,
)
from helpers import (
    CLASP_TEXT,
    clasp,
    random_diagram,
    singular_virtual_trefoil,
    virtual_trefoil,
)


def test_parse_clasp_structure():
    d = clasp()
    assert (d.top, d.bottom) == (2, 2)
    assert d.component_ids() == ("A", "B")
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
    # the first repeat is the one reported, after many distinct names
    names = "".join(f"component c{i} closed\n" for i in range(3000))
    err = expect_error("tangle 0 0\n" + names + "component c7 closed\ncomponent c9 closed\n",
                       "component 'c7' declared twice")
    assert err.span.line == 3002


def test_boundary_unused():
    expect_error("tangle 2 2\ncomponent A long T1:in B1:out\n", "not used")


def test_direction_violations():
    expect_error("tangle 1 1\ncomponent A long T1:out B1:out\n", "start at an 'in'")
    expect_error("tangle 1 1\ncomponent A long T1:in B1:in\n", "end at an 'out'")


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
    from tanglepoly.diagram import EMPTY
    assert serialize(EMPTY) == "tangle 0 0\n"
    assert equal_diagrams(parse("tangle 0 0\n"), EMPTY)


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


@given(st.text(max_size=80))
@settings(max_examples=300)
def test_parse_is_total(text):
    # any input either parses or raises ParseError with an in-bounds span
    try:
        parse(text)
    except ParseError as err:
        lines = text.splitlines() or [""]
        assert 1 <= err.span.line <= max(len(lines), 1)
        assert err.span.col_start >= 1
        assert err.span.col_end >= err.span.col_start


@given(st.integers(0, 4), st.integers(0, 4))
def test_parse_serialize_identity_on_generator(a, b):
    d = link_with_linking_numbers(a, b)
    assert parse(serialize(d)) == d
