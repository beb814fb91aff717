"""Tangle algebra: stacking, string links, closure, generators, additivity."""

import random

import pytest

from tanglepoly import (
    BoundaryPoint,
    Classical,
    DiagramError,
    GlueError,
    InvariantError,
    Side,
    closure,
    connect,
    equal_diagrams,
    from_tokens,
    henrich_turaev_polynomial,
    invariant_report,
    is_string_link,
    laurent_linking_polynomial,
    linking_polynomial,
    link_with_linking_numbers,
    parse,
    reverse_component,
    self_crossing_polynomial,
    serialize,
    validate,
    virtual_linking_number,
)
from helpers import (
    additivity,
    clasp,
    identity_braid,
    poly,
    random_diagram,
    random_string_link,
    virtual_trefoil,
)


def test_connect_with_identity_braid():
    d = clasp()
    glue = connect(d, identity_braid(2))
    assert validate(glue.diagram) == []
    assert invariant_report(glue.diagram, 1, 2) == invariant_report(d, 1, 2)
    other = connect(identity_braid(2), d)
    assert invariant_report(other.diagram, 1, 2) == invariant_report(d, 1, 2)


def test_connect_clasp_clasp():
    glue = connect(clasp(), clasp())
    assert glue.relations == ((1, 1), (2, 2))
    assert glue.component_map == ((("upper", 1), ("lower", 1)),
                                  (("upper", 2), ("lower", 2)))
    assert virtual_linking_number(glue.diagram, 1, 2) == 2
    assert virtual_linking_number(glue.diagram, 2, 1) == 2
    a, b = 1, 2
    assert linking_polynomial(glue.diagram, a, b) == poly(2, {(1, 1): 2 * (a + b)})


def test_connect_boundary_count_mismatch():
    with pytest.raises(GlueError):
        connect(clasp(), identity_braid(3))


def test_connect_direction_clash():
    down = parse("tangle 1 1\ncomponent A long T1:in B1:out\n")
    up = parse("tangle 1 1\ncomponent A long B1:in T1:out\n")
    # down's strand leaves through the bottom; up's strand leaves through
    # the top: both sides emit into the interface
    with pytest.raises(GlueError):
        connect(down, up)
    assert validate(connect(down, down).diagram) == []
    assert validate(connect(up, up).diagram) == []


def test_connect_cup_cap_closes_circle():
    cup = parse("tangle 0 2\ncomponent U long B1:in B2:out\n")
    cap = parse("tangle 2 0\ncomponent C long T2:in T1:out\n")
    glue = connect(cup, cap)
    assert (glue.diagram.top, glue.diagram.bottom) == (0, 0)
    assert len(glue.diagram.components) == 1
    assert glue.diagram.components[0].is_closed
    assert glue.relations == ((1, 1),)


def test_connect_three_constituent_chain():
    # a cup glued onto one up-strand and one down-strand merges all three
    # long components into a single strand
    cup = parse("tangle 0 2\ncomponent U long B1:in B2:out\nO1+ U1+\n")
    lower = parse("tangle 2 2\ncomponent R long B1:in T1:out\n"
                  "component D long T2:in B2:out\n")
    glue = connect(cup, lower)
    assert validate(glue.diagram) == []
    assert len(glue.diagram.components) == 1
    comp = glue.diagram.components[0]
    assert comp.is_long
    assert (comp.start.side, comp.start.index) == (Side.BOTTOM, 1)
    assert (comp.end.side, comp.end.index) == (Side.BOTTOM, 2)
    assert glue.component_map == ((("lower", 1), ("upper", 1), ("lower", 2)),)
    assert sorted(glue.relations) == [(1, 1), (1, 2)]
    # the cup's kink survives the merge
    assert len(glue.diagram.chords) == 1


def test_connect_carries_closed_passengers():
    upper = parse("tangle 1 1\ncomponent A long T1:in B1:out\n"
                  "component K closed\nO1+ U1+\n")
    glue = connect(upper, identity_braid(1))
    assert len(glue.diagram.components) == 2
    kinds = [comp.is_closed for comp in glue.diagram.components]
    assert kinds == [False, True]
    assert glue.component_map == ((("upper", 1), ("lower", 1)), (("upper", 2),))


def test_is_string_link():
    assert is_string_link(identity_braid(3))
    assert is_string_link(clasp())
    assert not is_string_link(virtual_trefoil())
    permuted = parse("tangle 2 2\ncomponent A long T1:in B2:out\n"
                     "component B long T2:in B1:out\n")
    assert not is_string_link(permuted)
    with_closed = parse("tangle 1 1\ncomponent A long T1:in B1:out\n"
                        "component K closed\nO1+ U1+\n")
    assert not is_string_link(with_closed)


def test_closure():
    closed = closure(identity_braid(3))
    assert (closed.top, closed.bottom) == (0, 0)
    assert all(comp.is_closed for comp in closed.components)
    assert invariant_report(closed, 1, 1).psc.is_zero()

    clasp_closed = closure(clasp())
    assert virtual_linking_number(clasp_closed, 1, 2) == 1
    assert virtual_linking_number(clasp_closed, 2, 1) == 1

    with pytest.raises(GlueError):
        closure(virtual_trefoil())


def test_closure_of_long_knot_matches_knot_polynomial():
    rng = random.Random(83)
    for _ in range(20):
        d = random_string_link(rng, 1, max_chords=6)
        closed = closure(d)
        assert self_crossing_polynomial(closed) == henrich_turaev_polynomial(closed)
        assert self_crossing_polynomial(closed) == self_crossing_polynomial(d)


def test_generator_values():
    unlink = link_with_linking_numbers(0, 0)
    assert validate(unlink) == []
    assert invariant_report(unlink, 1, 1).psc.is_zero()
    assert virtual_linking_number(unlink, 1, 2) == 0

    d = link_with_linking_numbers(3, 2)
    assert virtual_linking_number(d, 1, 2) == 3
    assert virtual_linking_number(d, 2, 1) == -2

    with pytest.raises(ValueError):
        link_with_linking_numbers(-1, 0)


def test_generator_separation_witness():
    d = link_with_linking_numbers(2, 1)
    assert linking_polynomial(d, 1, 2).is_zero()
    assert laurent_linking_polynomial(d, 1, 2) == poly(2, {(1, -1): 2, (-1, 1): -2})


def test_generator_round_trips():
    d = link_with_linking_numbers(1, 1)
    assert equal_diagrams(parse(serialize(d)), d)
    assert virtual_linking_number(parse(serialize(d)), 2, 1) == -1


def test_string_link_additivity_random():
    rng = random.Random(89)
    for _ in range(25):
        strands = rng.choice((2, 3))
        left = random_string_link(rng, strands, max_chords=6)
        right = random_string_link(rng, strands, max_chords=6)
        glue = connect(left, right)
        checks = additivity(left, right, glue, 1, 2)
        assert all(checks.values()), checks
        # linking numbers add pairwise under stacking
        for i in range(1, strands + 1):
            for j in range(1, strands + 1):
                if i == j:
                    continue
                assert virtual_linking_number(glue.diagram, i, j) == \
                    virtual_linking_number(left, i, j) + \
                    virtual_linking_number(right, i, j)
        # commutativity of the sum for string links
        reversed_glue = connect(right, left)
        for fn in (self_crossing_polynomial,
                   lambda d: linking_polynomial(d, 1, 2),
                   lambda d: laurent_linking_polynomial(d, 1, 2)):
            assert fn(glue.diagram) == fn(reversed_glue.diagram)


def test_permuted_tangle_additivity():
    # (2,2) tangles whose strands swap the endpoints.  The self-crossing
    # polynomial is additive outright; the linking polynomials are additive
    # once the lower tangle's components are ordered compatibly with the
    # gluing (component order is caller data), or unconditionally at a = b.
    from tanglepoly.diagram import TangleDiagram

    upper = parse("tangle 2 2\ncomponent A long T1:in B2:out\nO1+ O2+ U1+ U2+\n"
                  "component B long T2:in B1:out\n")
    lower = parse("tangle 2 2\ncomponent C long T1:in B2:out\nOx+ Oy+\n"
                  "component D long T2:in B1:out\nUx+ Uy+\n")
    glue = connect(upper, lower)
    assert validate(glue.diagram) == []
    # the swap sends upper strand 1 onto lower strand 2 and vice versa
    assert sorted(glue.relations) == [(1, 2), (2, 1)]

    naive = additivity(upper, lower, glue, 1, 2)
    assert naive["psc"]
    # order-reversing gluing with asymmetric linking: the a/b weights attach
    # to pair order, so naive substitution cannot hold at a != b
    assert not naive["plk"] and not naive["plkL"]
    assert all(additivity(upper, lower, glue, 2, 2).values())

    reordered = TangleDiagram(lower.top, lower.bottom,
                              (lower.components[1], lower.components[0]),
                              lower.chords)
    assert validate(reordered) == []
    aligned = connect(upper, reordered)
    assert sorted(aligned.relations) == [(1, 1), (2, 2)]
    assert all(additivity(upper, reordered, aligned, 1, 2).values())


def test_additivity_with_closed_passenger():
    upper = parse("tangle 2 2\ncomponent A long T1:in B1:out\nO1+ U2+\n"
                  "component B long T2:in B2:out\nU1+ O2+\n"
                  "component K closed\nOk+ Uk+\n")
    lower = clasp()
    glue = connect(upper, lower)
    checks = additivity(upper, lower, glue, 2, 3)
    assert all(checks.values()), checks


def test_additivity_runs_one_kernel_pass_per_diagram(monkeypatch, capsys, tmp_path):
    # tanglepoly sum checks additivity on the three reports it prints
    from tanglepoly import invariants
    from tanglepoly.cli import main

    calls = []
    kernel = invariants._kernel

    def spy(diagram, *args):
        calls.append(diagram)
        return kernel(diagram, *args)

    monkeypatch.setattr(invariants, "_kernel", spy)
    upper, lower = clasp(), random_string_link(random.Random(5), 2, max_chords=6)
    glue = connect(upper, lower)
    paths = []
    for name, diagram in (("upper", upper), ("lower", lower)):
        paths += ["-i", str(tmp_path / name)]
        (tmp_path / name).write_text(serialize(diagram))
    for a, b in (("1", "1"), ("2", "-3")):
        calls.clear()
        assert main(["sum", *paths, "--a", a, "--b", b]) == 0
        assert "additivity: PASS" in capsys.readouterr().out
        assert calls == [upper, lower, glue.diagram]


def test_additivity_refuses_singular_input():
    upper = parse("tangle 2 2\ncomponent A long T1:in B1:out\nS1+ U2+\n"
                  "component B long T2:in B2:out\nS1+ O2+\n")
    glue = connect(upper, clasp())
    with pytest.raises(InvariantError) as info:
        additivity(upper, clasp(), glue, 1, 1)
    assert str(info.value) == ("the self-crossing polynomial is undefined on diagrams "
                               "with singular chords (found '1'); resolve them first")


def test_connect_and_gen_match_reference(monkeypatch):
    from tanglepoly import ops
    from rebuild_oracle import from_tokens_reference

    rng = random.Random(13)
    pairs = [(clasp(), clasp()), (clasp(), identity_braid(2)),
             (parse("tangle 2 2\ncomponent A long T1:in B2:out\nO1+ O2+ U1+ U2+\n"
                    "component B long T2:in B1:out\n"),
              parse("tangle 2 2\ncomponent C long T1:in B2:out\nOx+ Oy+\n"
                    "component D long T2:in B1:out\nUx+ Uy+\n")),
             (parse("tangle 2 2\ncomponent A long T1:in B1:out\nO1+ U2+\n"
                    "component B long T2:in B2:out\nU1+ O2+\n"
                    "component K closed\nOk+ Uk+\n"), clasp())]
    for _ in range(40):
        strands = rng.randint(1, 4)
        pairs.append((random_string_link(rng, strands, max_chords=40),
                      random_string_link(rng, strands, max_chords=40)))
    bands = [(0, 0), (1, 0), (0, 1), (3, 2), (40, 25)]
    got = [connect(upper, lower) for upper, lower in pairs]
    got_links = [link_with_linking_numbers(a, b) for a, b in bands]
    monkeypatch.setattr(ops, "from_tokens", from_tokens_reference)
    want = [connect(upper, lower) for upper, lower in pairs]
    want_links = [link_with_linking_numbers(a, b) for a, b in bands]
    for built, reference in zip(got + got_links, want + want_links):
        assert built == reference and repr(built) == repr(reference)


def _glue_outcome(glue_function, upper, lower):
    try:
        glue = glue_function(upper, lower)
    except GlueError as exc:
        return "error", str(exc)
    return glue, repr(glue)


def _randomly_reversed(rng, diagram):
    """``diagram`` with each component reversed or not at random, so that
    caps and cups meet in either orientation."""
    for comp in diagram.components:
        if rng.random() < 0.5:
            diagram = reverse_component(diagram, comp.cid)
    return diagram


def test_connect_matches_token_oracle():
    from rebuild_oracle import connect_by_tokens

    rng = random.Random(29)
    seen = {"glued": 0, "cycle": 0, "passenger": 0, "mismatch": 0, "clash": 0}
    for trial in range(1500):
        if trial % 3 == 0:
            strands = rng.randint(1, 6)
            upper, lower = (random_string_link(rng, strands, max_chords=12) for _ in range(2))
        else:
            upper = _randomly_reversed(rng, random_diagram(
                rng, max_components=4, max_chords=10, n_singular=rng.randint(0, 2)))
            # most draws match the upper boundary; the rest test a mismatch
            for _ in range(rng.choice((1, 30))):
                lower = random_diagram(rng, max_components=4, max_chords=10)
                if lower.top == upper.bottom:
                    break
            lower = _randomly_reversed(rng, lower)
        got = _glue_outcome(connect, upper, lower)
        assert got == _glue_outcome(connect_by_tokens, upper, lower)
        glue, text = got
        if glue == "error":
            seen["mismatch" if text.startswith("boundary count") else "clash"] += 1
            continue
        seen["glued"] += 1
        for comp, constituents in zip(glue.diagram.components, glue.component_map):
            inputs = [(upper if side == "upper" else lower).components[number - 1]
                      for side, number in constituents]
            if comp.is_closed and inputs[0].is_long:
                seen["cycle"] += 1
            elif comp.is_closed:
                seen["passenger"] += 1
    # every path through connect is taken many times
    assert min(seen.values()) >= 20, seen


def _oriented_tangle(rng, top, bottom, max_chords=8):
    """A diagram whose top and bottom boundary points are paired at random
    into long components, each oriented at random, where ``random_diagram``
    starts every cup and cap at its lower index.  Up to one closed component
    rides along, and chords are placed as ``random_diagram`` places them."""
    points = [(Side.TOP, i) for i in range(1, top + 1)]
    points += [(Side.BOTTOM, i) for i in range(1, bottom + 1)]
    rng.shuffle(points)
    n_long = len(points) // 2
    tokens = [[] for _ in range(n_long + rng.randint(0, 1))]
    kinds = {}
    for label in map(str, range(1, rng.randint(0, max_chords) + 1)):
        kinds[label] = Classical(rng.choice((1, -1)), rng.choice("ab"))
        for tag in "ab":
            tokens[rng.randrange(len(tokens))].append((label, tag))
    specs = []
    for idx, row in enumerate(tokens):
        rng.shuffle(row)
        start = end = None
        if idx < n_long:
            (start_side, start_index), (end_side, end_index) = points[2 * idx:2 * idx + 2]
            start = BoundaryPoint(start_side, start_index)
            end = BoundaryPoint(end_side, end_index)
        specs.append((f"c{idx + 1}", start, end, row))
    return from_tokens(top, bottom, specs, kinds)


def test_connect_closes_cycles_under_random_gluing():
    from rebuild_oracle import connect_by_tokens

    rng = random.Random(37)
    with_cycle = 0
    for _ in range(3000):
        middle = rng.randint(1, 4)
        upper = _oriented_tangle(rng, rng.randrange(middle % 2, 5, 2), middle)
        lower = _oriented_tangle(rng, middle, rng.randrange(middle % 2, 5, 2))
        got = _glue_outcome(connect, upper, lower)
        assert got == _glue_outcome(connect_by_tokens, upper, lower)
        glue = got[0]
        if glue == "error":
            continue
        for comp, constituents in zip(glue.diagram.components, glue.component_map):
            side, number = constituents[0]
            if comp.is_closed and (upper if side == "upper" else lower).components[number - 1].is_long:
                with_cycle += 1
                break
    assert with_cycle >= 100, with_cycle


def test_connect_never_lists_tokens(monkeypatch):
    from tanglepoly import diagram, ops

    def no_tokens(*args):
        raise AssertionError("component_tokens called")

    monkeypatch.setattr(diagram, "component_tokens", no_tokens)
    monkeypatch.setattr(ops, "component_tokens", no_tokens)
    rng = random.Random(3)
    upper, lower = (random_string_link(rng, 3, max_chords=20) for _ in range(2))
    assert validate(connect(upper, lower).diagram) == []


def test_connect_rejects_inconsistent_chords():
    from tanglepoly.diagram import Chord, Component, Endpoint, TangleDiagram, component_tokens
    from rebuild_oracle import connect_by_tokens

    good = clasp()
    first, second = good.chords
    a, b = good.components

    def with_chords(*chords):
        return TangleDiagram(good.top, good.bottom, good.components, chords)

    broken = {
        "unknown component": with_chords(
            Chord(first.label, first.end_a, Endpoint("Z", 0), first.kind), second),
        "position out of range": with_chords(
            first, Chord(second.label, second.end_a, Endpoint(b.cid, len(b.visits)),
                         second.kind)),
        "slot taken": with_chords(
            first, Chord(second.label, first.end_a, second.end_b, second.kind)),
        "uncovered visit": TangleDiagram(good.top, good.bottom, (
            Component(a.cid, a.visits + ("3",), a.start, a.end), b), good.chords),
    }
    for name, bad in broken.items():
        with pytest.raises(DiagramError) as expected:
            component_tokens(bad)
        with pytest.raises(DiagramError) as written:
            serialize(bad)
        assert str(written.value) == str(expected.value), name
        for upper, lower in ((bad, good), (good, bad), (bad, bad)):
            with pytest.raises(DiagramError) as info:
                connect(upper, lower)
            assert str(info.value) == str(expected.value), name
            with pytest.raises(DiagramError) as oracle:
                connect_by_tokens(upper, lower)
            assert str(oracle.value) == str(expected.value), name


def test_connect_rejects_unpaired_interface_ends():
    from tanglepoly.diagram import Component, TangleDiagram

    two = parse("tangle 2 2\ncomponent A long T1:in B1:out\ncomponent B long T2:in B2:out\n")
    a, b = two.components
    one = identity_braid(1)
    unpaired = [
        # B ends at B2 of a one-point bottom
        (TangleDiagram(two.top, 1, two.components, two.chords), one),
        # A and B both end at B1
        (TangleDiagram(two.top, 1, (a, Component(b.cid, b.visits, b.start, a.end)), two.chords),
         one),
        # B starts at T2 of a one-point top
        (one, TangleDiagram(1, two.bottom, two.components, two.chords)),
    ]
    for upper, lower in unpaired:
        assert validate(upper) or validate(lower)
        with pytest.raises(DiagramError) as info:
            connect(upper, lower)
        assert str(info.value) == "an interface point is used twice or lies out of range"
