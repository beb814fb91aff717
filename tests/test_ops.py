"""Tangle algebra: stacking, string links, closure, generators, additivity."""

import random

import pytest

from tanglepoly import (
    GlueError,
    InvariantError,
    Side,
    check_additivity,
    closure,
    connect,
    equal_diagrams,
    henrich_turaev_polynomial,
    invariant_report,
    is_string_link,
    laurent_linking_polynomial,
    linking_polynomial,
    link_with_linking_numbers,
    parse,
    self_crossing_polynomial,
    serialize,
    validate,
    virtual_linking_number,
)
from helpers import (
    clasp,
    identity_braid,
    poly,
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
        checks = check_additivity(left, right, glue, 1, 2)
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

    naive = check_additivity(upper, lower, glue, 1, 2)
    assert naive["psc"]
    # order-reversing gluing with asymmetric linking: the a/b weights attach
    # to pair order, so naive substitution cannot hold at a != b
    assert not naive["plk"] and not naive["plkL"]
    assert all(check_additivity(upper, lower, glue, 2, 2).values())

    reordered = TangleDiagram(lower.top, lower.bottom,
                              (lower.components[1], lower.components[0]),
                              lower.chords)
    assert validate(reordered) == []
    aligned = connect(upper, reordered)
    assert sorted(aligned.relations) == [(1, 1), (2, 2)]
    assert all(check_additivity(upper, reordered, aligned, 1, 2).values())


def test_additivity_with_closed_passenger():
    upper = parse("tangle 2 2\ncomponent A long T1:in B1:out\nO1+ U2+\n"
                  "component B long T2:in B2:out\nU1+ O2+\n"
                  "component K closed\nOk+ Uk+\n")
    lower = clasp()
    glue = connect(upper, lower)
    checks = check_additivity(upper, lower, glue, 2, 3)
    assert all(checks.values()), checks


def test_additivity_runs_one_kernel_pass_per_diagram(monkeypatch):
    from tanglepoly import invariants

    calls = []
    kernel = invariants._kernel

    def spy(diagram):
        calls.append(diagram)
        return kernel(diagram)

    monkeypatch.setattr(invariants, "_kernel", spy)
    upper, lower = clasp(), random_string_link(random.Random(5), 2, max_chords=6)
    glue = connect(upper, lower)
    for a, b in ((1, 1), (2, -3)):
        calls.clear()
        checks = check_additivity(upper, lower, glue, a, b)
        assert all(checks.values()), checks
        assert calls == [glue.diagram, upper, lower]


def test_additivity_refuses_singular_input():
    upper = parse("tangle 2 2\ncomponent A long T1:in B1:out\nS1+ U2+\n"
                  "component B long T2:in B2:out\nS1+ O2+\n")
    glue = connect(upper, clasp())
    with pytest.raises(InvariantError) as info:
        check_additivity(upper, clasp(), glue, 1, 1)
    assert str(info.value) == ("the self-crossing polynomial is undefined on diagrams "
                               "with singular chords (found '1'); resolve them first")
