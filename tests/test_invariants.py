"""Invariants: smoothing splits, intersection indices, the polynomial
families, linking and wriggle numbers.

Expected values are frozen from hand smoothings of the planar diagrams
(virtual and classical trefoils, clasp variants); the structural properties
are checked on seeded random diagrams, and the prefix-sum kernel is checked
against the slow smoothing oracle in ``smoothing_oracle``.
"""

import random
from fractions import Fraction

import pytest

from tanglepoly import (
    InvariantError,
    henrich_turaev_polynomial,
    link_with_linking_numbers,
    intersection_index,
    invariant_report,
    laurent_linking_polynomial,
    linking_polynomial,
    long_ordered_polynomial,
    parse,
    random_walk,
    reverse_component,
    self_crossing_polynomial,
    virtual_linking_number,
    wriggle_number,
)
from tanglepoly import invariants
from smoothing_oracle import (
    index_from_split,
    oriented_smoothing,
    slow_index,
    slow_long_ordered,
    slow_report,
    slow_vlk,
)
from helpers import (
    clasp,
    clasp_single_chord,
    classical_trefoil,
    identity_braid,
    long_virtual_trefoil,
    poly,
    random_closed_knot,
    random_diagram,
    random_string_link,
    random_two_component_closed,
    singular_virtual_trefoil,
    virtual_trefoil,
)


# ── smoothing splits ──────────────────────────────────────────────────────

def test_smoothing_virtual_trefoil():
    d = virtual_trefoil()
    # visits: O1@0 O2@1 U1@2 U2@3; smoothing chord 1 separates O2 from U2
    split = oriented_smoothing(d, "1")
    assert split.piece1 == frozenset({1})
    assert split.piece2 == frozenset({3})
    assert not split.long_piece1


def test_smoothing_isolated_chord():
    d = parse("tangle 0 0\ncomponent K closed\nO1+ U1+\n")
    split = oriented_smoothing(d, "1")
    assert split.piece1 == frozenset()
    assert split.piece2 == frozenset()


def test_smoothing_long_single_chord():
    d = parse("tangle 1 1\ncomponent K long T1:in B1:out\nO1+ U1+\n")
    split = oriented_smoothing(d, "1")
    assert split.long_piece1
    assert split.piece1 == frozenset()
    assert split.piece2 == frozenset()


def test_smoothing_errors():
    d = clasp()
    with pytest.raises(Exception):
        oriented_smoothing(d, "nope")
    with pytest.raises(InvariantError):
        oriented_smoothing(d, "1")  # joins two components
    with pytest.raises(InvariantError):
        oriented_smoothing(singular_virtual_trefoil(), "1")


# ── intersection index ────────────────────────────────────────────────────

def test_index_virtual_trefoil():
    d = virtual_trefoil()
    assert abs(intersection_index(d, "1")) == 1
    assert abs(intersection_index(d, "2")) == 1
    # frozen signed values for the deterministic piece labeling
    assert intersection_index(d, "1") == 1
    assert intersection_index(d, "2") == -1


def test_index_classical_trefoil_vanishes():
    d = classical_trefoil()
    for label in ("1", "2", "3"):
        assert intersection_index(d, label) == 0


def test_index_kink_is_zero():
    d = parse("tangle 0 0\ncomponent K closed\nO1+ U1+ O2+ U2+\n")
    assert intersection_index(d, "1") == 0
    assert intersection_index(d, "2") == 0


def test_index_swap_negates_signed():
    rng = random.Random(31)
    for _ in range(30):
        d = random_diagram(rng, max_components=2, max_chords=8)
        for chord in d.chords:
            if chord.end_a.component != chord.end_b.component:
                continue
            split = oriented_smoothing(d, chord.label)
            value = index_from_split(d, split)
            flipped = index_from_split(d, split.swapped())
            assert flipped == -value
            assert abs(flipped) == abs(value)


# ── self-crossing polynomial ──────────────────────────────────────────────

def test_psc_virtual_trefoil():
    assert self_crossing_polynomial(virtual_trefoil()) == poly(1, {(1,): 2, (0,): -2})


def test_psc_classical_trefoil():
    assert self_crossing_polynomial(classical_trefoil()).is_zero()


def test_psc_kink():
    d = parse("tangle 0 0\ncomponent K closed\nO1+ U1+\n")
    assert self_crossing_polynomial(d).is_zero()


def test_psc_clasp_both_variants_zero():
    # the unlinked pair and the clasp both have no self-crossings
    assert self_crossing_polynomial(identity_braid(2)).is_zero()
    assert self_crossing_polynomial(clasp()).is_zero()


def test_psc_rejects_singular():
    with pytest.raises(InvariantError):
        self_crossing_polynomial(singular_virtual_trefoil())


def test_singular_refusal_names_the_first_singular_chord():
    # the kernel pass refuses at the first singular chord in chord order,
    # after classical chords before it
    d = parse("tangle 1 1\ncomponent K long T1:in B1:out\nO1+ S9- U1+ S3+ S9- S3+\n")
    calls = (
        ("the self-crossing polynomial", self_crossing_polynomial),
        ("the self-crossing polynomial", invariant_report),
        ("the linking polynomial", lambda d: linking_polynomial(d, 2, 3)),
        ("the Laurent linking polynomial", lambda d: laurent_linking_polynomial(d, 2, 3)),
        ("the ordered polynomial", long_ordered_polynomial),
    )
    for what, function in calls:
        with pytest.raises(InvariantError) as info:
            function(d)
        assert str(info.value) == (f"{what} is undefined on diagrams with singular chords "
                                   f"(found '9'); resolve them first")


def test_report_reads_no_chord_kind_test(monkeypatch):
    from tanglepoly.diagram import Chord

    reads = []
    real = Chord.is_classical

    def counting(chord):
        reads.append(chord.label)
        return real.fget(chord)

    monkeypatch.setattr(Chord, "is_classical", property(counting))
    d = random_diagram(random.Random(4), max_components=3, max_chords=10)
    assert d.chords and not d.has_singular()
    reads.clear()
    invariant_report(d, 2, 3)
    assert reads == []


def test_psc_vanishes_at_one():
    rng = random.Random(7)
    for _ in range(40):
        d = random_diagram(rng, max_components=3, max_chords=10)
        assert self_crossing_polynomial(d).eval_at_ones() == 0


def test_psc_orientation_independent():
    rng = random.Random(13)
    for _ in range(30):
        d = random_diagram(rng, max_components=3, max_chords=8)
        value = self_crossing_polynomial(d)
        for comp in d.components:
            assert self_crossing_polynomial(reverse_component(d, comp.cid)) == value


# ── linking numbers ───────────────────────────────────────────────────────

def test_vlk_clasp():
    d = clasp()
    assert virtual_linking_number(d, 1, 2) == 1
    assert virtual_linking_number(d, 2, 1) == 1


def test_vlk_generator():
    d = link_with_linking_numbers(3, 2)
    assert virtual_linking_number(d, 1, 2) == 3
    assert virtual_linking_number(d, 2, 1) == -2
    assert wriggle_number(d, 1, 2) == 5


def test_vlk_no_shared_chords():
    assert virtual_linking_number(identity_braid(3), 1, 3) == 0


def test_vlk_bad_indices():
    d = clasp()
    with pytest.raises(InvariantError):
        virtual_linking_number(d, 1, 1)
    with pytest.raises(InvariantError):
        virtual_linking_number(d, 0, 1)
    with pytest.raises(InvariantError):
        virtual_linking_number(d, 1, 3)


def test_wriggle_antisymmetric():
    rng = random.Random(41)
    for _ in range(25):
        d = random_two_component_closed(rng)
        assert wriggle_number(d, 1, 2) == -wriggle_number(d, 2, 1)
    assert wriggle_number(clasp(), 1, 2) == 0


def test_wriggle_runs_one_kernel_pass(monkeypatch):
    calls = []
    kernel = invariants._kernel

    def spy(diagram):
        calls.append(diagram)
        return kernel(diagram)

    monkeypatch.setattr(invariants, "_kernel", spy)
    d = link_with_linking_numbers(3, 2)
    assert wriggle_number(d, 1, 2) == 5 and wriggle_number(d, 2, 1) == -5
    assert calls == [d, d]
    # the range and equal-component errors, with their messages, before any pass
    for i, j, message in ((0, 1, "component number 0 out of range 1..2"),
                          (1, 3, "component number 3 out of range 1..2"),
                          (3, 3, "component number 3 out of range 1..2"),
                          (2, 2, "virtual linking number needs two distinct components")):
        for function in (wriggle_number, virtual_linking_number):
            with pytest.raises(InvariantError) as info:
                function(d, i, j)
            assert str(info.value) == message
    assert calls == [d, d]


# ── linking polynomials ───────────────────────────────────────────────────

@pytest.mark.parametrize("a,b", [(1, 1), (1, 2), (1, -1),
                                 (Fraction(2, 3), Fraction(-1, 5))])
def test_plk_clasp(a, b):
    d = clasp()
    a, b = Fraction(a), Fraction(b)
    assert linking_polynomial(d, a, b) == poly(2, {(1, 1): a + b})
    assert laurent_linking_polynomial(d, a, b) == poly(2, {(1, -1): a, (-1, 1): b})


def test_plk_virtualized_clasp_variants():
    first = clasp_single_chord(over_first=True)
    second = clasp_single_chord(over_first=False)
    a, b = Fraction(3), Fraction(5)
    assert linking_polynomial(first, a, b) == poly(2, {(1, 1): a})
    assert linking_polynomial(second, a, b) == poly(2, {(1, 1): b})
    # at a = -b the two variants separate
    assert linking_polynomial(first, 1, -1) != linking_polynomial(second, 1, -1)


def test_plk_identity_braid_zero():
    assert linking_polynomial(identity_braid(2), 1, 2).is_zero()
    assert laurent_linking_polynomial(identity_braid(2), 1, 2).is_zero()


def test_separation_witness():
    # vlk = (2, -1) with (a, b) = (1, 2): the plain polynomial collapses,
    # the Laurent one does not
    d = link_with_linking_numbers(2, 1)
    assert linking_polynomial(d, 1, 2).is_zero()
    assert laurent_linking_polynomial(d, 1, 2) == poly(2, {(1, -1): 2, (-1, 1): -2})


def test_cross_term_exponent_sums():
    rng = random.Random(59)
    for _ in range(25):
        d = random_diagram(rng, max_components=3, max_chords=8)
        psc = self_crossing_polynomial(d)
        plk = linking_polynomial(d, 2, 3)
        plk_l = laurent_linking_polynomial(d, 2, 3)
        for exps in (plk - psc).terms:
            assert sum(exps) == 2
        for exps in (plk_l - psc).terms:
            assert sum(exps) == 0


def test_writhe_and_wriggle_specializations():
    rng = random.Random(61)
    a = Fraction(3, 2)
    for _ in range(30):
        d = random_two_component_closed(rng)
        forward = virtual_linking_number(d, 1, 2)
        backward = virtual_linking_number(d, 2, 1)
        same = linking_polynomial(d, a, a)
        assert same.coefficient((1, 1)) == a * (forward + backward)
        opposite = linking_polynomial(d, a, -a)
        assert opposite.coefficient((1, 1)) == a * wriggle_number(d, 1, 2)


def test_equal_laurent_implies_equal_plain():
    rng = random.Random(67)
    a, b = Fraction(2), Fraction(3)
    pairs = 0
    for _ in range(60):
        d1 = random_two_component_closed(rng, max_chords=4)
        d2 = random_two_component_closed(rng, max_chords=4)
        if laurent_linking_polynomial(d1, a, b) == laurent_linking_polynomial(d2, a, b):
            pairs += 1
            assert linking_polynomial(d1, a, b) == linking_polynomial(d2, a, b)
    assert pairs > 0  # the comparison fired at least once


# ── knot specializations ──────────────────────────────────────────────────

def test_henrich_on_trefoils():
    assert henrich_turaev_polynomial(virtual_trefoil()) == poly(1, {(1,): 2, (0,): -2})
    assert henrich_turaev_polynomial(classical_trefoil()).is_zero()
    unknot = parse("tangle 0 0\ncomponent K closed\n")
    assert henrich_turaev_polynomial(unknot).is_zero()


def test_henrich_equals_psc_on_closed_knots():
    rng = random.Random(71)
    for _ in range(30):
        d = random_closed_knot(rng)
        assert henrich_turaev_polynomial(d) == self_crossing_polynomial(d)


def test_henrich_rejects_wrong_shape():
    with pytest.raises(InvariantError):
        henrich_turaev_polynomial(clasp())
    with pytest.raises(InvariantError):
        henrich_turaev_polynomial(long_virtual_trefoil())


def test_long_ordered_polynomial_values():
    d = long_virtual_trefoil()
    assert long_ordered_polynomial(d) == poly(1, {(1,): 1, (-1,): 1, (0,): -2})
    mirror = parse("tangle 1 1\ncomponent K long T1:in B1:out\nO1- O2- U1- U2-\n")
    assert long_ordered_polynomial(mirror) == poly(1, {(1,): -1, (-1,): -1, (0,): 2})
    kink = parse("tangle 1 1\ncomponent K long T1:in B1:out\nO1+ U1+\n")
    assert long_ordered_polynomial(kink).is_zero()


def test_long_ordered_rejects_wrong_shape():
    with pytest.raises(InvariantError):
        long_ordered_polynomial(virtual_trefoil())


# ── differential tests against the smoothing oracle ──────────────────────

def _oracle_diagrams(seed):
    """Seeded closed, mixed, all-long and partly singular diagrams of up to
    four components."""
    rng = random.Random(seed)
    for _ in range(40):
        yield random_diagram(rng, max_components=4, max_chords=14, allow_long=False)
        yield random_diagram(rng, max_components=4, max_chords=14)
        yield random_string_link(rng, rng.randint(1, 4), max_chords=14)
        yield random_diagram(rng, max_components=4, max_chords=10, n_singular=2)


def test_index_matches_oracle_signed():
    checked = 0
    for d in _oracle_diagrams(101):
        for chord in d.chords:
            if chord.is_classical and chord.end_a.component == chord.end_b.component:
                assert intersection_index(d, chord.label) == slow_index(d, chord.label)
                checked += 1
    assert checked > 500


def test_vlk_matches_pairwise_count():
    for d in _oracle_diagrams(103):
        n = len(d.components)
        want = [[0 if i == j else slow_vlk(d, i, j) for j in range(1, n + 1)]
                for i in range(1, n + 1)]
        assert [[0 if i == j else virtual_linking_number(d, i, j)
                 for j in range(1, n + 1)] for i in range(1, n + 1)] == want
        if not d.has_singular():
            assert [list(row) for row in invariant_report(d).vlk] == want


def _assert_normal(poly):
    """The form LaurentPoly's constructor gives: int exponent tuples of the
    right length and nonzero Fraction coefficients."""
    for exps, coeff in poly.items():
        assert type(exps) is tuple and len(exps) == poly.nvars
        assert all(type(e) is int for e in exps)
        assert type(coeff) is Fraction and coeff != 0


@pytest.mark.parametrize("a,b", [(1, 1), (Fraction(2, 3), -5)])
def test_report_matches_oracle(a, b):
    for d in _oracle_diagrams(107):
        if d.has_singular():
            continue
        want = slow_report(d, a, b)
        report = invariant_report(d, a, b)
        assert report == want
        for got in (report.psc, report.plk, report.plk_laurent,
                    self_crossing_polynomial(d), linking_polynomial(d, a, b)):
            _assert_normal(got)
        assert self_crossing_polynomial(d) == want.psc
        assert linking_polynomial(d, a, b) == want.plk
        assert laurent_linking_polynomial(d, a, b) == want.plk_laurent


def test_long_ordered_matches_oracle():
    rng = random.Random(109)
    for _ in range(60):
        d = random_string_link(rng, 1, max_chords=14)
        assert long_ordered_polynomial(d) == slow_long_ordered(d)
        _assert_normal(long_ordered_polynomial(d))


def _check_pairs():
    """Seeded pairs of classical diagrams: each diagram with diagrams one
    walk away from it, with an unrelated diagram of as many components, and
    with itself after reversing a component (|index| kept, vlk changed)."""
    rng = random.Random(113)
    pairs = []
    for _ in range(40):
        d = random_diagram(rng, max_components=6, max_chords=12)
        pairs += [(d, step) for step in random_walk(d, 12, rng.randrange(1 << 30), cap=16)[1::3]]
        other = random_diagram(rng, max_components=6, max_chords=12)
        while len(other.components) != len(d.components):
            other = random_diagram(rng, max_components=6, max_chords=12)
        pairs.append((d, other))
        pairs += [(d, reverse_component(d, comp.cid)) for comp in d.components]
    links = [link_with_linking_numbers(x, y) for x in range(3) for y in range(3)]
    pairs += [(left, right) for left in links for right in links]
    return pairs


@pytest.mark.parametrize("a,b", [(1, 1), (Fraction(2, 3), -5), (0, 0)])
def test_normal_form_decides_report_equality(a, b):
    outcomes = {True: 0, False: 0}
    vlk_only = 0  # equal psc, different reports: only the vlk matrix tells
    components = set()
    for left, right in _check_pairs():
        same = invariants._normal_form(left) == invariants._normal_form(right)
        reports = invariant_report(left, a, b), invariant_report(right, a, b)
        assert same == (reports[0] == reports[1]), (left, right)
        outcomes[same] += 1
        vlk_only += reports[0].psc == reports[1].psc and not same
        components.add(len(left.components))
        assert invariants._normal_form(left)[1] == reports[0].vlk
    assert outcomes[True] >= 150 and outcomes[False] >= 150, outcomes
    assert vlk_only >= 100
    assert components == {1, 2, 3, 4, 5, 6}
