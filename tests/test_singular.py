"""Singular diagrams: resolutions and finite-type derivatives.

``vassiliev_derivative`` is checked against ``rebuild_oracle.sweep_derivative``,
the generic alternating sum over all 2^k resolutions."""

import itertools
import random
from fractions import Fraction

import pytest

from tanglepoly import (
    Classical,
    ResolutionError,
    equal_diagrams,
    invariant_report,
    laurent_linking_polynomial,
    linking_polynomial,
    parse,
    resolve,
    self_crossing_polynomial,
    vassiliev_derivative,
)
from helpers import (
    poly,
    random_diagram,
    singular_virtual_trefoil,
    virtual_trefoil,
)
from rebuild_oracle import all_resolutions, sweep_derivative, sweeps, weight


def test_resolution_weights():
    assert weight({}) == 1
    assert weight({"1": 1, "2": 1}) == 1
    assert weight({"1": -1, "2": 1}) == -1
    assert weight({"1": -1, "2": -1}) == 1


def test_resolve_no_singular_is_identity():
    d = virtual_trefoil()
    assert resolve(d, {}) == d


def test_resolve_frame_convention():
    d = singular_virtual_trefoil()
    plus = resolve(d, {"1": 1})
    chord = plus.chord("1")
    assert chord.kind == Classical(1, "a")
    minus = resolve(d, {"1": -1})
    assert minus.chord("1").kind == Classical(-1, "b")


def test_plus_resolution_is_virtual_trefoil():
    d = singular_virtual_trefoil()
    assert equal_diagrams(resolve(d, {"1": 1}), virtual_trefoil())
    # the minus resolution has cancelling contributions
    assert self_crossing_polynomial(resolve(d, {"1": -1})).is_zero()


def test_resolve_errors():
    d = singular_virtual_trefoil()
    with pytest.raises(ResolutionError):
        resolve(d, {})
    with pytest.raises(ResolutionError):
        resolve(d, {"1": 1, "2": 1})  # chord 2 is classical
    with pytest.raises(ResolutionError):
        resolve(d, {"1": 0})


def test_all_resolutions_enumeration():
    d = parse("tangle 0 0\ncomponent K closed\nS1+ S2- S1+ S2-\n")
    seen = [tuple(sorted(r.items())) for r in all_resolutions(d)]
    assert len(seen) == 4
    assert len(set(seen)) == 4


def test_derivative_without_singular_is_invariant():
    d = virtual_trefoil()
    assert sweep_derivative(d, self_crossing_polynomial) == self_crossing_polynomial(d)
    report = invariant_report(d, 2, 3)
    assert vassiliev_derivative(d, 2, 3) == (report.psc, report.plk, report.plk_laurent)


def test_derivative_single_point_expansion():
    d = singular_virtual_trefoil()
    plus = resolve(d, {"1": 1})
    minus = resolve(d, {"1": -1})
    expected = self_crossing_polynomial(plus) - self_crossing_polynomial(minus)
    assert sweep_derivative(d, self_crossing_polynomial) == expected
    assert vassiliev_derivative(d)[0] == expected


def test_singular_trefoil_derivative_value():
    d = singular_virtual_trefoil()
    expected = poly(1, {(1,): 2, (0,): -2})
    assert sweep_derivative(d, self_crossing_polynomial) == expected
    assert sweep_derivative(d, lambda x: linking_polynomial(x, 1, 2)) == expected
    assert sweep_derivative(
        d, lambda x: laurent_linking_polynomial(x, 1, 2)) == expected
    assert vassiliev_derivative(d, 1, 2) == (expected, expected, expected)


def test_two_double_points_vanish():
    rng = random.Random(29)
    for _ in range(25):
        d = random_diagram(rng, max_components=3, max_chords=6, n_singular=2)
        assert sweep_derivative(d, self_crossing_polynomial).is_zero()
        assert sweep_derivative(
            d, lambda x: linking_polynomial(x, 1, 2)).is_zero()
        assert sweep_derivative(
            d, lambda x: laurent_linking_polynomial(x, 1, 2)).is_zero()
        assert all(value.is_zero() for value in vassiliev_derivative(d, 1, 2))


def test_three_double_points_vanish():
    rng = random.Random(37)
    for _ in range(5):
        d = random_diagram(rng, max_components=2, max_chords=4, n_singular=3)
        assert sweep_derivative(d, self_crossing_polynomial).is_zero()
        assert vassiliev_derivative(d)[0].is_zero()


def test_derivative_matches_manual_expansion():
    # independent oracle: expand the alternating sum by hand with itertools
    rng = random.Random(43)
    for _ in range(10):
        d = random_diagram(rng, max_components=2, max_chords=4, n_singular=2)
        labels = [c.label for c in d.chords if not c.is_classical]
        total = None
        for choices in itertools.product((1, -1), repeat=len(labels)):
            sign = (-1) ** sum(1 for c in choices if c < 0)
            value = self_crossing_polynomial(
                resolve(d, dict(zip(labels, choices))))
            value = value if sign > 0 else -value
            total = value if total is None else total + value
        assert sweep_derivative(d, self_crossing_polynomial) == total
        assert vassiliev_derivative(d)[0] == total


def test_derivative_checks_coefficients_at_every_k():
    # at k >= 2 no report is built, but a and b are still checked
    for k in range(4):
        d = random_diagram(random.Random(k), max_components=2, max_chords=3, n_singular=k)
        with pytest.raises(TypeError):
            vassiliev_derivative(d, 0.5)
        with pytest.raises(ValueError, match="exponent notation"):
            vassiliev_derivative(d, 1, "1e999999999")


def _random_rational(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 7))


def test_derivative_matches_sweep_oracle_in_the_library():
    # seeded differential test: the order-one rule against the generic
    # alternating sum over all 2^k resolutions
    rng = random.Random(67)
    long_inputs = closed_inputs = nonzero = 0
    for k in range(5):
        for _ in range(64):
            d = random_diagram(rng, max_components=3, max_chords=6, n_singular=k)
            a, b = _random_rational(rng), _random_rational(rng)
            expected = sweeps(d, a, b)
            assert vassiliev_derivative(d, a, b) == expected
            long_inputs += any(comp.is_long for comp in d.components)
            closed_inputs += any(comp.is_closed for comp in d.components)
            nonzero += k == 1 and not expected[1].is_zero()
    assert long_inputs >= 100 and closed_inputs >= 100 and nonzero >= 20


def test_resolve_matches_chord_oracle():
    from rebuild_oracle import resolve_by_chords

    rng = random.Random(53)
    for _ in range(200):
        d = random_diagram(rng, max_components=3, max_chords=6,
                           n_singular=rng.randint(0, 4))
        labels = [c.label for c in d.chords if not c.is_classical]
        resolution = {label: rng.choice((1, -1)) for label in labels}
        assert resolve(d, resolution) == resolve_by_chords(d, resolution)


def _outcome(resolver, diagram, resolution):
    try:
        return resolver(diagram, resolution)
    except ResolutionError as exc:
        return str(exc)


def test_resolve_errors_match_chord_oracle():
    # bad labels, missing labels and bad choices, mixed and shuffled, so
    # the first error reported is pinned too
    from rebuild_oracle import resolve_by_chords

    rng = random.Random(59)
    errors = 0
    for _ in range(300):
        d = random_diagram(rng, max_components=3, max_chords=4,
                           n_singular=rng.randint(1, 3))
        singular = [c.label for c in d.chords if not c.is_classical]
        classical = [c.label for c in d.chords if c.is_classical]
        items = [(label, rng.choice((1, -1, 0, 2))) for label in singular
                 if rng.random() < 0.8]
        items += [(label, 1) for label in rng.sample(classical + ["x", "y"], 2)
                  if rng.random() < 0.4]
        rng.shuffle(items)
        resolution = dict(items)
        new = _outcome(resolve, d, resolution)
        assert new == _outcome(resolve_by_chords, d, resolution)
        errors += isinstance(new, str)
    assert errors >= 150


def test_resolve_reports_the_first_bad_label():
    d = singular_virtual_trefoil()  # chord 1 singular, chord 2 classical
    with pytest.raises(ResolutionError, match="chord 'x' is not a singular chord"):
        resolve(d, {"x": 1, "2": 1})
    with pytest.raises(ResolutionError, match="chord '2' is not a singular chord"):
        resolve(d, {"2": 1, "x": 1})
    with pytest.raises(ResolutionError, match="chord '3' is not a singular chord"):
        resolve(d, {"1": 0, "3": 1})


def test_kernel_entries_agree_across_the_two_resolutions():
    # both resolutions of a singular chord weigh +frame at end_a and -frame
    # at end_b: every other chord keeps its kernel entry, and the chord
    # itself adds only its own term, so the sum of k >= 2 chords is 0
    from tanglepoly.invariants import _kernel

    rng = random.Random(61)
    for _ in range(100):
        d = random_diagram(rng, max_components=3, max_chords=8,
                           n_singular=rng.randint(1, 4))
        number = {cid: n for n, cid in enumerate(d.component_ids())}
        singular = [c for c in d.chords if not c.is_classical]
        choices = {c.label: rng.choice((1, -1)) for c in singular}
        for chord in singular:
            kernels = []
            for choice in (1, -1):
                resolved = resolve(d, {**choices, chord.label: choice})
                crossings, links = _kernel(resolved)
                own = resolved.chord(chord.label)
                key = (number[own.over_endpoint().component],
                       number[own.under_endpoint().component])
                if key[0] != key[1]:
                    links[key] -= own.kind.sign
                own_entry = crossings.pop(chord.label, None)
                kernels.append((own_entry, crossings, {k: v for k, v in links.items() if v}))
            (plus, *plus_rest), (minus, *minus_rest) = kernels
            assert plus_rest == minus_rest
            if plus is not None:
                assert (plus[0], plus[1], plus[2]) == (minus[0], -minus[1], minus[2])
