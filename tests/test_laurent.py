"""Polynomial ring: exact arithmetic, canonical rendering, JSON form."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from tanglepoly.laurent import (
    MAX_RATIONAL_CHARS,
    LaurentPoly,
    as_fraction,
    as_parameter,
    from_json_terms,
    mono,
    zero,
)


def test_mono_zero_coefficient_is_elided():
    assert mono(0, (1, 1)).is_zero()
    assert mono(0, (1, 1)) == zero(2)


def test_mono_basic():
    p = mono(3, (1, 1))
    assert p.coefficient((1, 1)) == 3
    assert p.render() == "3 t1 t2"
    assert mono(1, (1, -1)).render() == "1 t1 t2^-1"


def test_add_cancels():
    p = mono(1, (1,)) + mono(-1, (0,))   # t1 - 1
    q = mono(1, (0,)) + mono(-1, (1,))   # 1 - t1
    assert (p + q).is_zero()


def test_scale_exact():
    assert mono(2, (1,)).scale(Fraction(1, 2)) == mono(1, (1,))
    assert mono(2, (1,)).scale(0).is_zero()


def test_eval_at_ones():
    p = mono(2, (1,)) + mono(-2, (0,))   # 2(t1 - 1)
    assert p.eval_at_ones() == 0
    assert mono(Fraction(2, 3), (5,)).eval_at_ones() == Fraction(2, 3)


def test_render_zero():
    assert zero(3).render() == "0"


def test_render_matches_expected_forms():
    # a=1, b=2 cross terms of the two-strand clasp
    p = mono(1, (1, -1)) + mono(2, (-1, 1))
    assert p.render() == "1 t1 t2^-1 + 2 t1^-1 t2"
    q = mono(2, (1,)) + mono(-2, (0,))
    assert q.render() == "-2 + 2 t1"


def test_variable_count_mismatch():
    with pytest.raises(ValueError):
        mono(1, (1,)) + mono(1, (1, 0))
    with pytest.raises(ValueError):
        LaurentPoly(2, {(1,): 1})


def test_floats_refused():
    with pytest.raises(TypeError):
        mono(0.5, (1,))
    with pytest.raises(TypeError):
        as_fraction(0.5)


@pytest.mark.parametrize("text, message", [
    ("1e5", "exponent notation is not accepted: '1e5'"),
    ("2E3", "exponent notation is not accepted: '2E3'"),
    ("1" * (MAX_RATIONAL_CHARS + 1), f"coefficient longer than {MAX_RATIONAL_CHARS} characters"),
    ("1/0", "not an exact rational: '1/0'"),
    ("abc", "not an exact rational: 'abc'"),
], ids=["1e5", "2E3", "101-chars", "1/0", "abc"])
def test_coefficient_text_refused(text, message, monkeypatch):
    # Fraction('1e<k>') builds 10**k: exponent notation is refused before
    # Fraction reads it, through every library entry point.  The parameters
    # a and b are also bounded in length; coefficients read back are not.
    import tanglepoly.laurent as laurent
    from tanglepoly import invariant_report, linking_polynomial, vassiliev_derivative
    from helpers import clasp

    seen = []

    def spy(*args):
        seen.extend(arg for arg in args if isinstance(arg, str))
        return Fraction(*args)

    monkeypatch.setattr(laurent, "Fraction", spy)
    parameters = [lambda: as_parameter(text), lambda: invariant_report(clasp(), text, 1),
                  lambda: invariant_report(clasp(), 1, text),
                  lambda: linking_polynomial(clasp(), text, 1),
                  lambda: vassiliev_derivative(clasp(), 1, text)]
    coefficients = [lambda: as_fraction(text), lambda: mono(text, (1,)),
                    lambda: mono(1, (1,)).scale(text),
                    lambda: from_json_terms(1, [{"coeff": text, "exps": [1]}])]
    too_long = message.startswith("coefficient longer")
    for refused in parameters + ([] if too_long else coefficients):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            refused()
    if too_long:
        assert seen == []
        for read in coefficients:
            read()
        assert seen == [text] * len(coefficients)
    else:
        assert seen == ([text] * 9 if message.startswith("not an exact") else [])


def test_coefficient_text_at_the_bound():
    longest = "1" * MAX_RATIONAL_CHARS
    assert as_parameter(longest) == as_fraction(longest) == int(longest)
    assert as_parameter(" -2/3 ") == Fraction(-2, 3)
    assert as_fraction("0.5") == Fraction(1, 2)


@pytest.mark.parametrize("exponent", [0.5, 1.9, 2.0, Fraction(3, 2)])
def test_non_integer_exponents_refused(exponent):
    # int() would take these as 0, 1, 2 and 1 without a word
    with pytest.raises(TypeError):
        LaurentPoly(1, {(exponent,): 2})
    with pytest.raises(TypeError):
        mono(1, [exponent])
    with pytest.raises(TypeError):
        mono(1, [1]).coefficient([exponent])
    with pytest.raises(TypeError):
        from_json_terms(1, [{"coeff": "1", "exps": [exponent]}])


def test_json_terms_round_trip_and_order():
    p = mono(Fraction(2, 3), (1, -1)) + mono(-1, (0, 0)) + mono(1, (-1, 1))
    items = p.to_json_terms()
    assert items[0] == {"coeff": "2/3", "exps": [1, -1]}
    assert items[1] == {"coeff": "-1", "exps": [0, 0]}
    assert items[2] == {"coeff": "1", "exps": [-1, 1]}
    assert from_json_terms(2, items) == p
    # a report's coefficients outgrow the bound on the text of a and b, and
    # still read back: the clasp's plk at a = 1/9...9, b = 1/9...97
    from tanglepoly import invariant_report
    from helpers import clasp

    report = invariant_report(clasp(), "1/" + "9" * 98, "1/" + "9" * 97 + "7")
    items = report.plk.to_json_terms()
    assert max(len(item["coeff"]) for item in items) > MAX_RATIONAL_CHARS
    assert from_json_terms(2, items) == report.plk
    assert LaurentPoly(2, {tuple(i["exps"]): i["coeff"] for i in items}) == report.plk


def test_remap_variables_merges_exponents():
    # t1 * t2^-1 collapses to t^0 = 1 when both variables are identified
    p = mono(1, (1, -1))
    assert p.remap_variables({0: 0, 1: 0}, 1) == mono(1, (0,))
    q = mono(2, (1, 0)) + mono(3, (0, 1))
    assert q.remap_variables({0: 1, 1: 0}, 2) == mono(2, (0, 1)) + mono(3, (1, 0))
    with pytest.raises(ValueError):
        p.remap_variables({0: 0}, 1)
    with pytest.raises(ValueError):
        mono(1, (0, 0)).remap_variables({}, -1)


# ── canonical-text parser used only to check render injectivity ──────────

_FACTOR = re.compile(r"^t(\d+)(?:\^(-?\d+))?$")


def parse_canonical(text: str, nvars: int) -> LaurentPoly:
    if text == "0":
        return zero(nvars)
    total = zero(nvars)
    for chunk in text.split(" + "):
        parts = chunk.split(" ")
        coeff = Fraction(parts[0])
        exps = [0] * nvars
        for factor in parts[1:]:
            match = _FACTOR.match(factor)
            assert match, factor
            exps[int(match.group(1)) - 1] = int(match.group(2) or 1)
        total = total + mono(coeff, exps)
    return total


coeffs = st.fractions(max_denominator=6)
exponents = st.integers(min_value=-4, max_value=4)


def polys(nvars: int):
    return st.dictionaries(
        st.tuples(*([exponents] * nvars)), coeffs, max_size=5,
    ).map(lambda terms: LaurentPoly(nvars, terms))


@given(polys(2), polys(2), polys(2))
def test_ring_laws(p, q, r):
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert (p + q).scale(Fraction(3, 2)) == p.scale(Fraction(3, 2)) + q.scale(Fraction(3, 2))
    assert (p + p.scale(-1)).is_zero()
    assert p - p == zero(2)
    # results skip the validating constructor, so their terms must be normal
    for result in (p + q, -p, p - q, p.scale(Fraction(-2, 3)), p.scale(0),
                   p.remap_variables({0: 0, 1: 0}, 1), p.remap_variables({0: 1, 1: 0}, 3)):
        assert result == LaurentPoly(result.nvars, result.terms)
        for exps, coeff in result.items():
            assert len(exps) == result.nvars and all(type(e) is int for e in exps)
            assert type(coeff) is Fraction and coeff


@given(polys(3))
def test_render_round_trips(p):
    assert parse_canonical(p.render(), 3) == p


@given(polys(2), polys(2))
def test_render_injective(p, q):
    assert (p.render() == q.render()) == (p == q)
