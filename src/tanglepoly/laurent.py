"""Sparse multivariate Laurent polynomials over the rationals.

Every invariant value in this package is a finite sum of monomials in the
component variables t1..tn with exact rational coefficients and (possibly
negative) integer exponents.  This module is the small exact ring needed for
that: construction from monomials, addition, scalar multiplication,
evaluation at t=1, canonical text rendering, and a JSON term-list form.

Coefficients are `fractions.Fraction` throughout; floats are rejected so that
cancellation (e.g. a*m + b*n = 0 for suitable integers m, n) is always exact.
Exponent vectors are dense tuples of ints (``operator.index`` refuses a float
or Fraction exponent), one entry per variable; variable at position k
renders as ``t{k+1}``.
"""

from __future__ import annotations

from fractions import Fraction
from operator import index, neg
from typing import Iterable, Iterator, Mapping

Exponents = tuple[int, ...]

RationalLike = Fraction | int | str
MAX_RATIONAL_CHARS = 100


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce an exact rational ('2/3', -5, Fraction) to Fraction.

    Floats are refused: the invariants require exact arithmetic.  Text in
    exponent notation, which Fraction expands to 10**k for 1e<k>, raises
    ValueError unread.
    """
    if isinstance(value, float):
        raise TypeError("refusing float; pass Fraction, int or 'p/q' text")
    if isinstance(value, str) and "e" in value.lower():
        raise ValueError(f"exponent notation is not accepted: {value!r}")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"not an exact rational: {value!r}") from None


def as_parameter(value: RationalLike) -> Fraction:
    """as_fraction for a and b, whose text (unlike a JSON coefficient) is bounded."""
    if isinstance(value, str) and len(value) > MAX_RATIONAL_CHARS:
        raise ValueError(f"coefficient longer than {MAX_RATIONAL_CHARS} characters")
    return as_fraction(value)


def _term_sort_key(exps: Exponents) -> tuple[int, tuple[int, ...]]:
    # Graded order: total degree first, then reverse-lexicographic, so that
    # among the degree-0 cross terms t1*t2^-1 precedes t1^-1*t2 and the
    # constant term precedes t1.
    return (sum(exps), tuple(map(neg, exps)))


class LaurentPoly:
    """Immutable sparse Laurent polynomial.

    ``terms`` maps exponent vectors to nonzero Fraction coefficients; zero
    coefficients are dropped on construction, so the zero polynomial is the
    one with no terms.
    """

    __slots__ = ("_nvars", "_terms")

    def __init__(self, nvars: int, terms: Mapping[Exponents, RationalLike] | None = None):
        if nvars < 0:
            raise ValueError("variable count must be nonnegative")
        clean: dict[Exponents, Fraction] = {}
        for exps, coeff in (terms or {}).items():
            key = tuple(index(e) for e in exps)
            if len(key) != nvars:
                raise ValueError(
                    f"exponent vector {key} has length {len(key)}, expected {nvars}"
                )
            c = as_fraction(coeff)
            if c:
                clean[key] = c
        object.__setattr__(self, "_nvars", nvars)
        object.__setattr__(self, "_terms", clean)

    @classmethod
    def _from_normal(cls, nvars: int, terms: dict[Exponents, Fraction]) -> "LaurentPoly":
        """Wrap a term map already in the form ``__init__`` makes: exponent
        tuples of ints of length ``nvars`` and nonzero Fraction coefficients.
        The polynomial takes ownership of ``terms``."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "_nvars", nvars)
        object.__setattr__(poly, "_terms", terms)
        return poly

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    def __reduce__(self):
        return LaurentPoly, (self._nvars, self._terms)

    @property
    def nvars(self) -> int:
        return self._nvars

    @property
    def terms(self) -> dict[Exponents, Fraction]:
        """Copy of the term map (exponent vector -> nonzero coefficient)."""
        return dict(self._terms)

    def items(self) -> Iterator[tuple[Exponents, Fraction]]:
        return iter(self._terms.items())

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def coefficient(self, exps: Iterable[int]) -> Fraction:
        return self._terms.get(tuple(index(e) for e in exps), Fraction(0))

    def _check_compatible(self, other: "LaurentPoly") -> None:
        if not isinstance(other, LaurentPoly):
            raise TypeError(f"expected LaurentPoly, got {type(other).__name__}")
        if other._nvars != self._nvars:
            raise ValueError(
                f"variable-count mismatch: {self._nvars} vs {other._nvars}"
            )

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check_compatible(other)
        merged = dict(self._terms)
        for exps, coeff in other._terms.items():
            total = merged.get(exps, Fraction(0)) + coeff
            if total:
                merged[exps] = total
            else:
                merged.pop(exps, None)
        return LaurentPoly._from_normal(self._nvars, merged)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._from_normal(self._nvars, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def scale(self, factor: RationalLike) -> "LaurentPoly":
        f = as_fraction(factor)
        terms = {e: c * f for e, c in self._terms.items()} if f else {}
        return LaurentPoly._from_normal(self._nvars, terms)

    def eval_at_ones(self) -> Fraction:
        """Value after substituting 1 for every variable (sum of coefficients)."""
        return sum(self._terms.values(), Fraction(0))

    def remap_variables(self, mapping: Mapping[int, int], new_nvars: int) -> "LaurentPoly":
        """Push the polynomial through a variable identification.

        ``mapping`` sends old variable positions (0-based) to new positions;
        exponents of variables mapped to the same position add up.  Every
        position carrying a nonzero exponent must be mapped, and every target
        must lie in ``0..new_nvars-1``.
        """
        if new_nvars < 0:
            raise ValueError("variable count must be nonnegative")
        for pos, target in mapping.items():
            if not 0 <= target < new_nvars:
                raise ValueError(f"variable position {pos} maps to {target}, "
                                 f"outside 0..{new_nvars - 1}")
        out: dict[Exponents, Fraction] = {}
        for exps, coeff in self._terms.items():
            new = [0] * new_nvars
            for pos, e in enumerate(exps):
                if not e:
                    continue
                if pos not in mapping:
                    raise ValueError(f"variable position {pos} is unmapped")
                new[mapping[pos]] += e
            key = tuple(new)
            total = out.get(key, Fraction(0)) + coeff
            if total:
                out[key] = total
            else:
                out.pop(key, None)
        return LaurentPoly._from_normal(new_nvars, out)

    def sorted_terms(self) -> list[tuple[Exponents, Fraction]]:
        return sorted(self._terms.items(), key=lambda item: _term_sort_key(item[0]))

    def render(self) -> str:
        """Canonical text form, e.g. ``1 t1 t2^-1 + 2 t1^-1 t2`` or ``0``.

        Terms in graded reverse-lexicographic order; identical polynomials
        render identically.
        """
        if not self._terms:
            return "0"
        rendered = []
        for exps, coeff in self.sorted_terms():
            factors = [str(coeff)]
            for pos, e in enumerate(exps):
                if e == 0:
                    continue
                name = f"t{pos + 1}"
                factors.append(name if e == 1 else f"{name}^{e}")
            rendered.append(" ".join(factors))
        return " + ".join(rendered)

    def to_json_terms(self) -> list[dict]:
        """JSON term list: [{"coeff": "p/q", "exps": [..]}], canonical order."""
        return [
            {"coeff": str(coeff), "exps": list(exps)}
            for exps, coeff in self.sorted_terms()
        ]

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._nvars == other._nvars and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self._nvars, frozenset(self._terms.items())))

    def __repr__(self) -> str:
        return f"LaurentPoly({self._nvars}, {self.render()!r})"


def zero(nvars: int) -> LaurentPoly:
    return LaurentPoly(nvars)


def mono(coeff: RationalLike, exps: Iterable[int]) -> LaurentPoly:
    """Single-term polynomial; the zero polynomial when coeff is 0."""
    key = tuple(index(e) for e in exps)
    return LaurentPoly(len(key), {key: coeff})


def from_json_terms(nvars: int, items: Iterable[Mapping]) -> LaurentPoly:
    terms: dict[Exponents, Fraction] = {}
    for item in items:
        exps = tuple(index(e) for e in item["exps"])
        terms[exps] = terms.get(exps, Fraction(0)) + as_fraction(item["coeff"])
    return LaurentPoly(nvars, terms)
