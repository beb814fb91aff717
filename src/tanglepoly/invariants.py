"""Index-polynomial invariants of virtual tangles.

The building block is the intersection index of a self-crossing: smoothing
the crossing along the orientation splits its component into two pieces, and
the index is the signed count of the remaining self-crossings that join the
two pieces, +sign when the over passage lies on piece 1 and -sign otherwise.
Crossings involving other components are ignored.

The index is read off integer weights on the visits instead of by smoothing.
Each passage of a classical self-crossing carries a weight, +sign at its over
passage and -sign at its under passage; the index of a chord is the sum of
the weights on its piece 1, since a crossing with both passages on piece 1
contributes +sign - sign = 0.  On a closed component piece 1 is the arc
strictly after end_a up to end_b (a deterministic but arbitrary choice that
only affects the sign); on a long component it is the long piece, the
strand minus the closed range between the chord's two passages.  Prefix sums
of the weights give every index in O(1).

One pass over the chords (``_kernel``) lays down the weights and, in the same
loop, the virtual linking numbers vlk(i,j): the signed count of crossings in
which component i passes over component j.  Every invariant below is read
from that pass, in O(C + n^2) for C chords and n components:

* self-crossing polynomial   sum over self-crossings of sign * (t_i^|index| - 1)
* linking polynomial         adds [a*vlk(i,j) + b*vlk(j,i)] * t_i t_j over pairs i<j
* Laurent linking polynomial adds a*vlk(i,j)*t_i t_j^-1 + b*vlk(j,i)*t_i^-1 t_j

The integer terms of the self-crossing polynomial and the vlk matrix are the
diagram's normal form (``_normal_form``): every report is built from them,
and the other fields are fixed functions of them and of (a, b).  So two
diagrams have equal reports at any (a, b) exactly when their normal forms
are equal, which is what ``tanglepoly fuzz`` compares on every step.

Components are numbered from 1 in list order, matching the variable names
t1..tn.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate

from .diagram import Classical, TangleDiagram, TangleError, _Value
# mono and zero stay bound in this module: bench/spans.py wraps them here.
from .laurent import Exponents, LaurentPoly, RationalLike, as_parameter, mono, zero  # noqa: F401


class InvariantError(TangleError):
    """Invariant evaluated outside its preconditions."""


# label -> (0-based component number, sign, signed index) per classical
# self-crossing; (over, under) 0-based component numbers -> signed count;
# the vlk matrix, row i over column j
Crossings = dict[str, tuple[int, int, int]]
Links = dict[tuple[int, int], int]
Matrix = tuple[tuple[int, ...], ...]


def _kernel(diagram: TangleDiagram, refuse: str = "") -> tuple[Crossings, Links]:
    """The one pass over the chords behind every invariant.  Singular chords
    are skipped, or, when ``refuse`` names the invariant asked for, the
    first one raises InvariantError."""
    components = diagram.components
    number = {comp.cid: k for k, comp in enumerate(components)}
    weights = [[0] * len(comp.visits) for comp in components]
    # (label, component number, sign, position of end_a, position of end_b)
    self_chords: list[tuple[str, int, int, int, int]] = []
    links: Links = {}
    for chord in diagram.chords:
        kind = chord.kind
        if not isinstance(kind, Classical):
            if refuse:
                raise InvariantError(
                    f"{refuse} is undefined on diagrams with singular chords "
                    f"(found {chord.label!r}); resolve them first")
            continue
        end_a, end_b, sign = chord.end_a, chord.end_b, kind.sign
        i, j = number[end_a.component], number[end_b.component]
        if kind.over == "b":
            i, j = j, i
        if i == j:
            row, pa, pb = weights[i], end_a.position, end_b.position
            over_sign = sign if kind.over == "a" else -sign
            row[pa] += over_sign
            row[pb] -= over_sign
            self_chords.append((chord.label, i, sign, pa, pb))
        else:
            links[i, j] = links.get((i, j), 0) + sign

    prefixes = [list(accumulate(row, initial=0)) for row in weights]
    closed = [comp.is_closed for comp in components]
    crossings: Crossings = {}
    for label, i, sign, pa, pb in self_chords:
        prefix = prefixes[i]
        if not closed[i]:
            # the strand minus [min, max] is the cyclic arc (max, min)
            pa, pb = max(pa, pb), min(pa, pb)
        # piece 1 is the open arc (pa, pb), read cyclically
        if pa < pb:
            index = prefix[pb] - prefix[pa + 1]
        else:
            index = prefix[-1] - (prefix[pa + 1] - prefix[pb])
        crossings[label] = (i, sign, index)
    return crossings, links


def _require_self_chord(diagram: TangleDiagram, label: str) -> None:
    chord = diagram.chord(label)
    if not chord.is_classical:
        raise InvariantError(f"chord {label!r} is singular and cannot be smoothed")
    if chord.end_a.component != chord.end_b.component:
        raise InvariantError(f"chord {label!r} joins two distinct components")


def intersection_index(diagram: TangleDiagram, label: str) -> int:
    """Signed intersection index of a classical self-crossing.

    Only the absolute value is independent of the piece labeling; the sign
    follows the choice of piece 1 described in the module docstring.
    """
    _require_self_chord(diagram, label)
    crossings, _links = _kernel(diagram)
    return crossings[label][2]


def _index_terms(n: int, crossings: Crossings, signed: bool = False,
                 ) -> dict[Exponents, int]:
    """Nonzero integer terms of sum sign * (t_i^index - 1), with |index|
    unless ``signed``."""
    counts: dict[tuple[int, int], int] = {}
    for i, sign, index in crossings.values():
        key = (i, index if signed else abs(index))
        counts[key] = counts.get(key, 0) + sign
    constant = (0,) * n
    terms: dict[Exponents, int] = {}
    for (i, exponent), coeff in counts.items():
        exps = [0] * n
        exps[i] = exponent
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + coeff
        terms[constant] = terms.get(constant, 0) - coeff
    return {key: coeff for key, coeff in terms.items() if coeff}


def _fractions(terms: dict[Exponents, int]) -> dict[Exponents, Fraction]:
    return {key: Fraction(coeff) for key, coeff in terms.items()}


def _normal_form(diagram: TangleDiagram, refuse: str = "") -> tuple[dict[Exponents, int], Matrix]:
    """The integer terms of the self-crossing polynomial and the vlk matrix,
    which every report is built from (see the module docstring); singular
    chords are skipped or refused, as in ``_kernel``."""
    n = len(diagram.components)
    crossings, links = _kernel(diagram, refuse)
    vlk = tuple(tuple(links.get((i, j), 0) for j in range(n)) for i in range(n))
    return _index_terms(n, crossings), vlk


def _with_links(n: int, psc_terms: dict[Exponents, Fraction], vlk: Matrix,
                a: Fraction, b: Fraction, laurent: bool) -> LaurentPoly:
    """Self-crossing terms plus vlk(i,j) weighted by a when i < j and by b
    when i > j, on t_i t_j (plain) or t_i t_j^-1 (Laurent)."""
    terms = dict(psc_terms)
    for i, row in enumerate(vlk):
        for j, count in enumerate(row):
            if not count:
                continue
            exps = [0] * n
            exps[i] = 1
            exps[j] = -1 if laurent else 1
            key = tuple(exps)
            terms[key] = terms.get(key, 0) + (a if i < j else b) * count
    return LaurentPoly._from_normal(n, {key: c for key, c in terms.items() if c})


def self_crossing_polynomial(diagram: TangleDiagram) -> LaurentPoly:
    """Sum over classical self-crossings of sign * (t_i^|index| - 1).

    One variable per component; only nonnegative exponents occur.
    """
    n = len(diagram.components)
    crossings, _links = _kernel(diagram, "the self-crossing polynomial")
    return LaurentPoly._from_normal(n, _fractions(_index_terms(n, crossings)))


def _pair_links(diagram: TangleDiagram, i: int, j: int) -> Links:
    """The kernel's signed counts, after checking that components i and j
    (numbered from 1) are two distinct components of the diagram."""
    n = len(diagram.components)
    for number in (i, j):
        if not 1 <= number <= n:
            raise InvariantError(f"component number {number} out of range 1..{n}")
    if i == j:
        raise InvariantError("virtual linking number needs two distinct components")
    _crossings, links = _kernel(diagram)
    return links


def virtual_linking_number(diagram: TangleDiagram, i: int, j: int) -> int:
    """Signed count of classical crossings where component i goes over j.

    Components are numbered from 1 in list order.  Unlike the classical
    linking number this is not symmetric in (i, j).
    """
    return _pair_links(diagram, i, j).get((i - 1, j - 1), 0)


def wriggle_number(diagram: TangleDiagram, i: int, j: int) -> int:
    """vlk(i, j) - vlk(j, i); antisymmetric in the pair."""
    links = _pair_links(diagram, i, j)
    return links.get((i - 1, j - 1), 0) - links.get((j - 1, i - 1), 0)


def _linking_family(diagram: TangleDiagram, a: RationalLike, b: RationalLike,
                    laurent: bool, what: str) -> LaurentPoly:
    psc_terms, vlk = _normal_form(diagram, what)
    return _with_links(len(vlk), _fractions(psc_terms), vlk,
                       as_parameter(a), as_parameter(b), laurent)


def linking_polynomial(diagram: TangleDiagram, a: RationalLike,
                       b: RationalLike) -> LaurentPoly:
    """Self-crossing polynomial plus [a*vlk(i,j) + b*vlk(j,i)] * t_i t_j."""
    return _linking_family(diagram, a, b, False, "the linking polynomial")


def laurent_linking_polynomial(diagram: TangleDiagram, a: RationalLike,
                               b: RationalLike) -> LaurentPoly:
    """Self-crossing polynomial plus a*vlk(i,j)*t_i t_j^-1 + b*vlk(j,i)*t_i^-1 t_j.

    The inverse exponents keep vlk(i,j) and vlk(j,i) in separate monomials,
    which is what makes this family strictly stronger than the plain
    linking polynomial.
    """
    return _linking_family(diagram, a, b, True, "the Laurent linking polynomial")


def henrich_turaev_polynomial(diagram: TangleDiagram) -> LaurentPoly:
    """Index polynomial of a one-component closed diagram (a virtual knot).

    Coincides with the self-crossing polynomial in one variable.
    """
    if len(diagram.components) != 1 or not diagram.components[0].is_closed:
        raise InvariantError("expected exactly one closed component")
    return self_crossing_polynomial(diagram)


def long_ordered_polynomial(diagram: TangleDiagram) -> LaurentPoly:
    """Signed-index polynomial of a one-component long diagram.

    Fixing the long piece as piece 1 makes the signed index well defined, so
    the exponents keep their signs; negative indices produce genuine Laurent
    terms.  Strictly finer than the unsigned polynomial on long diagrams.
    """
    if len(diagram.components) != 1 or not diagram.components[0].is_long:
        raise InvariantError("expected exactly one long component")
    crossings, _links = _kernel(diagram, "the ordered polynomial")
    return LaurentPoly._from_normal(1, _fractions(_index_terms(1, crossings, signed=True)))


# ── Report assembly ───────────────────────────────────────────────────────


class InvariantReport(_Value):
    """All invariant values of one diagram at fixed (a, b)."""

    __slots__ = _fields = ("a", "b", "psc", "plk", "plk_laurent", "vlk", "wriggle")


def invariant_report(diagram: TangleDiagram, a: RationalLike = 1,
                     b: RationalLike = 1) -> InvariantReport:
    """Evaluate every invariant from the diagram's normal form."""
    a_frac, b_frac = as_parameter(a), as_parameter(b)
    psc_ints, vlk = _normal_form(diagram, "the self-crossing polynomial")
    n = len(vlk)
    psc_terms = _fractions(psc_ints)
    wriggle = tuple(tuple(vlk[i][j] - vlk[j][i] for j in range(n)) for i in range(n))
    return InvariantReport(
        a_frac, b_frac, LaurentPoly._from_normal(n, psc_terms),
        _with_links(n, psc_terms, vlk, a_frac, b_frac, laurent=False),
        _with_links(n, psc_terms, vlk, a_frac, b_frac, laurent=True),
        vlk, wriggle)
