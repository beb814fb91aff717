"""Singular tangles and the finite-type derivative.

A singular chord is an unresolved double point.  Its frame fixes both
resolutions combinatorially: with frame +1 the positive resolution puts
end_a on top, with frame -1 it puts end_b on top; the negative resolution is
always the opposite over-choice with the opposite sign, as the two
resolutions of a double point must be.

The derivative of an invariant on a diagram with k singular chords is the
alternating sum over all 2^k resolutions, each weighted by (-1)^(number of
negative choices).  psc, plk and plkL have finite type of order exactly one,
so vassiliev_derivative builds at most two reports: the diagram's own at
k = 0, one per resolution at k = 1, and none at k >= 2, where it is 0.
"""

from __future__ import annotations

from typing import Mapping

from .diagram import ChordKind, Classical, TangleDiagram, TangleError, _splice
from .invariants import invariant_report
from .laurent import LaurentPoly, RationalLike, as_parameter, zero


class ResolutionError(TangleError):
    """An assignment does not match the diagram's singular chords."""


def resolve(diagram: TangleDiagram, assignment: Mapping[str, int]) -> TangleDiagram:
    """Replace every singular chord by its classical resolution, chosen by
    ``assignment``: +1 or -1 for the label of each singular chord.

    On an input in normal form the endpoints are untouched, so the resolved
    diagram differs from it only in chord kinds.
    """
    singular = {c.label: c.kind for c in diagram.chords if not c.is_classical}
    for label in assignment:
        if label not in singular:
            raise ResolutionError(f"chord {label!r} is not a singular chord")
    kinds: dict[str, ChordKind] = {}
    for label, kind in singular.items():
        if label not in assignment:
            raise ResolutionError(f"singular chord {label!r} left unassigned")
        choice = assignment[label]
        if choice not in (1, -1):
            raise ResolutionError(f"bad choice {choice!r} for chord {label!r}")
        # end_a is on top exactly when the choice agrees with the frame
        over = "a" if choice == kind.frame else "b"  # type: ignore[union-attr]
        kinds[label] = Classical(choice, over)
    return _splice(diagram, {}, kinds)


def vassiliev_derivative(diagram: TangleDiagram, a: RationalLike = 1, b: RationalLike = 1,
                         ) -> tuple[LaurentPoly, LaurentPoly, LaurentPoly]:
    """The derivatives of ``psc``, ``plk`` and ``plkL`` at (a, b).

    Both resolutions of a singular chord weigh +frame at end_a and -frame at
    end_b, so each index-kernel term depends on one choice at most: at k >= 2
    singular chords the derivative of these order-one invariants is 0."""
    a, b = as_parameter(a), as_parameter(b)  # checked at every k
    singular = [c.label for c in diagram.chords if not c.is_classical]
    if len(singular) >= 2:
        nothing = zero(len(diagram.components))
        return nothing, nothing, nothing
    if not singular:
        report = invariant_report(diagram, a, b)
        return report.psc, report.plk, report.plk_laurent
    plus, minus = (invariant_report(resolve(diagram, {singular[0]: choice}), a, b)
                   for choice in (1, -1))
    return (plus.psc - minus.psc, plus.plk - minus.plk,
            plus.plk_laurent - minus.plk_laurent)
