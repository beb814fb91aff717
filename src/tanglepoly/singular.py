"""Singular tangles and the finite-type derivative.

A singular chord is an unresolved double point.  Its frame fixes both
resolutions combinatorially: with frame +1 the positive resolution puts
end_a on top, with frame -1 it puts end_b on top; the negative resolution is
always the opposite over-choice with the opposite sign, as the two
resolutions of a double point must be.

The derivative of an invariant on a diagram with k singular chords is the
alternating sum over all 2^k resolutions, each weighted by (-1)^(number of
negative choices).  An invariant has finite type of order <= n when every
derivative with more than n singular chords vanishes; the polynomial
invariants in this package all have order exactly one.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterator, Mapping

from .diagram import ChordKind, Classical, TangleDiagram, TangleError, _set, _splice, _Value
from .laurent import LaurentPoly


class ResolutionError(TangleError):
    """Resolution does not match the diagram's singular chords."""


class Resolution(_Value):
    """A choice of +1 or -1 for every singular chord of a diagram."""

    __slots__ = _fields = ("assignment",)

    def __init__(self, assignment: Mapping[str, int]) -> None:
        _set(self, "assignment", assignment)

    @property
    def weight(self) -> int:
        return -1 if sum(1 for c in self.assignment.values() if c < 0) % 2 else 1


def _resolved_kind(frame: int, choice: int) -> Classical:
    if choice == 1:
        return Classical(1, "a" if frame == 1 else "b")
    return Classical(-1, "b" if frame == 1 else "a")


def resolve(diagram: TangleDiagram, resolution: Resolution) -> TangleDiagram:
    """Replace every singular chord by the chosen classical resolution.

    On an input in normal form the endpoints are untouched, so the resolved
    diagram differs from it only in chord kinds.
    """
    assignment = resolution.assignment
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
        kinds[label] = _resolved_kind(kind.frame, choice)  # type: ignore[union-attr]
    return _splice(diagram, {}, kinds)


def all_resolutions(diagram: TangleDiagram) -> Iterator[Resolution]:
    """All 2^k resolutions in a fixed order (chords in diagram order, +1
    before -1), so alternating sums are deterministic."""
    labels = [c.label for c in diagram.chords if not c.is_classical]
    for choices in itertools.product((1, -1), repeat=len(labels)):
        yield Resolution(dict(zip(labels, choices)))


def vassiliev_derivative(diagram: TangleDiagram,
                         invariant: Callable[[TangleDiagram], LaurentPoly],
                         ) -> LaurentPoly:
    """Alternating sum of the invariant over all resolutions.

    With no singular chords this is the invariant itself; with two or more
    it vanishes for every order-one invariant.
    """
    total: LaurentPoly | None = None
    for resolution in all_resolutions(diagram):
        value = invariant(resolve(diagram, resolution))
        if resolution.weight < 0:
            value = -value
        total = value if total is None else total + value
    assert total is not None  # the empty product yields one resolution
    return total
