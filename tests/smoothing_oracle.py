"""Slow reference implementations of the index invariants.

The package reads every intersection index and linking number off one
prefix-sum pass over the chords.  This module keeps the definitions they
come from, as test oracles: smoothing a self-crossing into two explicit sets
of visit positions and scanning every chord against them, counting linking
numbers pair by pair, and assembling the polynomials one monomial at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

from tanglepoly import InvariantError, InvariantReport, TangleDiagram
from tanglepoly.laurent import as_fraction, mono, zero


@dataclass(frozen=True)
class SmoothSplit:
    """Outcome of smoothing a self-crossing along the orientation.

    ``piece1`` and ``piece2`` are disjoint sets of visit positions on the
    smoothed component, covering everything except the smoothed chord's own
    two endpoints.  On a long component piece 1 is always the long piece
    (the one keeping the boundary ends) and piece 2 the closed middle; on a
    closed component piece 1 is the arc following end_a, a deterministic but
    arbitrary choice that only affects the sign of the index.
    """

    chord: str
    component: str
    piece1: frozenset[int]
    piece2: frozenset[int]
    long_piece1: bool

    def swapped(self) -> "SmoothSplit":
        return SmoothSplit(self.chord, self.component, self.piece2, self.piece1,
                           self.long_piece1)


def oriented_smoothing(diagram: TangleDiagram, label: str) -> SmoothSplit:
    """Split a component at a classical self-crossing.

    Closed component: piece 1 holds the visits strictly between end_a and
    end_b in traversal order, piece 2 the complementary arc.  Long
    component: piece 2 is the closed loop strictly between the two passages,
    piece 1 the rest of the strand.
    """
    chord = diagram.chord(label)
    if not chord.is_classical:
        raise InvariantError(f"chord {label!r} is singular and cannot be smoothed")
    if chord.end_a.component != chord.end_b.component:
        raise InvariantError(f"chord {label!r} joins two distinct components")
    comp = diagram.component(chord.end_a.component)
    size = len(comp.visits)
    pa, pb = chord.end_a.position, chord.end_b.position
    if comp.is_closed:
        piece1 = []
        pos = (pa + 1) % size
        while pos != pb:
            piece1.append(pos)
            pos = (pos + 1) % size
        piece2 = []
        pos = (pb + 1) % size
        while pos != pa:
            piece2.append(pos)
            pos = (pos + 1) % size
        return SmoothSplit(label, comp.cid, frozenset(piece1), frozenset(piece2), False)
    first, second = min(pa, pb), max(pa, pb)
    middle = frozenset(range(first + 1, second))
    rest = frozenset(range(0, first)) | frozenset(range(second + 1, size))
    return SmoothSplit(label, comp.cid, rest, middle, True)


def index_from_split(diagram: TangleDiagram, split: SmoothSplit) -> int:
    """Signed intersection index for a given labeling of the two pieces."""
    signed = 0
    for other in diagram.chords:
        if other.label == split.chord or not other.is_classical:
            continue
        if (other.end_a.component != split.component
                or other.end_b.component != split.component):
            continue
        pos_a, pos_b = other.end_a.position, other.end_b.position
        in1_a = pos_a in split.piece1
        in1_b = pos_b in split.piece1
        if in1_a == in1_b:
            continue  # both endpoints in the same piece: no crossing between pieces
        over_pos = other.over_endpoint().position
        sign = other.kind.sign  # type: ignore[union-attr]
        signed += sign if over_pos in split.piece1 else -sign
    return signed


def slow_index(diagram: TangleDiagram, label: str) -> int:
    return index_from_split(diagram, oriented_smoothing(diagram, label))


def slow_vlk(diagram: TangleDiagram, i: int, j: int) -> int:
    """Signed count of classical crossings where component i (from 1) goes
    over component j, by scanning every chord."""
    ci, cj = diagram.components[i - 1].cid, diagram.components[j - 1].cid
    total = 0
    for chord in diagram.chords:
        if not chord.is_classical:
            continue
        if {chord.end_a.component, chord.end_b.component} != {ci, cj}:
            continue
        if chord.over_endpoint().component == ci:
            total += chord.kind.sign  # type: ignore[union-attr]
    return total


def slow_report(diagram: TangleDiagram, a=1, b=1) -> InvariantReport:
    """Every invariant, one smoothing, one pair scan and one monomial at a
    time."""
    a, b = as_fraction(a), as_fraction(b)
    n = len(diagram.components)
    number = {comp.cid: k for k, comp in enumerate(diagram.components)}
    psc = zero(n)
    for chord in diagram.chords:
        if chord.end_a.component != chord.end_b.component:
            continue
        exps = [0] * n
        exps[number[chord.end_a.component]] = abs(slow_index(diagram, chord.label))
        sign = chord.kind.sign  # type: ignore[union-attr]
        psc = psc + mono(sign, exps) + mono(-sign, [0] * n)
    vlk = tuple(tuple(0 if i == j else slow_vlk(diagram, i, j)
                      for j in range(1, n + 1)) for i in range(1, n + 1))
    plk, plk_laurent = psc, psc
    for i in range(n):
        for j in range(i + 1, n):
            forward, backward = vlk[i][j], vlk[j][i]
            both = [0] * n
            both[i] = both[j] = 1
            up = [0] * n
            up[i], up[j] = 1, -1
            down = [0] * n
            down[i], down[j] = -1, 1
            plk = plk + mono(a * forward + b * backward, both)
            plk_laurent = (plk_laurent + mono(a * forward, up)
                           + mono(b * backward, down))
    wriggle = tuple(tuple(vlk[i][j] - vlk[j][i] for j in range(n)) for i in range(n))
    return InvariantReport(a, b, psc, plk, plk_laurent, vlk, wriggle)


def slow_long_ordered(diagram: TangleDiagram):
    """Signed-index polynomial of a one-component long diagram."""
    result = zero(1)
    for chord in diagram.chords:
        sign = chord.kind.sign  # type: ignore[union-attr]
        result = (result + mono(sign, (slow_index(diagram, chord.label),))
                  + mono(-sign, (0,)))
    return result
