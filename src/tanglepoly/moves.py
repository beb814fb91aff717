"""Reidemeister moves as Gauss-diagram rewrites, plus a seeded random walk.

In the Gauss-diagram model the virtual moves and the detour move are
identities, so any two arcs of the diagram can be brought together before a
classical move fires.  That makes the move patterns purely combinatorial:

* Kink (first move).  Insert one chord with adjacent endpoints on a single
  arc; any sign and either over-choice is legal (four kink variants).
  Removal matches a classical chord whose endpoints are adjacent.

* Pair (second move).  Insert two chords of opposite signs whose endpoints
  form two adjacent pairs: the over passages of both chords sit next to each
  other on one arc, the under passages next to each other on another
  (possibly the same component, never the same gap).  The under pair comes
  in both orders, covering parallel and antiparallel arcs.  Removal matches
  the same pattern.

* Triangle (third move).  One oriented variant is implemented, the one
  realized by the positive braid relation on three upward strands: three
  positive chords X, Y, Z whose six endpoints form three adjacent pairs

      over(X)  over(Y)   |   under(X)  over(Z)   |   under(Y)  under(Z)

  in this order along their arcs; the slide swaps the two entries of every
  pair simultaneously, giving the mirrored order.  Applying the slide twice
  restores the diagram.  The remaining oriented variants are compositions
  of this one with the pair moves and are not needed for a sound fuzzer.

The random walk applies a seeded stream of legal moves, preferring removals
once the chord count reaches the configured cap, and never changes any of
the polynomial or linking invariants.

A move costs about what it touches.  Kink and pair moves splice the new
diagram out of the old one (``diagram._splice``): positions on the edited
components shift and every chord whose ends did not move is reused.  The
triangle slide still rebuilds the diagram from its tokens: its swaps can
cross a closed component's basepoint and rename chord ends.  A removal
site is checked on its own chords (``_is_kink``, ``_is_removable_pair``),
with the same predicates the site finders use, and chords and components
are looked up through the diagram's index.  The finders are generators:
on each step the walk asks each removal kind only whether it has a site,
and lists the sites of the kind it draws, so its random draws are those of
listing every kind.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import Iterator

from .diagram import (
    Chord,
    Classical,
    Component,
    Endpoint,
    TangleDiagram,
    TangleError,
    _kind_map,
    _rebuild,
    _splice,
    component_tokens,
)


class MoveError(TangleError):
    """Move site does not match the diagram (stale or malformed)."""


class MoveKind(Enum):
    KINK_INSERT = "kink-insert"
    KINK_REMOVE = "kink-remove"
    PAIR_INSERT = "pair-insert"
    PAIR_REMOVE = "pair-remove"
    TRIANGLE_SLIDE = "triangle-slide"


Gap = tuple[str, int]  # (component id, insertion index)


@dataclass(frozen=True)
class KinkInsert:
    component: str
    gap: int
    sign: int
    over_end: str  # "a" | "b": which passage of the new chord is the over one

    kind = MoveKind.KINK_INSERT


@dataclass(frozen=True)
class KinkRemove:
    label: str

    kind = MoveKind.KINK_REMOVE


@dataclass(frozen=True)
class PairInsert:
    over_gap: Gap
    under_gap: Gap
    lead_sign: int        # sign of the first inserted chord; the second is opposite
    antiparallel: bool    # reverse the order of the under pair

    kind = MoveKind.PAIR_INSERT


@dataclass(frozen=True)
class PairRemove:
    first: str   # chord whose over passage comes first in the over pair
    second: str

    kind = MoveKind.PAIR_REMOVE


@dataclass(frozen=True)
class TriangleSlide:
    x: str
    y: str
    z: str
    forward: bool

    kind = MoveKind.TRIANGLE_SLIDE


MoveSite = KinkInsert | KinkRemove | PairInsert | PairRemove | TriangleSlide


# ── Shared helpers ────────────────────────────────────────────────────────


def _gaps(comp: Component) -> range:
    v = len(comp.visits)
    if comp.is_closed:
        return range(v or 1)
    return range(v + 1)


def _next_pos(comp: Component, pos: int) -> int | None:
    v = len(comp.visits)
    if comp.is_closed:
        return (pos + 1) % v if v > 1 else None
    return pos + 1 if pos + 1 < v else None


def _prev_pos(comp: Component, pos: int) -> int | None:
    v = len(comp.visits)
    if comp.is_closed:
        return (pos - 1) % v if v > 1 else None
    return pos - 1 if pos > 0 else None


def _follows(diagram: TangleDiagram, first: Endpoint, second: Endpoint) -> bool:
    """Passage ``second`` comes right after ``first`` on one component."""
    if first.component != second.component:
        return False
    if second.position == first.position + 1:
        return True
    if second.position:  # only a closed component's basepoint wraps around
        return False
    comp = diagram.component(first.component)
    return comp.is_closed and first.position == len(comp.visits) - 1 > 0


def _touching(diagram: TangleDiagram, first: Endpoint, second: Endpoint) -> bool:
    """Two passages next to each other on one component, in either order."""
    return _follows(diagram, first, second) or _follows(diagram, second, first)


def _fresh_labels(diagram: TangleDiagram, count: int) -> list[str]:
    labels: list[str] = []
    candidate = 1
    while len(labels) < count:
        name = str(candidate)
        if name not in diagram._chord_index:
            labels.append(name)
        candidate += 1
    return labels


def _component(diagram: TangleDiagram, cid: str) -> Component:
    try:
        return diagram.component(cid)
    except TangleError as exc:
        raise MoveError(str(exc)) from exc


# ── Kink moves ────────────────────────────────────────────────────────────


def _kink_insert_sites(diagram: TangleDiagram) -> Iterator[KinkInsert]:
    for comp in diagram.components:
        for gap in _gaps(comp):
            for sign in (1, -1):
                for over_end in ("a", "b"):
                    yield KinkInsert(comp.cid, gap, sign, over_end)


def _apply_kink_insert(diagram: TangleDiagram, site: KinkInsert) -> TangleDiagram:
    comp = _component(diagram, site.component)
    if site.gap not in _gaps(comp):
        raise MoveError(f"gap {site.gap} is stale for component {site.component!r}")
    if site.sign not in (1, -1) or site.over_end not in ("a", "b"):
        raise MoveError("bad kink parameters")
    label = _fresh_labels(diagram, 1)[0]
    return _splice(diagram, inserts=[(site.component, site.gap, [(label, "a"), (label, "b")])],
                   kinds={label: Classical(site.sign, site.over_end)})


def _is_kink(diagram: TangleDiagram, chord: Chord) -> bool:
    """A classical chord whose two passages are adjacent on one component."""
    return chord.is_classical and _touching(diagram, chord.end_a, chord.end_b)


def _kink_remove_sites(diagram: TangleDiagram) -> Iterator[KinkRemove]:
    for chord in diagram.chords:
        if _is_kink(diagram, chord):
            yield KinkRemove(chord.label)


def _apply_kink_remove(diagram: TangleDiagram, site: KinkRemove) -> TangleDiagram:
    chord = diagram._chord_index.get(site.label)
    if chord is None or not _is_kink(diagram, chord):
        raise MoveError(f"chord {site.label!r} is not a removable kink")
    return _splice(diagram, drop=[site.label])


# ── Pair moves ────────────────────────────────────────────────────────────


def _all_gaps(diagram: TangleDiagram) -> list[Gap]:
    return [(comp.cid, gap) for comp in diagram.components for gap in _gaps(comp)]


def _pair_insert_sites(diagram: TangleDiagram) -> Iterator[PairInsert]:
    gaps = _all_gaps(diagram)
    for over_gap in gaps:
        for under_gap in gaps:
            if over_gap == under_gap:
                continue
            for lead_sign in (1, -1):
                for antiparallel in (False, True):
                    yield PairInsert(over_gap, under_gap, lead_sign, antiparallel)


def _apply_pair_insert(diagram: TangleDiagram, site: PairInsert) -> TangleDiagram:
    if site.over_gap == site.under_gap:
        raise MoveError("over and under gaps must differ")
    if site.lead_sign not in (1, -1):
        raise MoveError("bad pair parameters")
    for cid, gap in (site.over_gap, site.under_gap):
        if gap not in _gaps(_component(diagram, cid)):
            raise MoveError(f"gap {gap} is stale for component {cid!r}")
    first, second = _fresh_labels(diagram, 2)
    under_pair = [(first, "b"), (second, "b")]
    if site.antiparallel:
        under_pair.reverse()
    return _splice(diagram, inserts=[(*site.over_gap, [(first, "a"), (second, "a")]),
                                     (*site.under_gap, under_pair)],
                   kinds={first: Classical(site.lead_sign, "a"),
                          second: Classical(-site.lead_sign, "a")})


def _over_passages(diagram: TangleDiagram, sign: int | None = None,
                   ) -> dict[tuple[str, int], Chord]:
    """The classical chord whose over passage sits at each (component id,
    position); with ``sign``, only chords of that sign."""
    over_at = {}
    for chord in diagram.chords:
        if isinstance(chord.kind, Classical) and sign in (None, chord.kind.sign):
            end = chord.over_endpoint()
            over_at[end.component, end.position] = chord
    return over_at


def _over_pairs(diagram: TangleDiagram, over_at: dict[tuple[str, int], Chord],
                ) -> Iterator[tuple[Chord, Chord]]:
    """Pairs (first, second) of chords in ``over_at`` whose over passages
    are adjacent on one component, second right after first, in the order
    of first's position (a closed component's wrap-around pair last)."""
    for comp in diagram.components:
        cid, size = comp.cid, len(comp.visits)
        head = previous = over_at.get((cid, 0))
        for pos in range(1, size):
            current = over_at.get((cid, pos))
            if previous is not None and current is not None:
                yield previous, current
            previous = current
        if comp.is_closed and size > 1 and previous is not None and head is not None:
            yield previous, head


def _is_removable_pair(diagram: TangleDiagram, first: Chord, second: Chord) -> bool:
    """Classical chords of opposite signs whose over passages are adjacent,
    second's right after first's, and whose under passages are adjacent on
    one component, in either order."""
    if not (isinstance(first.kind, Classical) and isinstance(second.kind, Classical)):
        return False
    if first.kind.sign + second.kind.sign != 0:
        return False
    return (_follows(diagram, first.over_endpoint(), second.over_endpoint())
            and _touching(diagram, first.under_endpoint(), second.under_endpoint()))


def _pair_remove_sites(diagram: TangleDiagram) -> Iterator[PairRemove]:
    for c1, c2 in _over_pairs(diagram, _over_passages(diagram)):
        if _is_removable_pair(diagram, c1, c2):
            yield PairRemove(c1.label, c2.label)


def _apply_pair_remove(diagram: TangleDiagram, site: PairRemove) -> TangleDiagram:
    first = diagram._chord_index.get(site.first)
    second = diagram._chord_index.get(site.second)
    if first is None or second is None or not _is_removable_pair(diagram, first, second):
        raise MoveError(f"chords {site.first!r}, {site.second!r} do not form a "
                        "removable pair")
    return _splice(diagram, drop=[site.first, site.second])


# ── Triangle move ─────────────────────────────────────────────────────────


def _triangle_pairs(diagram: TangleDiagram, site: TriangleSlide,
                    ) -> list[tuple[str, int, int]] | None:
    """Locate the three adjacent pairs of a triangle site on the current
    diagram; None when the pattern is absent.

    Forward pattern: over(x) followed by over(y); under(x) followed by
    over(z); under(y) followed by under(z).  Backward: every pair reversed.
    """
    try:
        cx = diagram.chord(site.x)
        cy = diagram.chord(site.y)
        cz = diagram.chord(site.z)
    except TangleError:
        return None
    if len({site.x, site.y, site.z}) != 3:
        return None
    for chord in (cx, cy, cz):
        if not chord.is_classical or chord.kind.sign != 1:  # type: ignore[union-attr]
            return None

    step = _next_pos if site.forward else _prev_pos

    def paired(first_end, second_end) -> tuple[str, int, int] | None:
        if first_end.component != second_end.component:
            return None
        comp = diagram.component(first_end.component)
        if step(comp, first_end.position) != second_end.position:
            return None
        lo, hi = first_end.position, second_end.position
        if not site.forward:
            lo, hi = hi, lo
        return (first_end.component, lo, hi)

    pairs = [
        paired(cx.over_endpoint(), cy.over_endpoint()),
        paired(cx.under_endpoint(), cz.over_endpoint()),
        paired(cy.under_endpoint(), cz.under_endpoint()),
    ]
    if any(p is None for p in pairs):
        return None
    positions = {(cid, pos) for cid, lo, hi in pairs for pos in (lo, hi)}  # type: ignore[misc]
    if len(positions) != 6:
        return None
    return pairs  # type: ignore[return-value]


def _triangle_sites(diagram: TangleDiagram) -> Iterator[TriangleSlide]:
    # all three chords of a triangle are positive
    over_at = _over_passages(diagram, sign=1)
    for c1, c2 in _over_pairs(diagram, over_at):
        # forward: this is the over pair (x, y); z is the chord whose over
        # passage follows x's under passage in the direction of the slide
        for forward, (x, y) in ((True, (c1, c2)), (False, (c2, c1))):
            step = _next_pos if forward else _prev_pos
            ux = x.under_endpoint()
            spot = step(diagram.component(ux.component), ux.position)
            z = over_at.get((ux.component, spot))
            if z is None:
                continue
            candidate = TriangleSlide(x.label, y.label, z.label, forward)
            if _triangle_pairs(diagram, candidate) is not None:
                yield candidate


def _apply_triangle(diagram: TangleDiagram, site: TriangleSlide) -> TangleDiagram:
    pairs = _triangle_pairs(diagram, site)
    if pairs is None:
        raise MoveError(f"triangle {site.x!r}/{site.y!r}/{site.z!r} is not present")
    tokens = component_tokens(diagram)
    for cid, lo, hi in pairs:
        row = tokens[cid]
        row[lo], row[hi] = row[hi], row[lo]
    return _rebuild(diagram, tokens, _kind_map(diagram))


# ── Public surface ────────────────────────────────────────────────────────


_SITE_FINDERS = {
    MoveKind.KINK_INSERT: _kink_insert_sites,
    MoveKind.KINK_REMOVE: _kink_remove_sites,
    MoveKind.PAIR_INSERT: _pair_insert_sites,
    MoveKind.PAIR_REMOVE: _pair_remove_sites,
    MoveKind.TRIANGLE_SLIDE: _triangle_sites,
}

_APPLIERS = {
    KinkInsert: _apply_kink_insert,
    KinkRemove: _apply_kink_remove,
    PairInsert: _apply_pair_insert,
    PairRemove: _apply_pair_remove,
    TriangleSlide: _apply_triangle,
}


def enumerate_sites(diagram: TangleDiagram, kind: MoveKind) -> list[MoveSite]:
    """Every legal application of one move kind, in a deterministic order."""
    finder = _SITE_FINDERS.get(kind)
    if finder is None:
        raise MoveError(f"unknown move kind {kind!r}")
    return list(finder(diagram))


def apply(diagram: TangleDiagram, site: MoveSite) -> TangleDiagram:
    """Apply one move; raises MoveError when the site is stale."""
    applier = _APPLIERS.get(type(site))
    if applier is None:
        raise MoveError(f"unknown move site {site!r}")
    return applier(diagram, site)


DEFAULT_CHORD_CAP = 24

_WALK_WEIGHTS = {
    MoveKind.KINK_INSERT: 2,
    MoveKind.KINK_REMOVE: 2,
    MoveKind.PAIR_INSERT: 4,
    MoveKind.PAIR_REMOVE: 4,
    MoveKind.TRIANGLE_SLIDE: 3,
}


def random_walk(diagram: TangleDiagram, steps: int, seed: int,
                cap: int = DEFAULT_CHORD_CAP) -> list[TangleDiagram]:
    """Deterministic random walk through equivalent diagrams.

    Returns steps+1 diagrams starting with the input; each successive
    diagram is one legal move from its predecessor (or a repeat when no
    move is available).  Insertions stop once the chord count would exceed
    ``cap``.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    rng = random.Random(seed)
    trail = [diagram]
    current = diagram
    for step in range(steps):
        gaps = _all_gaps(current)
        choices: list[MoveKind] = []
        chord_count = len(current.chords)
        if gaps and chord_count + 1 <= cap:
            choices.append(MoveKind.KINK_INSERT)
        if len(gaps) >= 2 and chord_count + 2 <= cap:
            choices.append(MoveKind.PAIR_INSERT)
        # a removal kind is a choice when it has a site; only the drawn
        # kind's sites are listed
        for kind in (MoveKind.KINK_REMOVE, MoveKind.PAIR_REMOVE,
                     MoveKind.TRIANGLE_SLIDE):
            if next(_SITE_FINDERS[kind](current), None) is not None:
                choices.append(kind)
        if not choices:
            # nothing changed and nothing was drawn: every later step repeats
            trail.extend([current] * (steps - step))
            break
        weights = [_WALK_WEIGHTS[kind] for kind in choices]
        kind = rng.choices(choices, weights=weights, k=1)[0]
        if kind is MoveKind.KINK_INSERT:
            cid, gap = gaps[rng.randrange(len(gaps))]
            site: MoveSite = KinkInsert(cid, gap, rng.choice((1, -1)),
                                        rng.choice(("a", "b")))
        elif kind is MoveKind.PAIR_INSERT:
            first, second = rng.sample(range(len(gaps)), 2)
            site = PairInsert(gaps[first], gaps[second], rng.choice((1, -1)),
                              rng.choice((False, True)))
        else:
            sites = enumerate_sites(current, kind)
            site = sites[rng.randrange(len(sites))]
        current = apply(current, site)
        trail.append(current)
    return trail
