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
the polynomial or linking invariants.  ``iter_walk`` yields its diagrams one
at a time and keeps only the current one; ``random_walk`` lists them.

A move costs about what it touches.  Every move splices the new diagram
out of the old one (``diagram._splice``) from new rows of the components it
edits: a chord whose ends did not move is reused, and one whose ends a
triangle slide swaps across a closed component's basepoint is renamed.  A
removal site is checked on its own chords (``_is_kink``,
``_is_removable_pair``, ``_triangle_pairs``).  One scan
(``_removal_sites``) lists the sites of all three removal kinds with the
same adjacency test; ``enumerate_sites`` returns its lists, and the walk
reads from it, once per step, which kinds have a site and the drawn kind's
list.
"""

from __future__ import annotations

import random
from operator import attrgetter, itemgetter
from enum import Enum
from typing import Iterator

from .diagram import (
    Chord,
    Classical,
    Component,
    Endpoint,
    TangleDiagram,
    TangleError,
    Token,
    _splice,
    _Value,
    component_tokens,  # noqa: F401  unused here, but bench/spans.py wraps it in this module
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


class KinkInsert(_Value):
    """``over_end`` is "a" or "b": which passage of the new chord is the
    over one."""

    __slots__ = _fields = ("component", "gap", "sign", "over_end")
    kind = MoveKind.KINK_INSERT


class KinkRemove(_Value):
    __slots__ = _fields = ("label",)
    kind = MoveKind.KINK_REMOVE


class PairInsert(_Value):
    """``lead_sign`` is the sign of the first inserted chord; the second is
    opposite.  ``antiparallel`` reverses the order of the under pair."""

    __slots__ = _fields = ("over_gap", "under_gap", "lead_sign", "antiparallel")
    kind = MoveKind.PAIR_INSERT


class PairRemove(_Value):
    """``first`` is the chord whose over passage comes first in the over
    pair."""

    __slots__ = _fields = ("first", "second")
    kind = MoveKind.PAIR_REMOVE


class TriangleSlide(_Value):
    __slots__ = _fields = ("x", "y", "z", "forward")
    kind = MoveKind.TRIANGLE_SLIDE


MoveSite = KinkInsert | KinkRemove | PairInsert | PairRemove | TriangleSlide


# ── Shared helpers ────────────────────────────────────────────────────────


def _gaps(comp: Component) -> range:
    v = len(comp.visits)
    if comp.is_closed:
        return range(v or 1)
    return range(v + 1)


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
    taken = {chord.label for chord in diagram.chords}
    labels: list[str] = []
    candidate = 1
    while len(labels) < count:
        name = str(candidate)
        if name not in taken:
            labels.append(name)
        candidate += 1
    return labels


def _component(diagram: TangleDiagram, cid: str) -> Component:
    try:
        return diagram.component(cid)
    except TangleError as exc:
        raise MoveError(str(exc)) from exc


def _insert(diagram: TangleDiagram, inserts: list[tuple[str, int, list[Token]]],
            kinds: dict[str, Classical]) -> TangleDiagram:
    """The diagram with the tokens of each insert ``(component id, gap,
    tokens)`` put before old visit ``gap``."""
    rows: dict[str, list] = {}
    # the higher gap first, so that a lower one on the same row stays put
    for cid, gap, tokens in sorted(inserts, key=itemgetter(1), reverse=True):
        rows.setdefault(cid, list(range(len(diagram.component(cid).visits))))[gap:gap] = tokens
    return _splice(diagram, rows, kinds)


def _delete(diagram: TangleDiagram, *chords: Chord) -> TangleDiagram:
    """The diagram without the given chords."""
    rows: dict[str, list] = {}
    # the higher position first, so that a lower one on the same row stays put
    for end in sorted([end for chord in chords for end in chord.endpoints],
                      key=attrgetter("position"), reverse=True):
        if end.component not in rows:
            rows[end.component] = list(range(len(diagram.component(end.component).visits)))
        del rows[end.component][end.position]
    return _splice(diagram, rows)


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
    return _insert(diagram, [(site.component, site.gap, [(label, "a"), (label, "b")])],
                   {label: Classical(site.sign, site.over_end)})


def _is_kink(diagram: TangleDiagram, chord: Chord) -> bool:
    """A classical chord whose two passages are adjacent on one component."""
    return chord.is_classical and _touching(diagram, chord.end_a, chord.end_b)


def _apply_kink_remove(diagram: TangleDiagram, site: KinkRemove) -> TangleDiagram:
    chord = diagram._chord_index.get(site.label)
    if chord is None or not _is_kink(diagram, chord):
        raise MoveError(f"chord {site.label!r} is not a removable kink")
    return _delete(diagram, chord)


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
    return _insert(diagram, [(*site.over_gap, [(first, "a"), (second, "a")]),
                             (*site.under_gap, under_pair)],
                   {first: Classical(site.lead_sign, "a"),
                    second: Classical(-site.lead_sign, "a")})


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


def _apply_pair_remove(diagram: TangleDiagram, site: PairRemove) -> TangleDiagram:
    first = diagram._chord_index.get(site.first)
    second = diagram._chord_index.get(site.second)
    if first is None or second is None or not _is_removable_pair(diagram, first, second):
        raise MoveError(f"chords {site.first!r}, {site.second!r} do not form a "
                        "removable pair")
    return _delete(diagram, first, second)


# ── Triangle move ─────────────────────────────────────────────────────────


def _triangle_pairs(diagram: TangleDiagram, x: Chord, y: Chord, z: Chord, forward: bool,
                    ) -> list[tuple[str, int, int]] | None:
    """The three adjacent pairs ``(component id, position, position after
    it)`` of the triangle on chords x, y, z; None when the pattern is absent.

    Forward pattern: over(x) followed by over(y); under(x) followed by
    over(z); under(y) followed by under(z).  Backward: every pair reversed.
    The pair under(y), under(z) is tested first, as the candidates of
    ``_removal_sites`` lack it most often; six distinct passages imply
    three distinct chords.
    """
    for chord in (x, y, z):
        if not chord.is_classical or chord.kind.sign != 1:  # type: ignore[union-attr]
            return None
    pairs = []
    for first, second in ((y.under_endpoint(), z.under_endpoint()),
                          (x.over_endpoint(), y.over_endpoint()),
                          (x.under_endpoint(), z.over_endpoint())):
        if not forward:
            first, second = second, first
        if not _follows(diagram, first, second):
            return None
        pairs.append((first.component, first.position, second.position))
    if len({(cid, pos) for cid, lo, hi in pairs for pos in (lo, hi)}) != 6:
        return None
    return pairs


def _apply_triangle(diagram: TangleDiagram, site: TriangleSlide) -> TangleDiagram:
    x, y, z = (diagram._chord_index.get(label) for label in (site.x, site.y, site.z))
    pairs = (None if x is None or y is None or z is None
             else _triangle_pairs(diagram, x, y, z, site.forward))
    if pairs is None:
        raise MoveError(f"triangle {site.x!r}/{site.y!r}/{site.z!r} is not present")
    rows = {cid: list(range(len(diagram.component(cid).visits))) for cid, _lo, _hi in pairs}
    for cid, lo, hi in pairs:
        row = rows[cid]
        row[lo], row[hi] = row[hi], row[lo]
    return _splice(diagram, rows)


# ── Removal sites ─────────────────────────────────────────────────────────


def _removal_sites(diagram: TangleDiagram,
                   ) -> tuple[list[KinkRemove], list[PairRemove], list[TriangleSlide]]:
    """Every kink-removal, pair-removal and triangle-slide site, from one
    scan.

    One pass over the chords lists the kinks, in chord order, and records
    the classical chord whose over passage sits at each visit.  One pass
    over each component then meets every pair (first, second) of chords
    whose over passages are adjacent, second right after first, in
    position order with a closed component's wrap-around pair last.  A
    pair of opposite signs is a pair-removal site when its under passages
    touch.  A positive pair is the over pair of at most two triangles: the
    forward one takes z at the visit after first's under passage, the
    backward one at the visit before second's, both read cyclically;
    ``_triangle_pairs`` checks each candidate on its three chords, so it
    drops a wrap-around that no closed component makes.
    """
    comps: dict[str, Component] = {}
    # component id -> the classical chord whose over passage sits at each visit
    over_at: dict[str, list[Chord | None]] = {}
    for comp in diagram.components:
        comps[comp.cid] = comp
        over_at[comp.cid] = [None] * len(comp.visits)
    kinks: list[KinkRemove] = []
    for chord in diagram.chords:
        kind = chord.kind
        if not isinstance(kind, Classical):
            continue
        over = chord.end_a if kind.over == "a" else chord.end_b
        over_at[over.component][over.position] = chord
        if _touching(diagram, chord.end_a, chord.end_b):
            kinks.append(KinkRemove(chord.label))

    pairs: list[PairRemove] = []
    triangles: list[TriangleSlide] = []
    for cid, row in over_at.items():
        adjacent = list(zip(row, row[1:]))
        if comps[cid].is_closed and len(row) > 1:
            adjacent.append((row[-1], row[0]))
        for first, second in adjacent:
            if first is None or second is None:
                continue
            signs = (first.kind.sign, second.kind.sign)  # type: ignore[union-attr]
            if signs[0] + signs[1] == 0:
                if _touching(diagram, first.under_endpoint(), second.under_endpoint()):
                    pairs.append(PairRemove(first.label, second.label))
            elif signs == (1, 1):
                for forward, x, y in ((True, first, second), (False, second, first)):
                    ux = x.under_endpoint()
                    under_row = over_at[ux.component]
                    z = under_row[(ux.position + (1 if forward else -1)) % len(under_row)]
                    if z is not None and _triangle_pairs(diagram, x, y, z, forward):
                        triangles.append(TriangleSlide(x.label, y.label, z.label, forward))
    return kinks, pairs, triangles


# ── Public surface ────────────────────────────────────────────────────────


_REMOVAL_KINDS = (MoveKind.KINK_REMOVE, MoveKind.PAIR_REMOVE, MoveKind.TRIANGLE_SLIDE)

_APPLIERS = {
    KinkInsert: _apply_kink_insert,
    KinkRemove: _apply_kink_remove,
    PairInsert: _apply_pair_insert,
    PairRemove: _apply_pair_remove,
    TriangleSlide: _apply_triangle,
}


def enumerate_sites(diagram: TangleDiagram, kind: MoveKind) -> list[MoveSite]:
    """Every legal application of one move kind, in a deterministic order."""
    if kind is MoveKind.KINK_INSERT:
        return list(_kink_insert_sites(diagram))
    if kind is MoveKind.PAIR_INSERT:
        return list(_pair_insert_sites(diagram))
    if kind in _REMOVAL_KINDS:
        return _removal_sites(diagram)[_REMOVAL_KINDS.index(kind)]  # type: ignore[return-value]
    raise MoveError(f"unknown move kind {kind!r}")


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


# the draw's weights, read once here rather than per step
_KINK_INSERT_WEIGHT = _WALK_WEIGHTS[MoveKind.KINK_INSERT]
_PAIR_INSERT_WEIGHT = _WALK_WEIGHTS[MoveKind.PAIR_INSERT]
_REMOVAL_WEIGHTS = tuple(_WALK_WEIGHTS[kind] for kind in _REMOVAL_KINDS)


def iter_walk(diagram: TangleDiagram, steps: int, seed: int,
              cap: int = DEFAULT_CHORD_CAP) -> Iterator[TangleDiagram]:
    """Deterministic random walk through equivalent diagrams.

    Yields steps+1 diagrams starting with the input; each successive
    diagram is one legal move from its predecessor, or the same object
    again when no move is available.  Insertions stop once the chord count
    would exceed ``cap``.  Only the current diagram is kept.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    rng = random.Random(seed)
    current = diagram
    yield current
    for step in range(steps):
        gaps = _all_gaps(current)
        chord_count = len(current.chords)
        # the kinds that have a site, each a move kind or a site list
        choices: list[MoveKind | list[MoveSite]] = []
        weights: list[int] = []
        if gaps and chord_count + 1 <= cap:
            choices.append(MoveKind.KINK_INSERT)
            weights.append(_KINK_INSERT_WEIGHT)
        if len(gaps) >= 2 and chord_count + 2 <= cap:
            choices.append(MoveKind.PAIR_INSERT)
            weights.append(_PAIR_INSERT_WEIGHT)
        for sites, weight in zip(_removal_sites(current), _REMOVAL_WEIGHTS):
            if sites:
                choices.append(sites)  # type: ignore[arg-type]
                weights.append(weight)
        if not choices:
            # nothing changed and nothing was drawn: every later step repeats
            for _ in range(steps - step):
                yield current
            return
        drawn = rng.choices(choices, weights=weights, k=1)[0]
        if drawn is MoveKind.KINK_INSERT:
            cid, gap = gaps[rng.randrange(len(gaps))]
            site: MoveSite = KinkInsert(cid, gap, rng.choice((1, -1)),
                                        rng.choice(("a", "b")))
        elif drawn is MoveKind.PAIR_INSERT:
            first, second = rng.sample(range(len(gaps)), 2)
            site = PairInsert(gaps[first], gaps[second], rng.choice((1, -1)),
                              rng.choice((False, True)))
        else:
            site = drawn[rng.randrange(len(drawn))]  # type: ignore[index]
        current = apply(current, site)
        yield current


def random_walk(diagram: TangleDiagram, steps: int, seed: int,
                cap: int = DEFAULT_CHORD_CAP) -> list[TangleDiagram]:
    """The steps+1 diagrams of ``iter_walk`` as a list."""
    return list(iter_walk(diagram, steps, seed, cap))
