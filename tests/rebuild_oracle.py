"""Slow reference for the moves, the random walk and orientation reversal.

``moves`` and ``reverse_component`` splice the new diagram out of the old
one (``diagram._splice``), and ``moves`` checks a removal site on its own
chords.  This module keeps what that replaces, as a test oracle: every move
and every reversal rebuilds the whole diagram from its endpoint tokens
through ``from_tokens``, a removal site is checked by listing every site of
its kind, and the walk lists every site of the three removal kinds on each
step.
"""

from __future__ import annotations

import random
from typing import Mapping, Sequence

from tanglepoly import TangleDiagram
from tanglepoly.diagram import (
    BoundaryPoint,
    ChordKind,
    Classical,
    Direction,
    Singular,
    TangleError,
    Token,
    component_tokens,
    from_tokens,
)
from tanglepoly.moves import (
    _WALK_WEIGHTS,
    KinkInsert,
    KinkRemove,
    MoveError,
    MoveKind,
    MoveSite,
    PairInsert,
    PairRemove,
    TriangleSlide,
    _all_gaps,
    _fresh_labels,
    _gaps,
    _next_pos,
    _prev_pos,
    _triangle_pairs,
)


def kind_map(diagram: TangleDiagram) -> dict[str, ChordKind]:
    return {chord.label: chord.kind for chord in diagram.chords}


def rebuild(diagram: TangleDiagram, tokens: Mapping[str, Sequence[Token]],
            kinds: Mapping[str, ChordKind],
            boundary: Mapping[str, tuple[BoundaryPoint | None, BoundaryPoint | None]]
            | None = None) -> TangleDiagram:
    """``diagram`` with each component's tokens (and boundary points, where
    ``boundary`` names the component) replaced, through ``from_tokens``."""
    specs = []
    for comp in diagram.components:
        start, end = comp.start, comp.end
        if boundary and comp.cid in boundary:
            start, end = boundary[comp.cid]
        specs.append((comp.cid, start, end, tokens[comp.cid]))
    return from_tokens(diagram.top, diagram.bottom, specs, kinds)


def reverse_by_rebuild(diagram: TangleDiagram, cid: str) -> TangleDiagram:
    """``reverse_component`` with the reversed diagram rebuilt from tokens."""
    target = diagram.component(cid)
    tokens = component_tokens(diagram)
    tokens[cid] = list(reversed(tokens[cid]))
    kinds = kind_map(diagram)
    for chord in diagram.chords:
        on_target = sum(1 for end in chord.endpoints if end.component == cid)
        if on_target != 1:
            continue
        kind = chord.kind
        if isinstance(kind, Classical):
            kinds[chord.label] = Classical(-kind.sign, kind.over)
        else:
            kinds[chord.label] = Singular(-kind.frame)
    boundary = None
    if target.is_long:
        boundary = {cid: (
            BoundaryPoint(target.end.side, target.end.index, Direction.IN),
            BoundaryPoint(target.start.side, target.start.index, Direction.OUT),
        )}
    return rebuild(diagram, tokens, kinds, boundary)


def _adjacent(comp, first: int, second: int) -> bool:
    return _next_pos(comp, first) == second


def kink_remove_sites(diagram: TangleDiagram) -> list[KinkRemove]:
    sites = []
    for chord in diagram.chords:
        if not chord.is_classical:
            continue
        if chord.end_a.component != chord.end_b.component:
            continue
        comp = diagram.component(chord.end_a.component)
        pa, pb = chord.end_a.position, chord.end_b.position
        if _adjacent(comp, pa, pb) or _adjacent(comp, pb, pa):
            sites.append(KinkRemove(chord.label))
    return sites


def _over_passages(diagram: TangleDiagram) -> dict:
    over_at = {}
    for chord in diagram.chords:
        if chord.is_classical:
            end = chord.over_endpoint()
            over_at[end.component, end.position] = chord
    return over_at


def _over_pairs(diagram: TangleDiagram, over_at: dict):
    for comp in diagram.components:
        for pos in range(len(comp.visits)):
            first = over_at.get((comp.cid, pos))
            nxt = _next_pos(comp, pos)
            if first is not None and nxt is not None:
                second = over_at.get((comp.cid, nxt))
                if second is not None:
                    yield first, second


def pair_remove_sites(diagram: TangleDiagram) -> list[PairRemove]:
    sites = []
    for c1, c2 in _over_pairs(diagram, _over_passages(diagram)):
        if c1.kind.sign + c2.kind.sign != 0:
            continue
        u1, u2 = c1.under_endpoint(), c2.under_endpoint()
        if u1.component != u2.component:
            continue
        under_comp = diagram.component(u1.component)
        if (_adjacent(under_comp, u1.position, u2.position)
                or _adjacent(under_comp, u2.position, u1.position)):
            sites.append(PairRemove(c1.label, c2.label))
    return sites


def triangle_sites(diagram: TangleDiagram) -> list[TriangleSlide]:
    over_at = _over_passages(diagram)
    sites = []
    for c1, c2 in _over_pairs(diagram, over_at):
        for forward, (x, y) in ((True, (c1, c2)), (False, (c2, c1))):
            step = _next_pos if forward else _prev_pos
            ux = x.under_endpoint()
            spot = step(diagram.component(ux.component), ux.position)
            z = over_at.get((ux.component, spot))
            if z is None:
                continue
            candidate = TriangleSlide(x.label, y.label, z.label, forward)
            if _triangle_pairs(diagram, candidate) is not None:
                sites.append(candidate)
    return sites


def _delete_chords(diagram: TangleDiagram, labels: set[str]) -> TangleDiagram:
    tokens = component_tokens(diagram)
    pruned = {
        cid: [tok for tok in row if tok[0] not in labels]
        for cid, row in tokens.items()
    }
    kinds = {lab: kind for lab, kind in kind_map(diagram).items() if lab not in labels}
    return rebuild(diagram, pruned, kinds)


def _kink_insert(diagram: TangleDiagram, site: KinkInsert) -> TangleDiagram:
    try:
        comp = diagram.component(site.component)
    except TangleError as exc:
        raise MoveError(str(exc)) from exc
    if site.gap not in _gaps(comp):
        raise MoveError(f"gap {site.gap} is stale for component {site.component!r}")
    if site.sign not in (1, -1) or site.over_end not in ("a", "b"):
        raise MoveError("bad kink parameters")
    label = _fresh_labels(diagram, 1)[0]
    tokens = component_tokens(diagram)
    row = tokens[site.component]
    tokens[site.component] = row[:site.gap] + [(label, "a"), (label, "b")] + row[site.gap:]
    kinds = kind_map(diagram)
    kinds[label] = Classical(site.sign, site.over_end)
    return rebuild(diagram, tokens, kinds)


def _kink_remove(diagram: TangleDiagram, site: KinkRemove) -> TangleDiagram:
    if site not in kink_remove_sites(diagram):
        raise MoveError(f"chord {site.label!r} is not a removable kink")
    return _delete_chords(diagram, {site.label})


def _pair_insert(diagram: TangleDiagram, site: PairInsert) -> TangleDiagram:
    if site.over_gap == site.under_gap:
        raise MoveError("over and under gaps must differ")
    if site.lead_sign not in (1, -1):
        raise MoveError("bad pair parameters")
    tokens = component_tokens(diagram)
    for cid, gap in (site.over_gap, site.under_gap):
        try:
            comp = diagram.component(cid)
        except TangleError as exc:
            raise MoveError(str(exc)) from exc
        if gap not in _gaps(comp):
            raise MoveError(f"gap {gap} is stale for component {cid!r}")
    first, second = _fresh_labels(diagram, 2)
    over_pair = [(first, "a"), (second, "a")]
    under_pair = [(first, "b"), (second, "b")]
    if site.antiparallel:
        under_pair.reverse()
    inserts = [(site.over_gap, over_pair), (site.under_gap, under_pair)]
    # same component: apply the higher insertion index first so the lower
    # one is not displaced
    inserts.sort(key=lambda item: (item[0][0], -item[0][1]))
    for (cid, gap), pair in inserts:
        row = tokens[cid]
        tokens[cid] = row[:gap] + pair + row[gap:]
    kinds = kind_map(diagram)
    kinds[first] = Classical(site.lead_sign, "a")
    kinds[second] = Classical(-site.lead_sign, "a")
    return rebuild(diagram, tokens, kinds)


def _pair_remove(diagram: TangleDiagram, site: PairRemove) -> TangleDiagram:
    if site not in pair_remove_sites(diagram):
        raise MoveError(f"chords {site.first!r}, {site.second!r} do not form a "
                        "removable pair")
    return _delete_chords(diagram, {site.first, site.second})


def _triangle(diagram: TangleDiagram, site: TriangleSlide) -> TangleDiagram:
    pairs = _triangle_pairs(diagram, site)
    if pairs is None:
        raise MoveError(f"triangle {site.x!r}/{site.y!r}/{site.z!r} is not present")
    tokens = component_tokens(diagram)
    for cid, lo, hi in pairs:
        row = tokens[cid]
        row[lo], row[hi] = row[hi], row[lo]
    return rebuild(diagram, tokens, kind_map(diagram))


_APPLIERS = {
    KinkInsert: _kink_insert,
    KinkRemove: _kink_remove,
    PairInsert: _pair_insert,
    PairRemove: _pair_remove,
    TriangleSlide: _triangle,
}

_LISTS = {
    MoveKind.KINK_REMOVE: kink_remove_sites,
    MoveKind.PAIR_REMOVE: pair_remove_sites,
    MoveKind.TRIANGLE_SLIDE: triangle_sites,
}


def apply_by_rebuild(diagram: TangleDiagram, site: MoveSite) -> TangleDiagram:
    """``moves.apply`` with every move rebuilt from tokens."""
    return _APPLIERS[type(site)](diagram, site)


def walk_by_rebuild(diagram: TangleDiagram, steps: int, seed: int,
                    cap: int) -> tuple[list[TangleDiagram], list[MoveSite | None]]:
    """``random_walk`` listing every removal site on every step; also returns
    the site applied at each step (None on a repeat)."""
    rng = random.Random(seed)
    trail = [diagram]
    applied: list[MoveSite | None] = []
    current = diagram
    for _ in range(steps):
        gaps = _all_gaps(current)
        choices: list[tuple[MoveKind, object]] = []
        chord_count = len(current.chords)
        if gaps and chord_count + 1 <= cap:
            choices.append((MoveKind.KINK_INSERT, None))
        if len(gaps) >= 2 and chord_count + 2 <= cap:
            choices.append((MoveKind.PAIR_INSERT, None))
        for kind, lister in _LISTS.items():
            sites = lister(current)
            if sites:
                choices.append((kind, sites))
        if not choices:
            trail.append(current)
            applied.append(None)
            continue
        weights = [_WALK_WEIGHTS[kind] for kind, _ in choices]
        kind, sites = rng.choices(choices, weights=weights, k=1)[0]
        if kind is MoveKind.KINK_INSERT:
            cid, gap = gaps[rng.randrange(len(gaps))]
            site: MoveSite = KinkInsert(cid, gap, rng.choice((1, -1)),
                                        rng.choice(("a", "b")))
        elif kind is MoveKind.PAIR_INSERT:
            first, second = rng.sample(range(len(gaps)), 2)
            site = PairInsert(gaps[first], gaps[second], rng.choice((1, -1)),
                              rng.choice((False, True)))
        else:
            site = sites[rng.randrange(len(sites))]
        current = apply_by_rebuild(current, site)
        trail.append(current)
        applied.append(site)
    return trail, applied
