"""Slow reference for token assembly, gluing, the moves, the random walk
and orientation reversal.

``from_tokens``, the moves and ``reverse_component`` all build through
``diagram._splice``, ``moves`` checks a removal site on its own chords, and
``connect`` places each input chord straight into the glued rows.  This
module keeps what that replaces, as a test oracle:
``from_tokens_reference`` assembles a diagram from endpoint tokens on its
own, every move and every reversal rebuilds the whole diagram from its
tokens through it, a removal site is checked by listing every site of its
kind, the walk lists every site of the three removal kinds on each step,
and ``connect_by_tokens`` glues through both inputs' tokens, finding each
interface point's owner by a scan of the components.
"""

from __future__ import annotations

import random
from typing import Iterable, Mapping, Sequence

from tanglepoly import TangleDiagram
from tanglepoly.diagram import (
    BoundaryPoint,
    Chord,
    ChordKind,
    Classical,
    Component,
    ComponentSpec,
    DiagramError,
    Direction,
    Endpoint,
    Side,
    Singular,
    TangleError,
    Token,
    _flip_kind,
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
    _triangle_pairs,
)
from tanglepoly.ops import Constituent, GlueError, GlueResult


def from_tokens_reference(top: int, bottom: int, components: Iterable[ComponentSpec],
                          kinds: Mapping[str, ChordKind]) -> TangleDiagram:
    """``from_tokens`` computed on its own, without ``_splice``.

    Each component contributes an ordered list of (label, end-tag) tokens;
    every chord label must appear exactly once with tag 'a' and once with
    tag 'b'.  Ends are renamed if needed so that end_a is traversed first.
    """
    specs = list(components)
    comp_order = {spec[0]: i for i, spec in enumerate(specs)}
    ends: dict[str, dict[str, Endpoint]] = {}
    for cid, _start, _end, tokens in specs:
        for position, (label, tag) in enumerate(tokens):
            if tag not in ("a", "b"):
                raise DiagramError(f"bad end tag {tag!r} for chord {label!r}")
            slot = ends.setdefault(label, {})
            if tag in slot:
                raise DiagramError(f"chord {label!r} has two {tag!r} endpoints")
            slot[tag] = Endpoint(cid, position)

    chords: list[Chord] = []
    for label, slot in ends.items():
        if set(slot) != {"a", "b"}:
            raise DiagramError(f"chord {label!r} is missing an endpoint")
        if label not in kinds:
            raise DiagramError(f"no kind given for chord {label!r}")
        end_a, end_b = slot["a"], slot["b"]
        kind = kinds[label]
        key_a = (comp_order[end_a.component], end_a.position)
        key_b = (comp_order[end_b.component], end_b.position)
        if key_b < key_a:
            end_a, end_b = end_b, end_a
            kind = _flip_kind(kind)
        chords.append(Chord(label, end_a, end_b, kind))
    # deterministic order: first traversed endpoint
    chords.sort(key=lambda c: (comp_order[c.end_a.component], c.end_a.position))

    built = tuple(
        Component(cid, tuple(label for label, _tag in tokens), start, end)
        for cid, start, end, tokens in specs
    )
    return TangleDiagram(top, bottom, built, tuple(chords))


def kind_map(diagram: TangleDiagram) -> dict[str, ChordKind]:
    return {chord.label: chord.kind for chord in diagram.chords}


def rebuild(diagram: TangleDiagram, tokens: Mapping[str, Sequence[Token]],
            kinds: Mapping[str, ChordKind],
            boundary: Mapping[str, tuple[BoundaryPoint | None, BoundaryPoint | None]]
            | None = None) -> TangleDiagram:
    """``diagram`` with each component's tokens (and boundary points, where
    ``boundary`` names the component) replaced, through
    ``from_tokens_reference``."""
    specs = []
    for comp in diagram.components:
        start, end = comp.start, comp.end
        if boundary and comp.cid in boundary:
            start, end = boundary[comp.cid]
        specs.append((comp.cid, start, end, tokens[comp.cid]))
    return from_tokens_reference(diagram.top, diagram.bottom, specs, kinds)


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
            if z is not None and _triangle_pairs(diagram, x, y, z, forward) is not None:
                sites.append(TriangleSlide(x.label, y.label, z.label, forward))
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
    chords = {chord.label: chord for chord in diagram.chords}
    x, y, z = (chords.get(label) for label in (site.x, site.y, site.z))
    pairs = (None if x is None or y is None or z is None
             else _triangle_pairs(diagram, x, y, z, site.forward))
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


# ── Gluing ────────────────────────────────────────────────────────────────

_Node = tuple[str, str]         # ("upper" | "lower", input component id)


def _boundary_owner(diagram: TangleDiagram, side: Side, index: int,
                    ) -> tuple[str, str]:
    """(component id, 'start' | 'end') owning a boundary point."""
    for comp in diagram.components:
        if comp.start and comp.start.side is side and comp.start.index == index:
            return comp.cid, "start"
        if comp.end and comp.end.side is side and comp.end.index == index:
            return comp.cid, "end"
    raise GlueError(f"no component uses boundary point {side.value}{index}")


def connect_by_tokens(upper: TangleDiagram, lower: TangleDiagram) -> GlueResult:
    """``connect`` through both inputs' tokens: stack ``upper`` above ``lower``.

    Requires upper.bottom == lower.top with complementary directions at each
    matched position (one strand leaving, one entering).
    """
    if upper.bottom != lower.top:
        raise GlueError(
            f"boundary count mismatch: upper has {upper.bottom} bottom points, "
            f"lower has {lower.top} top points")

    order: dict[tuple[str, str], int] = {}
    offset = len(upper.components)
    for i, comp in enumerate(upper.components):
        order[("upper", comp.cid)] = i
    for i, comp in enumerate(lower.components):
        order[("lower", comp.cid)] = offset + i

    successor: dict[_Node, _Node] = {}
    relations: list[tuple[int, int]] = []
    upper_number = {comp.cid: i + 1 for i, comp in enumerate(upper.components)}
    lower_number = {comp.cid: i + 1 for i, comp in enumerate(lower.components)}

    for index in range(1, upper.bottom + 1):
        up_cid, up_port = _boundary_owner(upper, Side.BOTTOM, index)
        low_cid, low_port = _boundary_owner(lower, Side.TOP, index)
        up_dir = Direction.OUT if up_port == "end" else Direction.IN
        low_dir = Direction.OUT if low_port == "end" else Direction.IN
        if up_dir == low_dir:
            raise GlueError(
                f"orientation clash at boundary position {index}: both sides "
                f"{'leave' if up_dir is Direction.OUT else 'enter'} the interface")
        if up_dir is Direction.OUT:
            successor[("upper", up_cid)] = ("lower", low_cid)
        else:
            successor[("lower", low_cid)] = ("upper", up_cid)
        pair = (upper_number[up_cid], lower_number[low_cid])
        if pair not in relations:
            relations.append(pair)

    def free_start(side: str, comp) -> bool:
        if not comp.is_long:
            return False
        point = comp.start
        return (point.side is Side.TOP) if side == "upper" else (point.side is Side.BOTTOM)

    def free_end(side: str, comp) -> bool:
        point = comp.end
        return (point.side is Side.TOP) if side == "upper" else (point.side is Side.BOTTOM)

    all_long: list[_Node] = (
        [("upper", c.cid) for c in upper.components if c.is_long]
        + [("lower", c.cid) for c in lower.components if c.is_long])
    comp_of = {("upper", c.cid): c for c in upper.components}
    comp_of.update({("lower", c.cid): c for c in lower.components})

    chains: list[tuple[list[_Node], bool]] = []  # (members, closes_up)
    visited: set[_Node] = set()
    for node in all_long:
        side, _cid = node
        if node in visited or not free_start(side, comp_of[node]):
            continue
        chain = [node]
        visited.add(node)
        while not free_end(chain[-1][0], comp_of[chain[-1]]):
            nxt = successor[chain[-1]]
            chain.append(nxt)
            visited.add(nxt)
        chains.append((chain, False))
    for node in all_long:
        if node in visited:
            continue
        cycle = [node]
        visited.add(node)
        nxt = successor[node]
        while nxt != node:
            cycle.append(nxt)
            visited.add(nxt)
            nxt = successor[nxt]
        # deterministic basepoint: earliest constituent in input order
        pivot = min(range(len(cycle)), key=lambda k: order[cycle[k]])
        chains.append((cycle[pivot:] + cycle[:pivot], True))

    results: list[tuple[list[_Node], bool]] = list(chains)
    results += [([("upper", c.cid)], True) for c in upper.components if c.is_closed]
    results += [([("lower", c.cid)], True) for c in lower.components if c.is_closed]
    results.sort(key=lambda item: min(order[node] for node in item[0]))

    # relabel chords: upper's in order, then lower's
    label_map: dict[tuple[str, str], str] = {}
    kinds: dict[str, ChordKind] = {}
    counter = 1
    for side, diag in (("upper", upper), ("lower", lower)):
        for chord in diag.chords:
            label_map[(side, chord.label)] = str(counter)
            kinds[str(counter)] = chord.kind
            counter += 1

    upper_tokens = component_tokens(upper)
    lower_tokens = component_tokens(lower)

    specs = []
    component_map: list[tuple[Constituent, ...]] = []
    for number, (members, closes_up) in enumerate(results, start=1):
        tokens = []
        for side, cid in members:
            source = upper_tokens if side == "upper" else lower_tokens
            tokens.extend((label_map[(side, label)], tag) for label, tag in source[cid])
        if closes_up:
            start = end = None
        else:
            head = comp_of[members[0]]
            tail = comp_of[members[-1]]
            start = BoundaryPoint(head.start.side, head.start.index, Direction.IN)
            end = BoundaryPoint(tail.end.side, tail.end.index, Direction.OUT)
        specs.append((f"s{number}", start, end, tokens))
        component_map.append(tuple(
            (side, upper_number[cid] if side == "upper" else lower_number[cid])
            for side, cid in members))

    diagram = from_tokens(upper.top, lower.bottom, specs, kinds)
    return GlueResult(diagram, tuple(relations), tuple(component_map))
