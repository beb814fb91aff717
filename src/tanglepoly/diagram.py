"""Gauss-diagram model of virtual tangles.

A tangle lives in a box with ``top`` distinguished points on the upper edge
and ``bottom`` on the lower edge.  Components are either closed curves or
long strands running between two boundary points; each component stores its
traversal as a sequence of chord labels (the *visits*).  A chord records one
classical or singular crossing: its two endpoints are (component id, visit
position) pairs, and the kind carries the sign and over-strand choice
(classical) or the frame (singular).

Virtual crossings are deliberately not represented: they are invisible at
the Gauss-diagram level, where the virtual moves and the detour move act as
identities.  Orientations are implicit in visit order; component list order
fixes the variable order t1..tn used by the invariants.

Construction invariant kept by every builder here: a chord's ``end_a`` is the
endpoint met first in traversal order (components in list order, then
position).  ``from_tokens`` normalizes arbitrary input into that form, so
structural equality of canonicalized diagrams is meaningful.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Mapping, Sequence


class TangleError(Exception):
    """Base class for errors raised by this package."""


class DiagramError(TangleError):
    """Malformed diagram data or an operation on a missing element."""


class Side(str, Enum):
    TOP = "T"
    BOTTOM = "B"


class Direction(str, Enum):
    IN = "in"
    OUT = "out"


@dataclass(frozen=True)
class BoundaryPoint:
    """A distinguished point on the tangle box: side, 1-based index, and
    whether the strand enters (IN) or exits (OUT) the box there."""

    side: Side
    index: int
    direction: Direction


@dataclass(frozen=True)
class Endpoint:
    """One end of a chord: which component it sits on and at which visit."""

    component: str
    position: int


@dataclass(frozen=True)
class Classical:
    """A classical crossing: sign and which endpoint ('a' or 'b') is the
    over-strand passage."""

    sign: int
    over: str  # "a" | "b"


@dataclass(frozen=True)
class Singular:
    """An unresolved double point.  ``frame`` is the crossing sign obtained
    when end_a is chosen as the over strand; it pins down both resolutions
    combinatorially."""

    frame: int


ChordKind = Classical | Singular


@dataclass(frozen=True)
class Chord:
    label: str
    end_a: Endpoint
    end_b: Endpoint
    kind: ChordKind

    @property
    def is_classical(self) -> bool:
        return isinstance(self.kind, Classical)

    @property
    def endpoints(self) -> tuple[Endpoint, Endpoint]:
        return (self.end_a, self.end_b)

    def over_endpoint(self) -> Endpoint:
        if not isinstance(self.kind, Classical):
            raise DiagramError(f"chord {self.label} is singular; it has no over endpoint")
        return self.end_a if self.kind.over == "a" else self.end_b

    def under_endpoint(self) -> Endpoint:
        if not isinstance(self.kind, Classical):
            raise DiagramError(f"chord {self.label} is singular; it has no under endpoint")
        return self.end_b if self.kind.over == "a" else self.end_a


@dataclass(frozen=True)
class Component:
    """One tangle component.  Closed when both boundary fields are None;
    long when both are set (start must be IN, end must be OUT).  ``visits``
    lists the chord label met at each traversal position."""

    cid: str
    visits: tuple[str, ...]
    start: BoundaryPoint | None = None
    end: BoundaryPoint | None = None

    @property
    def is_closed(self) -> bool:
        return self.start is None and self.end is None

    @property
    def is_long(self) -> bool:
        return self.start is not None and self.end is not None


@dataclass(frozen=True)
class TangleDiagram:
    top: int
    bottom: int
    components: tuple[Component, ...]
    chords: tuple[Chord, ...]

    # Lookup indexes, built on first use; on a repeated id or label the
    # first one wins, as in a scan.
    @cached_property
    def _component_index(self) -> dict[str, Component]:
        index: dict[str, Component] = {}
        for comp in self.components:
            index.setdefault(comp.cid, comp)
        return index

    @cached_property
    def _chord_index(self) -> dict[str, Chord]:
        index: dict[str, Chord] = {}
        for chord in self.chords:
            index.setdefault(chord.label, chord)
        return index

    def component(self, cid: str) -> Component:
        comp = self._component_index.get(cid)
        if comp is None:
            raise DiagramError(f"unknown component {cid!r}")
        return comp

    def chord(self, label: str) -> Chord:
        chord = self._chord_index.get(label)
        if chord is None:
            raise DiagramError(f"unknown chord {label!r}")
        return chord

    def component_ids(self) -> tuple[str, ...]:
        return tuple(comp.cid for comp in self.components)

    def has_singular(self) -> bool:
        return any(not c.is_classical for c in self.chords)


EMPTY = TangleDiagram(0, 0, (), ())


# ── Validation ────────────────────────────────────────────────────────────


@dataclass(frozen=True)
class Violation:
    code: str
    message: str


def _bad_name(name: str) -> bool:
    return not name or any(ch.isspace() for ch in name) or "#" in name


def validate(diagram: TangleDiagram) -> list[Violation]:
    """Check every structural invariant; an empty list means the diagram is
    well formed.  Violations identify the offending chord or component."""
    out: list[Violation] = []

    seen_cids: set[str] = set()
    for comp in diagram.components:
        if _bad_name(comp.cid):
            out.append(Violation("bad-name", f"component id {comp.cid!r} is not usable"))
        if comp.cid in seen_cids:
            out.append(Violation("duplicate-component", f"component id {comp.cid!r} repeated"))
        seen_cids.add(comp.cid)
        if comp.is_closed:
            continue
        if comp.start is None or comp.end is None:
            out.append(Violation(
                "half-open-component",
                f"component {comp.cid!r} has only one boundary endpoint set"))
            continue
        if comp.start.direction is not Direction.IN:
            out.append(Violation(
                "bad-direction", f"component {comp.cid!r} must start at an 'in' point"))
        if comp.end.direction is not Direction.OUT:
            out.append(Violation(
                "bad-direction", f"component {comp.cid!r} must end at an 'out' point"))

    # boundary coverage: each in-range point used exactly once
    used: dict[tuple[Side, int], str] = {}
    for comp in diagram.components:
        if not comp.is_long:
            continue
        for point in (comp.start, comp.end):
            assert point is not None
            limit = diagram.top if point.side is Side.TOP else diagram.bottom
            if not 1 <= point.index <= limit:
                out.append(Violation(
                    "boundary-range",
                    f"boundary point {point.side.value}{point.index} out of range "
                    f"on component {comp.cid!r}"))
                continue
            key = (point.side, point.index)
            if key in used:
                out.append(Violation(
                    "boundary-reuse",
                    f"boundary point {point.side.value}{point.index} used by both "
                    f"{used[key]!r} and {comp.cid!r}"))
            used[key] = comp.cid
    for side, limit in ((Side.TOP, diagram.top), (Side.BOTTOM, diagram.bottom)):
        for index in range(1, limit + 1):
            if (side, index) not in used:
                out.append(Violation(
                    "boundary-unused",
                    f"boundary point {side.value}{index} is not used by any component"))

    comp_by_id = {comp.cid: comp for comp in diagram.components}
    seen_labels: set[str] = set()
    # occupancy: (component id, position) -> chord label placed there
    occupancy: dict[tuple[str, int], str] = {}
    for chord in diagram.chords:
        if _bad_name(chord.label):
            out.append(Violation("bad-name", f"chord label {chord.label!r} is not usable"))
        if chord.label in seen_labels:
            out.append(Violation("duplicate-chord", f"chord label {chord.label!r} repeated"))
        seen_labels.add(chord.label)
        if chord.end_a == chord.end_b:
            out.append(Violation(
                "coincident-endpoints",
                f"chord {chord.label!r} has both endpoints at the same visit"))
        if isinstance(chord.kind, Classical):
            if chord.kind.sign not in (1, -1):
                out.append(Violation("bad-sign", f"chord {chord.label!r} sign must be +1/-1"))
            if chord.kind.over not in ("a", "b"):
                out.append(Violation("bad-over", f"chord {chord.label!r} over must be 'a' or 'b'"))
        else:
            if chord.kind.frame not in (1, -1):
                out.append(Violation("bad-frame", f"chord {chord.label!r} frame must be +1/-1"))
        for end in chord.endpoints:
            comp = comp_by_id.get(end.component)
            if comp is None:
                out.append(Violation(
                    "missing-component",
                    f"chord {chord.label!r} references unknown component {end.component!r}"))
                continue
            if not 0 <= end.position < len(comp.visits):
                out.append(Violation(
                    "position-range",
                    f"chord {chord.label!r} endpoint position {end.position} is outside "
                    f"component {comp.cid!r}"))
                continue
            if comp.visits[end.position] != chord.label:
                out.append(Violation(
                    "visit-mismatch",
                    f"component {comp.cid!r} visit {end.position} is "
                    f"{comp.visits[end.position]!r}, not chord {chord.label!r}"))
            key = (end.component, end.position)
            if key in occupancy:
                out.append(Violation(
                    "endpoint-collision",
                    f"chords {occupancy[key]!r} and {chord.label!r} both claim visit "
                    f"{end.position} of component {end.component!r}"))
            occupancy[key] = chord.label

    for comp in diagram.components:
        for position, label in enumerate(comp.visits):
            if (comp.cid, position) not in occupancy:
                out.append(Violation(
                    "dangling-chord",
                    f"dangling chord {label!r}: visit {position} of component "
                    f"{comp.cid!r} is not an endpoint of any chord"))

    return out


# ── Construction ──────────────────────────────────────────────────────────

Token = tuple[str, str]  # (chord label, "a" | "b")
ComponentSpec = tuple[str, BoundaryPoint | None, BoundaryPoint | None, Sequence[Token]]


def _flip_kind(kind: ChordKind) -> ChordKind:
    """Chord kind after renaming end_a <-> end_b.

    The over marker follows the renamed ends; a singular frame negates,
    because choosing the other strand as the over strand flips the sign of
    a double point's resolution.
    """
    if isinstance(kind, Classical):
        return Classical(kind.sign, "b" if kind.over == "a" else "a")
    return Singular(-kind.frame)


def from_tokens(top: int, bottom: int, components: Iterable[ComponentSpec],
                kinds: Mapping[str, ChordKind]) -> TangleDiagram:
    """Assemble a diagram from per-component endpoint tokens.

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


def component_tokens(diagram: TangleDiagram) -> dict[str, list[Token]]:
    """Per-component (label, end-tag) tokens in traversal order."""
    tokens: dict[str, list[Token | None]] = {
        comp.cid: [None] * len(comp.visits) for comp in diagram.components
    }
    for chord in diagram.chords:
        for end, tag in ((chord.end_a, "a"), (chord.end_b, "b")):
            row = tokens.get(end.component)
            if row is None or not 0 <= end.position < len(row) or row[end.position] is not None:
                raise DiagramError(f"chord {chord.label!r} endpoints are inconsistent")
            row[end.position] = (chord.label, tag)
    out: dict[str, list[Token]] = {}
    for cid, row in tokens.items():
        if any(item is None for item in row):
            raise DiagramError(f"component {cid!r} has visits not covered by chords")
        out[cid] = row  # type: ignore[assignment]
    return out


def _kind_map(diagram: TangleDiagram) -> dict[str, ChordKind]:
    return {chord.label: chord.kind for chord in diagram.chords}


def _rebuild(diagram: TangleDiagram, tokens: Mapping[str, Sequence[Token]],
             kinds: Mapping[str, ChordKind],
             boundary: Mapping[str, tuple[BoundaryPoint | None, BoundaryPoint | None]] | None = None,
             ) -> TangleDiagram:
    specs = []
    for comp in diagram.components:
        start, end = comp.start, comp.end
        if boundary and comp.cid in boundary:
            start, end = boundary[comp.cid]
        specs.append((comp.cid, start, end, tokens[comp.cid]))
    return from_tokens(diagram.top, diagram.bottom, specs, kinds)


def _splice(diagram: TangleDiagram, drop: Iterable[str] = (),
            inserts: Iterable[tuple[str, int, Sequence[Token]]] = (),
            kinds: Mapping[str, ChordKind] | None = None) -> TangleDiagram:
    """The diagram after a local edit, built from the old one instead of
    from its tokens.

    Deletes the chords labelled in ``drop`` and puts the tokens of each
    insert ``(component id, gap, tokens)`` before visit ``gap`` (gaps index
    the visits before the edit); ``kinds`` gives the kind of each new chord
    with its tags as written.  Positions on an edited component move by a
    monotone map, so every kept chord keeps its end naming and its place in
    the chord order; a chord none of whose ends moved is reused.  A new
    chord whose 'b' token comes first in traversal order has its ends
    renamed and its kind flipped, as ``from_tokens`` does, and goes to its
    sorted place.
    """
    drop = set(drop)
    removed: dict[str, set[int]] = {}
    for label in drop:
        for end in diagram.chord(label).endpoints:
            removed.setdefault(end.component, set()).add(end.position)
    added: dict[str, dict[int, Sequence[Token]]] = {}
    for cid, gap, tokens in inserts:
        added.setdefault(cid, {})[gap] = tokens

    components = []
    placed: dict[str, dict[str, Endpoint]] = {}
    # edited component id -> new position of each old visit (-1: deleted)
    moved: dict[str, list[int]] = {}
    for comp in diagram.components:
        cid = comp.cid
        if cid not in removed and cid not in added:
            components.append(comp)
            continue
        gone, extra = removed.get(cid, set()), added.get(cid, {})
        visits: list[str] = []
        where = moved[cid] = []
        start = 0
        for pos in sorted(gone | extra.keys()):
            where.extend(range(len(visits), len(visits) + pos - start))
            visits.extend(comp.visits[start:pos])
            for label, tag in extra.get(pos, ()):
                placed.setdefault(label, {})[tag] = Endpoint(cid, len(visits))
                visits.append(label)
            if pos in gone:
                where.append(-1)
                start = pos + 1
            else:
                start = pos
        where.extend(range(len(visits), len(visits) + len(comp.visits) - start))
        visits.extend(comp.visits[start:])
        components.append(Component(cid, tuple(visits), comp.start, comp.end))

    chords = []
    for chord in diagram.chords:
        if chord.label in drop:
            continue
        end_a, end_b = chord.end_a, chord.end_b
        where = moved.get(end_a.component)
        if where is not None and where[end_a.position] != end_a.position:
            end_a = Endpoint(end_a.component, where[end_a.position])
        where = moved.get(end_b.component)
        if where is not None and where[end_b.position] != end_b.position:
            end_b = Endpoint(end_b.component, where[end_b.position])
        if end_a is not chord.end_a or end_b is not chord.end_b:
            chord = Chord(chord.label, end_a, end_b, chord.kind)
        chords.append(chord)

    order = {comp.cid: k for k, comp in enumerate(diagram.components)}

    def first_end(end: Endpoint) -> tuple[int, int]:
        return (order[end.component], end.position)

    for label, ends in placed.items():
        end_a, end_b = ends["a"], ends["b"]
        kind = kinds[label]  # type: ignore[index]
        if first_end(end_b) < first_end(end_a):
            end_a, end_b = end_b, end_a
            kind = _flip_kind(kind)
        chords.insert(bisect(chords, first_end(end_a), key=lambda c: first_end(c.end_a)),
                      Chord(label, end_a, end_b, kind))
    return TangleDiagram(diagram.top, diagram.bottom, tuple(components), tuple(chords))


# ── Orientation ───────────────────────────────────────────────────────────


def reverse_component(diagram: TangleDiagram, cid: str) -> TangleDiagram:
    """Reverse the traversal orientation of one component.

    The visit order reverses; a long component swaps its boundary points
    (in <-> out).  Chords with both endpoints on the component keep their
    data (the sign of a self-crossing does not depend on orientation), while
    chords joining the component to another flip sign (classical) or frame
    (singular): re-orienting exactly one strand of a crossing negates it.
    """
    target = diagram.component(cid)
    tokens = component_tokens(diagram)
    tokens[cid] = list(reversed(tokens[cid]))

    kinds = _kind_map(diagram)
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
        assert target.start is not None and target.end is not None
        boundary = {cid: (
            BoundaryPoint(target.end.side, target.end.index, Direction.IN),
            BoundaryPoint(target.start.side, target.start.index, Direction.OUT),
        )}
    return _rebuild(diagram, tokens, kinds, boundary)


# ── Equality ──────────────────────────────────────────────────────────────


def _kind_key(kind: ChordKind) -> tuple:
    if isinstance(kind, Classical):
        return ("C", kind.sign, kind.over)
    return ("S", kind.frame)


def canonical(diagram: TangleDiagram) -> TangleDiagram:
    """Canonical representative: each closed component rotated to a
    deterministic basepoint and chord ends renamed to traversal order.
    Component order and chord labels are untouched.

    The basepoint is a passage of the component's smallest chord label
    (string order).  When that chord has both passages on the component,
    it is the passage whose kind, renamed so that the passage is end_a, has
    the smaller ``_kind_key``: the over passage of a classical chord, the
    passage at which the frame of a singular chord reads -1.
    """
    tokens = component_tokens(diagram)
    kinds = _kind_map(diagram)
    for comp in diagram.components:
        row = tokens[comp.cid]
        if comp.is_closed and row:
            first = min(label for label, _tag in row)
            kind = kinds[first]
            r = min((i for i, (label, _tag) in enumerate(row) if label == first),
                    key=lambda i: _kind_key(kind if row[i][1] == "a" else _flip_kind(kind)))
            tokens[comp.cid] = row[r:] + row[:r]
    return _rebuild(diagram, tokens, kinds)


def equal_diagrams(left: TangleDiagram, right: TangleDiagram) -> bool:
    """Structural equality up to rotation of each closed component's cyclic
    visit sequence.  Labels, component ids and component order all count."""
    if left == right:
        return True
    if (left.top, left.bottom) != (right.top, right.bottom):
        return False
    if len(left.components) != len(right.components):
        return False
    for lc, rc in zip(left.components, right.components):
        if (lc.cid, lc.start, lc.end, len(lc.visits)) != (rc.cid, rc.start, rc.end, len(rc.visits)):
            return False
    if {c.label for c in left.chords} != {c.label for c in right.chords}:
        return False
    return canonical(left) == canonical(right)
