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

Construction invariant: a chord's ``end_a`` is the endpoint met first in
traversal order (components in list order, then position), and chords are
sorted by it.  ``gaussio.parse`` reads chords in that form.  ``_splice`` is
the one builder that puts any other input into it: it builds each diagram
derived from another (every move, ``canonical``, ``reverse_component``,
``singular.resolve``) and, through ``from_tokens``, each diagram assembled
from endpoint tokens (``connect``, ``gen``), so structural equality of
canonicalized diagrams is meaningful.
"""

from __future__ import annotations

from enum import Enum
from operator import attrgetter
from typing import Callable, Iterable, Mapping, Sequence

_set = object.__setattr__


def _make_init(cls) -> object:
    """``cls``'s constructor, compiled as the straight-line code one writes
    by hand: one ``_set`` per field, in ``_fields`` order."""
    params = "".join(f", {name}" for name in cls._fields)
    body = "".join(f"\n    _set(self, {name!r}, {name})" for name in cls._fields)
    namespace = {"_set": _set, "__name__": cls.__module__}
    exec(f"def __init__(self{params}) -> None:{body}", namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init


class _Value:
    """Base of the package's immutable value types.

    A subclass declares ``__slots__ = _fields = (...)`` and nothing more.
    The rest reads the fields in that order, as a frozen dataclass does:
    the generated constructor takes them by position or keyword, none
    optional; instances are equal when their classes match and their field
    tuples are equal, hash as that tuple, show as ``Name(field=value, ...)``
    and pickle through the constructor.  Assigning or deleting an attribute
    raises ``AttributeError``.  A subclass that defines its own ``__init__``
    keeps it.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        if len(cls._fields) == 1:
            # the key is a tuple for one field too, as the hash must be
            get = attrgetter(cls._fields[0])
            cls._key = staticmethod(lambda self: (get(self),))
        else:
            cls._key = attrgetter(*cls._fields)
        cls.__match_args__ = cls._fields
        if "__init__" not in cls.__dict__:
            cls.__init__ = _make_init(cls)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._key(self)


class TangleError(Exception):
    """Base class for errors raised by this package."""


class DiagramError(TangleError):
    """Malformed diagram data or an operation on a missing element."""


class Side(str, Enum):
    TOP = "T"
    BOTTOM = "B"


class BoundaryPoint(_Value):
    """A distinguished point on the tangle box: side and 1-based index.  A
    strand enters the box at its component's ``start`` and leaves at its
    ``end``."""

    __slots__ = _fields = ("side", "index")


class Endpoint(_Value):
    """One end of a chord: which component it sits on and at which visit."""

    __slots__ = _fields = ("component", "position")

    # _Value's methods inline, for the many endpoint comparisons of canonical
    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.component == other.component and self.position == other.position

    def __hash__(self) -> int:
        return hash((self.component, self.position))


class Classical(_Value):
    """A classical crossing: sign and which endpoint is the over-strand
    passage, ``over`` being "a" or "b"."""

    __slots__ = _fields = ("sign", "over")


class Singular(_Value):
    """An unresolved double point.  ``frame`` is the crossing sign obtained
    when end_a is chosen as the over strand; it pins down both resolutions
    combinatorially."""

    __slots__ = _fields = ("frame",)


ChordKind = Classical | Singular


class Chord(_Value):
    """One crossing of the diagram: its label, its two ends and its kind.
    ``end_a`` is the end met first in traversal order."""

    __slots__ = _fields = ("label", "end_a", "end_b", "kind")

    # _Value's methods inline, for the many chord comparisons of canonical
    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.label == other.label and self.end_a == other.end_a
                and self.end_b == other.end_b and self.kind == other.kind)

    def __hash__(self) -> int:
        return hash((self.label, self.end_a, self.end_b, self.kind))

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


class Component(_Value):
    """One tangle component.  Closed when both boundary fields are None;
    long when both are set, entering the box at start and leaving at end.
    ``visits`` lists the chord label met at each traversal position."""

    __slots__ = _fields = ("cid", "visits", "start", "end")

    def __init__(self, cid: str, visits: tuple[str, ...], start: BoundaryPoint | None = None,
                 end: BoundaryPoint | None = None) -> None:
        _set(self, "cid", cid)
        _set(self, "visits", visits)
        _set(self, "start", start)
        _set(self, "end", end)

    @property
    def is_closed(self) -> bool:
        return self.start is None and self.end is None

    @property
    def is_long(self) -> bool:
        return self.start is not None and self.end is not None


class TangleDiagram(_Value):
    """A tangle in a box with ``top`` and ``bottom`` boundary points: its
    components, in the order of the invariants' variables, and its chords,
    sorted by ``end_a``."""

    _fields = ("top", "bottom", "components", "chords")
    # the lookup indexes, filled by __getattr__ on first read; equality,
    # hash, repr and pickling leave them out
    __slots__ = _fields + ("_component_index", "_chord_index")

    def __getattr__(self, name: str):
        # reached only while an index slot is empty; on a repeated id or
        # label the first one wins, as in a scan
        if name == "_component_index":
            index = {}
            for comp in self.components:
                index.setdefault(comp.cid, comp)
        elif name == "_chord_index":
            index = {}
            for chord in self.chords:
                index.setdefault(chord.label, chord)
        else:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        _set(self, name, index)
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

    def has_singular(self) -> bool:
        return any(not c.is_classical for c in self.chords)


# ── Validation ────────────────────────────────────────────────────────────


class Violation(_Value):
    """One broken structural invariant: a stable code and a message."""

    __slots__ = _fields = ("code", "message")


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
        if not comp.is_closed and not comp.is_long:
            out.append(Violation(
                "half-open-component",
                f"component {comp.cid!r} has only one boundary endpoint set"))

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
    # one violation per maximal run of unused points, found from the used ones
    for side, limit in ((Side.TOP, diagram.top), (Side.BOTTOM, diagram.bottom)):
        taken = sorted(index for point_side, index in used if point_side is side)
        for before, after in zip([0, *taken], [*taken, limit + 1]):
            if after - before > 1:
                points = (f"point {side.value}{before + 1} is" if after - before == 2 else
                          f"points {side.value}{before + 1}-{side.value}{after - 1} are")
                out.append(Violation("boundary-unused",
                                     f"boundary {points} not used by any component"))

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
    rows: dict[str, Sequence[Token]] = {}
    for cid, _start, _end, tokens in specs:
        if cid in rows:
            raise DiagramError(f"component id {cid!r} repeated")
        rows[cid] = tokens
    skeleton = tuple(Component(cid, (), start, end) for cid, start, end, _tokens in specs)
    return _splice(TangleDiagram(top, bottom, skeleton, ()), rows, kinds)


def _rows(diagram: TangleDiagram, ends: Callable[[Chord], tuple]) -> dict[str, list]:
    """Per component id, a row as long as its visits with the two items
    ``ends(chord)`` gives at each chord's end_a and end_b; DiagramError when
    an end is off its component or on a filled visit, or a visit stays empty."""
    rows: dict[str, list] = {comp.cid: [None] * len(comp.visits) for comp in diagram.components}
    for chord in diagram.chords:
        for end, item in zip((chord.end_a, chord.end_b), ends(chord)):
            row = rows.get(end.component)
            if row is None or not 0 <= end.position < len(row) or row[end.position] is not None:
                raise DiagramError(f"chord {chord.label!r} endpoints are inconsistent")
            row[end.position] = item
    for cid, row in rows.items():
        if None in row:
            raise DiagramError(f"component {cid!r} has visits not covered by chords")
    return rows


def component_tokens(diagram: TangleDiagram) -> dict[str, list[Token]]:
    """Per-component (label, end-tag) tokens in traversal order."""
    return _rows(diagram, lambda chord: ((chord.label, "a"), (chord.label, "b")))


def _splice(diagram: TangleDiagram, rows: Mapping[str, Iterable[int | Token]],
            kinds: Mapping[str, ChordKind] | None = None) -> TangleDiagram:
    """The diagram derived from ``diagram`` by new rows for some components.

    This is the one builder that puts chords into normal form; every move,
    ``canonical``, ``reverse_component``, ``resolve`` (new kinds only) and
    ``from_tokens`` (a row per empty component) call it.  A row lists old visit
    positions of its component and tokens ``(label, tag)`` of new chords,
    each label once with tag 'a' and once with tag 'b'; other components
    keep their visits, and a chord with a visit that no row keeps is
    deleted.  ``kinds`` gives each new chord's kind for its tags as
    written, and replaces the kind of any old chord it names.  Chords on
    rows or in ``kinds`` are renamed, their kind flipped, when their 'b'
    end comes first; others are reused as they are, so the result is in
    normal form for an input in it, or for any input when every component
    has a row.  The chords are appended in order and sorted by ``end_a``
    once, only when they come out of order.
    """
    kinds = kinds or {}
    components = []
    # key of each component's first visit; a visit's key is its traversal place
    offset: dict[str, int] = {}
    # rewritten component id -> new position of each old visit (-1: deleted)
    moved: dict[str, list[int]] = {}
    # new chord label -> its end for each tag
    placed: dict[str, dict[str, Endpoint]] = {}
    total = 0
    for comp in diagram.components:
        cid = comp.cid
        offset[cid] = total
        row = rows.get(cid)
        if row is not None:
            where = moved[cid] = [-1] * len(comp.visits)
            for position, item in enumerate(row):
                if type(item) is int:
                    where[item] = position
                    continue
                label, tag = item
                ends = placed.setdefault(label, {})
                if tag not in ("a", "b"):
                    raise DiagramError(f"bad end tag {tag!r} for chord {label!r}")
                if tag in ends:
                    raise DiagramError(f"chord {label!r} has two {tag!r} endpoints")
                ends[tag] = Endpoint(cid, position)
            visits = [comp.visits[item] if type(item) is int else item[0] for item in row]
            comp = Component(cid, tuple(visits), comp.start, comp.end)
        components.append(comp)
        total += len(comp.visits)

    chords: list[Chord] = []
    # the chords are sorted while each key_a exceeds the last one's
    ordered = True
    last = -1
    for chord in diagram.chords:
        end_a, end_b = chord.end_a, chord.end_b
        ca, cb = end_a.component, end_b.component
        if ca not in moved and cb not in moved and chord.label not in kinds:
            key_a = offset[ca] + end_a.position
        else:
            if ca in moved and moved[ca][end_a.position] != end_a.position:
                end_a = Endpoint(ca, moved[ca][end_a.position])
            if cb in moved and moved[cb][end_b.position] != end_b.position:
                end_b = Endpoint(cb, moved[cb][end_b.position])
            pa, pb = end_a.position, end_b.position
            if pa < 0 or pb < 0:
                continue
            kind = kinds.get(chord.label, chord.kind)
            key_a, key_b = offset[ca] + pa, offset[cb] + pb
            if key_b < key_a:
                end_a, end_b, key_a = end_b, end_a, key_b
                kind = _flip_kind(kind)
            if end_a is not chord.end_a or end_b is not chord.end_b or kind is not chord.kind:
                chord = Chord(chord.label, end_a, end_b, kind)
        ordered = ordered and last < key_a
        last = key_a
        chords.append(chord)

    for label, ends in placed.items():
        if len(ends) != 2:
            raise DiagramError(f"chord {label!r} is missing an endpoint")
        if label not in kinds:
            raise DiagramError(f"no kind given for chord {label!r}")
        end_a, end_b, kind = ends["a"], ends["b"], kinds[label]
        key_a = offset[end_a.component] + end_a.position
        key_b = offset[end_b.component] + end_b.position
        if key_b < key_a:
            end_a, end_b, key_a = end_b, end_a, key_b
            kind = _flip_kind(kind)
        ordered = ordered and last < key_a
        last = key_a
        chords.append(Chord(label, end_a, end_b, kind))
    if not ordered:
        chords.sort(key=lambda chord: offset[chord.end_a.component] + chord.end_a.position)
    return TangleDiagram(diagram.top, diagram.bottom, tuple(components), tuple(chords))


# ── Orientation ───────────────────────────────────────────────────────────


def reverse_component(diagram: TangleDiagram, cid: str) -> TangleDiagram:
    """Reverse the traversal orientation of one component.

    The visit order reverses, and so do the component's start and end
    (None and None on a closed component).  Chords with both endpoints on the
    component keep their data (the sign of a self-crossing does not depend
    on orientation), while chords joining the component to another flip
    sign (classical) or frame (singular): re-orienting exactly one strand of
    a crossing negates it.
    """
    target = diagram.component(cid)
    kinds: dict[str, ChordKind] = {}
    for chord in diagram.chords:
        if (chord.end_a.component == cid) != (chord.end_b.component == cid):
            kind = chord.kind
            kinds[chord.label] = (Classical(-kind.sign, kind.over) if isinstance(kind, Classical)
                                  else Singular(-kind.frame))
    # a row for every component, so that every chord is normalized
    rows = {comp.cid: range(len(comp.visits)) for comp in diagram.components}
    rows[cid] = range(len(target.visits) - 1, -1, -1)
    turned = _splice(diagram, rows, kinds)
    components = tuple(Component(cid, comp.visits, target.end, target.start)
                       if comp.cid == cid else comp for comp in turned.components)
    return TangleDiagram(diagram.top, diagram.bottom, components, turned.chords)


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
    rows: dict[str, list[int]] = {}
    for comp in diagram.components:
        r = 0
        if comp.is_closed and comp.visits:
            chord = diagram.chord(min(comp.visits))
            r = min((end for end in chord.endpoints if end.component == comp.cid),
                    key=lambda end: _kind_key(
                        chord.kind if end is chord.end_a else _flip_kind(chord.kind))).position
        # a row for every component, so that every chord is normalized
        rows[comp.cid] = [*range(r, len(comp.visits)), *range(r)]
    return _splice(diagram, rows)


def equal_diagrams(left: TangleDiagram, right: TangleDiagram) -> bool:
    """Structural equality up to rotation of each closed component's cyclic
    visit sequence.  Labels, component ids and component order all count."""
    return canonical(left) == canonical(right)
