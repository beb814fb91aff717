"""The package's value types as the frozen dataclasses they were, as a
test oracle.

The package defines its immutable value types as slotted classes on
``diagram._Value``.  The definitions below are the dataclasses those
classes replace, copied unchanged but for ``BoundaryPoint``, whose
``direction`` field went with the model's (a component's ``start`` is
where it enters the box and its ``end`` where it leaves), so that a
differential test can hold the new classes to the same equality, hash,
``repr`` and pickling.
``twin`` converts a package value, fields and all, into its dataclass
counterpart here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from tanglepoly.diagram import DiagramError, Side
from tanglepoly.laurent import LaurentPoly
from tanglepoly.moves import MoveKind

Gap = tuple[str, int]
Constituent = tuple[str, int]
Matrix = tuple[tuple[int, ...], ...]


# ── diagram ───────────────────────────────────────────────────────────────


@dataclass(frozen=True)
class BoundaryPoint:
    """A distinguished point on the tangle box: side and 1-based index."""

    side: Side
    index: int


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
    long when both are set, entering the box at start and leaving at end.  ``visits``
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

    def has_singular(self) -> bool:
        return any(not c.is_classical for c in self.chords)


@dataclass(frozen=True)
class Violation:
    code: str
    message: str


# ── gaussio ───────────────────────────────────────────────────────────────


@dataclass(frozen=True)
class SourceSpan:
    line: int
    col_start: int
    col_end: int

    def __str__(self) -> str:
        return f"line {self.line}, cols {self.col_start}-{self.col_end}"


# ── invariants ────────────────────────────────────────────────────────────


@dataclass(frozen=True)
class InvariantReport:
    """All invariant values of one diagram at fixed (a, b)."""

    a: Fraction
    b: Fraction
    psc: LaurentPoly
    plk: LaurentPoly
    plk_laurent: LaurentPoly
    vlk: Matrix
    wriggle: Matrix


# ── moves ─────────────────────────────────────────────────────────────────


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


# ── ops ───────────────────────────────────────────────────────────────────


@dataclass(frozen=True)
class GlueResult:
    diagram: TangleDiagram
    # variable identifications (upper component number, lower component
    # number), 1-based, one per upper/lower adjacency inside a merge
    relations: tuple[tuple[int, int], ...]
    # per result component, the ordered constituents concatenated into it;
    # numbers refer to each input's component order (same numbering as the
    # relations and the invariants' variables)
    component_map: tuple[tuple[Constituent, ...], ...]

    def variable_maps(self) -> tuple[dict[int, int], dict[int, int]]:
        """0-based variable position maps (upper -> result, lower -> result)
        ready for ``LaurentPoly.remap_variables``."""
        upper: dict[int, int] = {}
        lower: dict[int, int] = {}
        for result_pos, constituents in enumerate(self.component_map):
            for side, number in constituents:
                if side == "upper":
                    upper[number - 1] = result_pos
                else:
                    lower[number - 1] = result_pos
        return upper, lower


# ── Conversion ────────────────────────────────────────────────────────────

ORACLE_TYPES = {cls.__name__: cls for cls in (
    BoundaryPoint, Endpoint, Classical, Singular, Chord, Component, TangleDiagram,
    Violation, SourceSpan, InvariantReport, KinkInsert, KinkRemove, PairInsert, PairRemove,
    TriangleSlide, GlueResult)}


def twin(value):
    """``value`` with every package value type in it, however deep in
    tuples or dict values, replaced by its dataclass counterpart."""
    oracle = ORACLE_TYPES.get(type(value).__name__)
    if oracle is not None and type(value).__module__.startswith("tanglepoly."):
        return oracle(*(twin(getattr(value, name)) for name in type(value)._fields))
    if type(value) is tuple:
        return tuple(twin(item) for item in value)
    if type(value) is dict:
        return {key: twin(item) for key, item in value.items()}
    return value
