"""Tangle algebra: stacking, string-link recognition, closure, generators.

``connect(upper, lower)`` stacks one tangle above another, identifying the
upper tangle's bottom boundary points with the lower tangle's top points.
Long components merge by chain-following: a chain that still reaches the
outer boundary becomes a long component of the result, a chain that closes
up becomes a new closed component, and closed components of either input
ride along untouched.  Chords and components are relabeled deterministically
('1', '2', ... and 's1', 's2', ...); the returned GlueResult records which
input components merged where, plus the variable identifications needed to
compare invariant values across the gluing.
"""

from __future__ import annotations

from .diagram import (
    Chord,
    ChordKind,
    Classical,
    Component,
    DiagramError,
    Side,
    TangleDiagram,
    TangleError,
    _Value,
    _rows,
    component_tokens,  # noqa: F401  bench/spans.py wraps it in this module
    from_tokens,
)
# The three polynomial functions are unused here, but bench/spans.py wraps
# them in this module, so they stay bound.
from .invariants import (  # noqa: F401
    InvariantReport,
    laurent_linking_polynomial,
    linking_polynomial,
    self_crossing_polynomial,
)
from .laurent import LaurentPoly


class GlueError(TangleError):
    """Connected sum is undefined for these boundaries."""


Constituent = tuple[str, int]   # ("upper" | "lower", 1-based input component number)


class GlueResult(_Value):
    """A glued ``diagram`` with how its variables arose.  ``relations`` are
    the variable identifications (upper component number, lower component
    number), 1-based, one per upper/lower adjacency inside a merge.
    ``component_map`` gives, per result component, the ordered constituents
    concatenated into it; numbers refer to each input's component order
    (same numbering as the relations and the invariants' variables)."""

    __slots__ = _fields = ("diagram", "relations", "component_map")

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


def connect(upper: TangleDiagram, lower: TangleDiagram) -> GlueResult:
    """Stack ``upper`` above ``lower``.

    Requires upper.bottom == lower.top with complementary directions at each
    matched position (one strand leaving, one entering).
    """
    if upper.bottom != lower.top:
        raise GlueError(
            f"boundary count mismatch: upper has {upper.bottom} bottom points, "
            f"lower has {lower.top} top points")

    inputs = (("upper", upper, Side.BOTTOM), ("lower", lower, Side.TOP))
    # every input component, upper's first, under the constituent naming it
    comp_of: dict[Constituent, Component] = {}
    # interface point -> (the constituent owning it, whether it leaves there)
    ports: dict[tuple[Side, int], tuple[Constituent, bool]] = {}
    interface_ends = 0
    for side, diagram, interface in inputs:
        for number, comp in enumerate(diagram.components, start=1):
            comp_of[side, number] = comp
            for point, leaves in ((comp.start, False), (comp.end, True)):
                if point is not None and point.side is interface:
                    ports.setdefault((interface, point.index), ((side, number), leaves))
                    interface_ends += 1

    successor: dict[Constituent, Constituent] = {}
    relations: dict[tuple[int, int], None] = {}  # in first-seen order
    for index in range(1, upper.bottom + 1):
        for interface in (Side.BOTTOM, Side.TOP):
            if (interface, index) not in ports:
                raise GlueError(f"no component uses boundary point {interface.value}{index}")
        up, up_leaves = ports[Side.BOTTOM, index]
        low, low_leaves = ports[Side.TOP, index]
        if up_leaves == low_leaves:
            raise GlueError(
                f"orientation clash at boundary position {index}: both sides "
                f"{'leave' if up_leaves else 'enter'} the interface")
        if up_leaves:
            successor[up] = low
        else:
            successor[low] = up
        relations[up[1], low[1]] = None
    # each of the 2 * bottom interface points now has an owner; a strand end
    # beyond those reuses a point or lies out of range, and no point continues it
    if interface_ends != 2 * upper.bottom:
        raise DiagramError("an interface point is used twice or lies out of range")

    # Follow successors from each free start, then from each constituent not
    # yet merged, in input order: one met there is a closed passenger or the
    # earliest constituent of a cycle, which so starts at it.
    entered = set(successor.values())
    starts = [node for node, comp in comp_of.items() if comp.is_long and node not in entered]
    rank = {node: i for i, node in enumerate(comp_of)}
    merged: list[tuple[list[Constituent], bool]] = []  # (members, closes_up)
    seen: set[Constituent] = set()
    for head in starts + list(comp_of):
        if head in seen:
            continue
        members = [head]
        node = successor.get(head)
        while node is not None and node != head:
            members.append(node)
            node = successor.get(node)
        seen.update(members)
        merged.append((members, node is not None or comp_of[head].is_closed))
    merged.sort(key=lambda item: min(rank[node] for node in item[0]))

    # chords are renumbered '1', '2', ...: upper's in order, then lower's
    kinds: dict[str, ChordKind] = {}

    def renumber(chord: Chord) -> tuple[tuple[str, str], tuple[str, str]]:
        label = str(len(kinds) + 1)
        kinds[label] = chord.kind
        return (label, "a"), (label, "b")

    rows = {side: _rows(diagram, renumber) for side, diagram, _interface in inputs}
    specs = []
    for number, (members, closes_up) in enumerate(merged, start=1):
        row = []
        for side, input_number in members:
            row += rows[side][comp_of[side, input_number].cid]
        start = end = None
        if not closes_up:
            start, end = comp_of[members[0]].start, comp_of[members[-1]].end
        specs.append((f"s{number}", start, end, row))

    glued = from_tokens(upper.top, lower.bottom, specs, kinds)
    return GlueResult(glued, tuple(relations),
                      tuple(tuple(members) for members, _closes_up in merged))


def is_string_link(diagram: TangleDiagram) -> bool:
    """True when every component is a strand from top point i to bottom
    point i, with no closed components (an (n, n) pure-position tangle)."""
    if diagram.top != diagram.bottom:
        return False
    if diagram.top != len(diagram.components):
        return False
    wanted = set(range(1, diagram.top + 1))
    seen = set()
    for comp in diagram.components:
        if not comp.is_long:
            return False
        assert comp.start is not None and comp.end is not None
        if comp.start.side is not Side.TOP or comp.end.side is not Side.BOTTOM:
            return False
        if comp.start.index != comp.end.index:
            return False
        seen.add(comp.start.index)
    return seen == wanted


def closure(diagram: TangleDiagram) -> TangleDiagram:
    """Close a string link into a link: every strand becomes a closed
    component (basepoint at the old start), chords untouched."""
    if not is_string_link(diagram):
        raise GlueError("closure is defined only for string links")
    components = tuple(
        Component(comp.cid, comp.visits) for comp in diagram.components
    )
    return TangleDiagram(0, 0, components, diagram.chords)


def link_with_linking_numbers(a: int, b: int) -> TangleDiagram:
    """Two-component closed link with vlk(1,2) = a and vlk(2,1) = -b.

    Realized directly as a Gauss diagram: a band of ``a`` positive chords
    with the first component on top, then a band of ``b`` negative chords
    with the second component on top, nowhere interleaved.  No
    self-crossings, so the self-crossing polynomial vanishes.
    """
    if a < 0 or b < 0:
        raise ValueError("band sizes must be nonnegative")
    kinds: dict[str, ChordKind] = {}
    first: list[tuple[str, str]] = []
    second: list[tuple[str, str]] = []
    for k in range(1, a + b + 1):
        label = str(k)
        # end_a sits on the first component, which is over in the first band
        kinds[label] = Classical(1, "a") if k <= a else Classical(-1, "b")
        first.append((label, "a"))
        second.append((label, "b"))
    specs = [("L1", None, None, first), ("L2", None, None, second)]
    return from_tokens(0, 0, specs, kinds)


def check_additivity(glue: GlueResult, glued: InvariantReport, top: InvariantReport,
                     bottom: InvariantReport) -> dict[str, bool]:
    """Compare invariants of the connected sum against the sum of the
    inputs' invariants, after identifying glued variables.  ``glued``,
    ``top`` and ``bottom`` are the reports, at the same ``a`` and ``b``, of
    ``glue.diagram`` and of the upper and lower input."""
    upper_map, lower_map = glue.variable_maps()
    n = len(glue.diagram.components)

    def merged(upper_poly: LaurentPoly, lower_poly: LaurentPoly) -> LaurentPoly:
        return (upper_poly.remap_variables(upper_map, n)
                + lower_poly.remap_variables(lower_map, n))

    return {
        "psc": glued.psc == merged(top.psc, bottom.psc),
        "plk": glued.plk == merged(top.plk, bottom.plk),
        "plkL": glued.plk_laurent == merged(top.plk_laurent, bottom.plk_laurent),
    }
