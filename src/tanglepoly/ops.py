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

from dataclasses import dataclass

from .diagram import (
    BoundaryPoint,
    ChordKind,
    Classical,
    Component,
    Direction,
    Side,
    TangleDiagram,
    TangleError,
    component_tokens,
    from_tokens,
)
# The three polynomial functions are unused here, but bench/spans.py wraps
# them in this module, so they stay bound.
from .invariants import (  # noqa: F401
    InvariantReport,
    invariant_report,
    laurent_linking_polynomial,
    linking_polynomial,
    self_crossing_polynomial,
)
from .laurent import LaurentPoly, RationalLike


class GlueError(TangleError):
    """Connected sum is undefined for these boundaries."""


Constituent = tuple[str, int]   # ("upper" | "lower", 1-based input component number)
_Node = tuple[str, str]         # ("upper" | "lower", input component id)


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


def _boundary_owner(diagram: TangleDiagram, side: Side, index: int,
                    ) -> tuple[str, str]:
    """(component id, 'start' | 'end') owning a boundary point."""
    for comp in diagram.components:
        if comp.start and comp.start.side is side and comp.start.index == index:
            return comp.cid, "start"
        if comp.end and comp.end.side is side and comp.end.index == index:
            return comp.cid, "end"
    raise GlueError(f"no component uses boundary point {side.value}{index}")


def connect(upper: TangleDiagram, lower: TangleDiagram) -> GlueResult:
    """Stack ``upper`` above ``lower``.

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
    for k in range(1, a + 1):
        label = str(k)
        kinds[label] = Classical(1, "a")  # end_a sits on the first component
        first.append((label, "a"))
        second.append((label, "b"))
    for k in range(a + 1, a + b + 1):
        label = str(k)
        kinds[label] = Classical(-1, "b")
        first.append((label, "a"))
        second.append((label, "b"))
    specs = [("L1", None, None, first), ("L2", None, None, second)]
    return from_tokens(0, 0, specs, kinds)


def check_additivity(upper: TangleDiagram, lower: TangleDiagram,
                     glue: GlueResult, a: RationalLike, b: RationalLike,
                     ) -> dict[str, bool]:
    """Compare invariants of the connected sum against the sum of the
    inputs' invariants, after identifying glued variables."""
    glued, top, bottom = (invariant_report(d, a, b) for d in (glue.diagram, upper, lower))
    return compare_additivity(glue, glued, top, bottom)


def compare_additivity(glue: GlueResult, glued: InvariantReport, top: InvariantReport,
                       bottom: InvariantReport) -> dict[str, bool]:
    """``check_additivity`` on reports already computed, with the same
    ``a`` and ``b``, for the glued, upper and lower diagram."""
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
