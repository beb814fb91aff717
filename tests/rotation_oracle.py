"""Slow references for the canonical basepoint of a closed component and
for diagram equality.

``canonical`` picks each closed component's basepoint by a rule read off
its smallest chord label.  This module keeps the search that rule replaces,
as a test oracle: build the local canonical key of every rotation and keep
the smallest, O(V^2) per component.

``equal_diagrams`` compares canonical forms and nothing else.  It used to
reject on cheaper differences first; ``equal_diagrams_by_prechecks`` keeps
that version as its oracle.
"""

from __future__ import annotations

from typing import Sequence

from tanglepoly import TangleDiagram, canonical
from tanglepoly.diagram import Component, Token, _flip_kind, _kind_key, component_tokens
from rebuild_oracle import kind_map, rebuild


def _best_rotation(diagram: TangleDiagram, comp: Component,
                   tokens: Sequence[Token]) -> int:
    """Rotation of a closed component minimizing its local canonical key.

    The key re-derives end tags as they would be assigned after the
    rotation: a self-chord's first passage becomes 'a' (flipping the kind
    along), while a chord shared with another component keeps a tag that
    does not depend on this rotation.  All tokens are distinct, so ties can
    only occur between rotations producing identical local structure.
    """
    chord_by_label = {c.label: c for c in diagram.chords}
    n = len(tokens)
    best_r = 0
    best_key: tuple | None = None
    for r in range(n):
        rotated = [tokens[(r + i) % n] for i in range(n)]
        first_seen: dict[str, int] = {}
        key = []
        for i, (label, tag) in enumerate(rotated):
            chord = chord_by_label[label]
            self_chord = chord.end_a.component == chord.end_b.component == comp.cid
            if self_chord:
                if label not in first_seen:
                    first_seen[label] = i
                    # tag renamed to 'a'; kind flipped if stored end_a is not
                    # the passage now seen first
                    kind = chord.kind if tag == "a" else _flip_kind(chord.kind)
                    key.append((label, "a", _kind_key(kind)))
                else:
                    key.append((label, "b", None))
            else:
                key.append((label, tag, _kind_key(chord.kind)))
        key_t = tuple(key)
        if best_key is None or key_t < best_key:
            best_key = key_t
            best_r = r
    return best_r


def canonical_by_search(diagram: TangleDiagram) -> TangleDiagram:
    """``canonical`` with every closed component rotated by the search."""
    tokens = component_tokens(diagram)
    for comp in diagram.components:
        if comp.is_closed and len(comp.visits) > 1:
            r = _best_rotation(diagram, comp, tokens[comp.cid])
            if r:
                row = tokens[comp.cid]
                tokens[comp.cid] = row[r:] + row[:r]
    return rebuild(diagram, tokens, kind_map(diagram))


def equal_diagrams_by_prechecks(left: TangleDiagram, right: TangleDiagram) -> bool:
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
