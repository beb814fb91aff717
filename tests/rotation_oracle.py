"""Slow reference for the canonical basepoint of a closed component.

``canonical`` picks each closed component's basepoint by a rule read off
its smallest chord label.  This module keeps the search that rule replaces,
as a test oracle: build the local canonical key of every rotation and keep
the smallest, O(V^2) per component.
"""

from __future__ import annotations

from typing import Sequence

from tanglepoly import TangleDiagram
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
