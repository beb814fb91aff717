"""Spliced moves against the token-rebuild oracle, and the local checks of
a removal site."""

import random
from collections import Counter

import pytest

from tanglepoly import (
    MoveError,
    apply,
    link_with_linking_numbers,
    parse,
    random_walk,
    validate,
)
from tanglepoly import canonical, diagram as diagram_module, moves, reverse_component
from tanglepoly.moves import KinkInsert, KinkRemove, PairInsert, PairRemove
from helpers import (
    clasp,
    classical_trefoil,
    closed_triangle_knot,
    identity_braid,
    long_virtual_trefoil,
    positive_braid_triangle,
    random_diagram,
    singular_virtual_trefoil,
    virtual_trefoil,
)
from rebuild_oracle import apply_by_rebuild, walk_by_rebuild

EMPTY_LOOP = "tangle 0 0\ncomponent K closed\n"
# chord 1 is a kink across the basepoint (positions 5 and 0)
WRAPPED_KINK = "tangle 0 0\ncomponent K closed\nU1- O2+ O3+ U2+ U3+ O1-\n"
# over passages of 1 and 2 at positions 3 and 0: a pair across the basepoint
WRAPPED_PAIR = "tangle 0 0\ncomponent K closed\nO2- U1+ U2- O1+\n"


def _walk_starts() -> list:
    rng = random.Random(45)
    starts = [clasp(), virtual_trefoil(), long_virtual_trefoil(), classical_trefoil(),
              identity_braid(2), identity_braid(3), positive_braid_triangle(),
              closed_triangle_knot(), link_with_linking_numbers(2, 1),
              singular_virtual_trefoil(), parse(EMPTY_LOOP), parse(WRAPPED_KINK),
              parse(WRAPPED_PAIR)]
    while len(starts) < 45:
        starts.append(random_diagram(rng, max_components=3, max_chords=8,
                                     n_singular=rng.choice((0, 0, 1))))
    return starts


def test_walks_match_rebuild_oracle(monkeypatch):
    applied = []
    real_apply = moves.apply

    def spy(diagram, site):
        applied.append(site)
        return real_apply(diagram, site)

    monkeypatch.setattr(moves, "apply", spy)
    kinds = Counter()
    for seed, cap in enumerate((24, 12, 8, 6)):
        for number, start in enumerate(_walk_starts()):
            applied.clear()
            trail = random_walk(start, 30, seed=1000 * seed + number, cap=cap)
            want, sites = walk_by_rebuild(start, 30, 1000 * seed + number, cap)
            assert applied == [site for site in sites if site is not None]
            # == compares chord order and end naming too; repr pins the types
            assert trail == want, (seed, number)
            assert [repr(d) for d in trail] == [repr(d) for d in want]
            kinds.update(type(site).__name__ for site in applied)
    assert set(kinds) == {"KinkInsert", "KinkRemove", "PairInsert", "PairRemove",
                          "TriangleSlide"}, kinds


def test_splice_builds_without_tokens(monkeypatch):
    def refuse(*args):
        raise AssertionError("built from tokens")

    for owner in (diagram_module, moves):
        monkeypatch.setattr(owner, "component_tokens", refuse)
    monkeypatch.setattr(diagram_module, "from_tokens", refuse)
    applied = Counter()
    real_apply = moves.apply

    def spy(diagram, site):
        applied[type(site).__name__] += 1
        return real_apply(diagram, site)

    monkeypatch.setattr(moves, "apply", spy)
    for number, start in enumerate(_walk_starts()):
        for d in random_walk(start, 30, seed=number, cap=12):
            canonical(d)
            for comp in d.components:
                reverse_component(d, comp.cid)
    assert set(applied) == {"KinkInsert", "KinkRemove", "PairInsert", "PairRemove",
                            "TriangleSlide"}, applied


# the virtual trefoil has no removal site; with the kinks on it removed, a
# walk at cap 0 has no legal move left
DEAD_END_STARTS = ["tangle 0 0\ncomponent K closed\nO1+ O2+ U1+ U2+\n",
                   "tangle 0 0\ncomponent K closed\nO1+ O2+ Ok+ Uk+ U1+ U2+ Uj- Oj-\n"]


@pytest.mark.parametrize("text", DEAD_END_STARTS)
def test_walk_after_a_dead_step_matches_rebuild_oracle(text):
    start = parse(text)
    for seed in range(4):
        trail = random_walk(start, 50, seed=seed, cap=0)
        want, sites = walk_by_rebuild(start, 50, seed, 0)
        assert trail == want and [repr(d) for d in trail] == [repr(d) for d in want]
        # the repeats are the same object, as fuzz counts moves by identity
        assert ([trail[k] is trail[k - 1] for k in range(1, len(trail))]
                == [site is None for site in sites])
        assert sites[-1] is None


def test_walk_stops_scanning_after_a_dead_step(monkeypatch):
    calls = []
    all_gaps = moves._all_gaps

    def spy(diagram):
        calls.append(diagram)
        return all_gaps(diagram)

    monkeypatch.setattr(moves, "_all_gaps", spy)
    start = virtual_trefoil()
    trail = random_walk(start, 1000, seed=0, cap=0)
    assert len(trail) == 1001 and all(step is start for step in trail)
    assert len(calls) == 1


def _same_as_oracle(diagram, site):
    moved = apply(diagram, site)
    assert validate(moved) == []
    assert moved == apply_by_rebuild(diagram, site)
    assert repr(moved) == repr(apply_by_rebuild(diagram, site))
    return moved


@pytest.mark.parametrize("text, site", [
    # kink at gap 0, on a closed and on a long component
    (WRAPPED_KINK, KinkInsert("K", 0, 1, "a")),
    (WRAPPED_KINK, KinkInsert("K", 0, -1, "b")),
    (long_virtual_trefoil, KinkInsert("K", 0, 1, "b")),
    # kink at the end of a long component
    (long_virtual_trefoil, KinkInsert("K", 4, -1, "a")),
    (clasp, KinkInsert("A", 2, 1, "b")),
    # kink on an empty closed component, alone and after another component
    (EMPTY_LOOP, KinkInsert("K", 0, 1, "a")),
    ("tangle 1 1\ncomponent A long T1:in B1:out\nO1+ U1+\ncomponent K closed\n",
     KinkInsert("K", 0, -1, "b")),
])
def test_kink_insert_cases(text, site):
    diagram = text() if callable(text) else parse(text)
    moved = _same_as_oracle(diagram, site)
    assert len(moved.chords) == len(diagram.chords) + 1


@pytest.mark.parametrize("over_gap, under_gap", [
    # both gaps on one component, in both orders; the second order puts the
    # under passages first, so the new chords' ends are renamed
    (("K", 1), ("K", 3)),
    (("K", 3), ("K", 1)),
    (("K", 0), ("K", 1)),
    (("K", 3), ("K", 0)),
])
@pytest.mark.parametrize("antiparallel", [False, True])
@pytest.mark.parametrize("lead_sign", [1, -1])
def test_pair_insert_one_component(over_gap, under_gap, antiparallel, lead_sign):
    _same_as_oracle(virtual_trefoil(), PairInsert(over_gap, under_gap, lead_sign,
                                                  antiparallel))


@pytest.mark.parametrize("site", [
    # under gap on an earlier component than the over gap
    PairInsert(("B", 1), ("A", 0), 1, False),
    PairInsert(("B", 2), ("A", 2), -1, True),
    PairInsert(("A", 1), ("B", 0), 1, True),
])
def test_pair_insert_across_components(site):
    _same_as_oracle(clasp(), site)


def test_under_first_pair_flips_its_ends():
    moved = apply(virtual_trefoil(), PairInsert(("K", 3), ("K", 1), 1, False))
    new = [c for c in moved.chords if c.label not in {"1", "2"}]
    # both new chords meet their under passage first: it becomes end_a
    assert all(c.kind.over == "b" for c in new)
    assert [c.kind.sign for c in new] == [1, -1]


@pytest.mark.parametrize("text, site", [
    (WRAPPED_KINK, KinkRemove("1")),
    (WRAPPED_PAIR, PairRemove("1", "2")),
    ("tangle 1 1\ncomponent K long T1:in B1:out\nO1+ O2+ U2+ O3+ U1+ U3+\n",
     KinkRemove("2")),
    ("tangle 0 0\ncomponent K closed\nO1+ O2- U3+ O3+\ncomponent L closed\nU2- U1+\n",
     PairRemove("1", "2")),
])
def test_removal_cases(text, site):
    diagram = parse(text)
    moved = _same_as_oracle(diagram, site)
    assert {c.label for c in moved.chords} < {c.label for c in diagram.chords}


@pytest.mark.parametrize("text, site", [
    # a label that is gone
    (WRAPPED_KINK, KinkRemove("9")),
    (WRAPPED_PAIR, PairRemove("9", "2")),
    (WRAPPED_PAIR, PairRemove("1", "9")),
    # the pair in reverse order
    (WRAPPED_PAIR, PairRemove("2", "1")),
    # a pair whose passages are not adjacent
    ("tangle 0 0\ncomponent K closed\nO1+ U2- O2- U1+\n", PairRemove("1", "2")),
    ("tangle 0 0\ncomponent K closed\nO1+ O2- U1+ O3+ U2- U3+\n", PairRemove("1", "2")),
    # a chord whose passages are not adjacent
    ("tangle 0 0\ncomponent K closed\nO1+ O2+ U1+ U2+\n", KinkRemove("1")),
    # a singular chord
    ("tangle 0 0\ncomponent K closed\nS1+ S1+ O2+ U2+\n", KinkRemove("1")),
    ("tangle 0 0\ncomponent K closed\nO1+ S2- U1+ S2-\n", PairRemove("1", "2")),
    # the same label twice
    (WRAPPED_PAIR, PairRemove("1", "1")),
    (WRAPPED_PAIR, PairRemove("2", "2")),
])
def test_stale_removal_sites_raise(text, site):
    diagram = parse(text)
    with pytest.raises(MoveError):
        apply(diagram, site)
    with pytest.raises(MoveError):
        apply_by_rebuild(diagram, site)
