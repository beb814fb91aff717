"""Move rewrites: site enumeration, insert/remove round trips, the triangle
slide, and invariance of every invariant under every move."""

import itertools
import random
from collections import Counter

import pytest

from tanglepoly import (
    MoveError,
    MoveKind,
    apply,
    enumerate_sites,
    equal_diagrams,
    invariant_report,
    link_with_linking_numbers,
    parse,
    random_walk,
    self_crossing_polynomial,
    validate,
)
from tanglepoly import moves
from tanglepoly.moves import KinkInsert, PairInsert, PairRemove, TriangleSlide, _triangle_pairs
from helpers import (
    clasp,
    closed_triangle_knot,
    identity_braid,
    poly,
    positive_braid_triangle,
    random_diagram,
    virtual_trefoil,
)
from rebuild_oracle import kink_remove_sites, pair_remove_sites, triangle_sites


def test_kink_insert_sites_on_bare_unknot():
    unknot = parse("tangle 0 0\ncomponent K closed\n")
    sites = enumerate_sites(unknot, MoveKind.KINK_INSERT)
    assert len(sites) == 4  # one gap, sign x over-choice


def test_kink_remove_single_site():
    d = parse("tangle 1 1\ncomponent K long T1:in B1:out\nO1+ U1+ O2+ U3+ U2+ O3+\n")
    sites = enumerate_sites(d, MoveKind.KINK_REMOVE)
    assert [site.label for site in sites] == ["1"]


def test_kink_insert_remove_round_trip():
    rng = random.Random(3)
    for _ in range(20):
        d = random_diagram(rng, max_components=3, max_chords=6)
        for site in enumerate_sites(d, MoveKind.KINK_INSERT)[:6]:
            grown = apply(d, site)
            assert validate(grown) == []
            removals = [s for s in enumerate_sites(grown, MoveKind.KINK_REMOVE)
                        if not any(c.label == s.label for c in d.chords)]
            assert removals
            assert equal_diagrams(apply(grown, removals[0]), d)


def test_clasp_has_no_pair_removal():
    assert enumerate_sites(clasp(), MoveKind.PAIR_REMOVE) == []


def test_pair_insert_site_count_identity_braid():
    braid = identity_braid(2)
    sites = enumerate_sites(braid, MoveKind.PAIR_INSERT)
    assert len(sites) == 8  # 2 ordered gap pairs x sign x order variant


def test_pair_insert_remove_round_trip():
    rng = random.Random(9)
    for _ in range(15):
        d = random_diagram(rng, max_components=3, max_chords=6)
        sites = enumerate_sites(d, MoveKind.PAIR_INSERT)
        if not sites:
            continue
        for site in sites[:: max(1, len(sites) // 5)]:
            grown = apply(d, site)
            assert validate(grown) == []
            new_labels = {c.label for c in grown.chords} - {c.label for c in d.chords}
            removals = [
                s for s in enumerate_sites(grown, MoveKind.PAIR_REMOVE)
                if {s.first, s.second} == new_labels
            ]
            assert removals, (site, new_labels)
            assert equal_diagrams(apply(grown, removals[0]), d)


def test_triangle_slide_on_braid():
    braid = positive_braid_triangle()
    sites = enumerate_sites(braid, MoveKind.TRIANGLE_SLIDE)
    assert sites == [TriangleSlide("X", "Y", "Z", forward=True)]
    slid = apply(braid, sites[0])
    assert validate(slid) == []
    assert invariant_report(slid, 1, 2) == invariant_report(braid, 1, 2)
    back = enumerate_sites(slid, MoveKind.TRIANGLE_SLIDE)
    assert back == [TriangleSlide("X", "Y", "Z", forward=False)]
    assert equal_diagrams(apply(slid, back[0]), braid)


def test_triangle_slide_single_component():
    knot = closed_triangle_knot()
    assert self_crossing_polynomial(knot) == poly(1, {(1,): 2, (0,): -2})
    sites = enumerate_sites(knot, MoveKind.TRIANGLE_SLIDE)
    assert len(sites) == 1
    slid = apply(knot, sites[0])
    assert self_crossing_polynomial(slid) == poly(1, {(1,): 2, (0,): -2})
    assert equal_diagrams(apply(slid, enumerate_sites(slid, MoveKind.TRIANGLE_SLIDE)[0]),
                          knot)


def test_every_move_preserves_invariants():
    rng = random.Random(17)
    seeds = [clasp(), virtual_trefoil(), positive_braid_triangle(),
             closed_triangle_knot(), link_with_linking_numbers(2, 1)]
    seeds += [random_diagram(rng, max_components=3, max_chords=7) for _ in range(8)]
    for d in seeds:
        baseline = invariant_report(d, 1, 2)
        for kind in MoveKind:
            sites = enumerate_sites(d, kind)
            step = max(1, len(sites) // 8)
            for site in sites[::step]:
                assert invariant_report(apply(d, site), 1, 2) == baseline, (kind, site)


def test_stale_sites_raise():
    d = virtual_trefoil()
    with pytest.raises(MoveError):
        apply(d, KinkInsert("missing", 0, 1, "a"))
    with pytest.raises(MoveError):
        apply(d, KinkInsert("K", 99, 1, "a"))
    with pytest.raises(MoveError):
        apply(d, PairInsert(("K", 0), ("K", 0), 1, False))
    with pytest.raises(MoveError):
        apply(d, TriangleSlide("1", "2", "3", True))
    from tanglepoly.moves import KinkRemove, PairRemove
    with pytest.raises(MoveError):
        apply(d, KinkRemove("1"))  # endpoints are not adjacent
    with pytest.raises(MoveError):
        apply(d, PairRemove("1", "2"))


def test_walk_zero_steps():
    d = clasp()
    assert random_walk(d, 0, seed=5) == [d]


def test_walk_deterministic():
    d = virtual_trefoil()
    first = random_walk(d, 60, seed=99)
    second = random_walk(d, 60, seed=99)
    assert first == second
    other = random_walk(d, 60, seed=100)
    assert other != first


def test_walk_respects_cap():
    d = clasp()
    for step in random_walk(d, 150, seed=3, cap=10):
        assert len(step.chords) <= 10


def test_walk_on_empty_diagram():
    empty = parse("tangle 0 0\n")
    trail = random_walk(empty, 5, seed=0)
    assert len(trail) == 6
    assert all(step == empty for step in trail)


def test_walk_preserves_invariants_smoke():
    d = link_with_linking_numbers(1, 2)
    baseline = invariant_report(d, 1, 2)
    for step in random_walk(d, 100, seed=21):
        assert validate(step) == []
        assert invariant_report(step, 1, 2) == baseline


def _follows(comp, first, second):
    """Position ``second`` comes right after ``first`` on the component."""
    size = len(comp.visits)
    if comp.is_closed:
        return size > 1 and second == (first + 1) % size
    return second == first + 1


def _site_inputs():
    rng = random.Random(73)
    inputs = [positive_braid_triangle(), closed_triangle_knot()]
    # over pairs across the basepoint of a closed component
    inputs += [parse("tangle 0 0\ncomponent K closed\nO2- U1+ U2- O1+\n"),
               parse("tangle 0 0\ncomponent K closed\nOY+ UX+ OZ+ UY+ UZ+ OX+\n")]
    for start in (positive_braid_triangle(), closed_triangle_knot(), virtual_trefoil()):
        for seed in (5, 6, 7):
            inputs += random_walk(start, 40, seed=seed, cap=12)[1::2]
    inputs += [random_diagram(rng, max_components=3, max_chords=9) for _ in range(40)]
    return inputs


def test_pair_remove_sites_complete():
    found = 0
    for d in _site_inputs():
        classical = [c for c in d.chords if c.is_classical]
        expected = set()
        for c1, c2 in itertools.permutations(classical, 2):
            o1, o2 = c1.over_endpoint(), c2.over_endpoint()
            u1, u2 = c1.under_endpoint(), c2.under_endpoint()
            if (o1.component == o2.component
                    and _follows(d.component(o1.component), o1.position, o2.position)
                    and c1.kind.sign == -c2.kind.sign
                    and u1.component == u2.component
                    and (_follows(d.component(u1.component), u1.position, u2.position)
                         or _follows(d.component(u1.component), u2.position, u1.position))):
                expected.add(PairRemove(c1.label, c2.label))
        sites = enumerate_sites(d, MoveKind.PAIR_REMOVE)
        assert len(sites) == len(set(sites))
        assert set(sites) == expected
        found += len(sites)
    assert found >= 10


def test_triangle_sites_complete():
    found = 0
    for d in _site_inputs():
        expected = {
            TriangleSlide(x.label, y.label, z.label, forward)
            for x, y, z in itertools.permutations(d.chords, 3)
            for forward in (True, False)
            if _triangle_pairs(d, x, y, z, forward) is not None
        }
        sites = enumerate_sites(d, MoveKind.TRIANGLE_SLIDE)
        assert len(sites) == len(set(sites))
        assert set(sites) == expected
        found += len(sites)
    assert found >= 10


def _positive_braid(strands, word):
    """Positive braid, not closed: generator i crosses the strand at place i
    over the one at place i + 1, so each i, i + 1, i in the word makes a
    triangle site."""
    passages = [[] for _ in range(strands)]
    place = list(range(strands))  # strand at each place
    for label, i in enumerate(word, 1):
        left, right = place[i - 1], place[i]
        passages[left].append(f"O{label}+")
        passages[right].append(f"U{label}+")
        place[i - 1], place[i] = right, left
    bottom = {strand: at + 1 for at, strand in enumerate(place)}
    lines = [f"tangle {strands} {strands}"]
    for strand in range(strands):
        lines.append(f"component s{strand + 1} long T{strand + 1}:in B{bottom[strand]}:out")
        lines.append(" ".join(passages[strand]))
    return parse("\n".join(lines) + "\n")


def test_one_scan_matches_rebuild_oracle():
    rng = random.Random(79)
    starts = [positive_braid_triangle(), closed_triangle_knot(), virtual_trefoil(),
              clasp(), identity_braid(3),
              # a pair and a triangle across a closed component's basepoint
              parse("tangle 0 0\ncomponent K closed\nO2- U1+ U2- O1+\n"),
              parse("tangle 0 0\ncomponent K closed\nOY+ UX+ OZ+ UY+ UZ+ OX+\n")]
    for strands, triples in ((3, 3), (4, 4), (4, 6), (5, 6)):
        word = []
        for _ in range(triples):
            i = rng.randint(1, strands - 2)
            word += [i, i + 1, i]
        starts.append(_positive_braid(strands, word))
    starts += [random_diagram(rng, max_components=4, max_chords=10) for _ in range(15)]
    found = Counter()
    for number, start in enumerate(starts):
        for cap in (8, 24):
            for d in random_walk(start, 40, seed=97 * number + cap, cap=cap):
                want = (kink_remove_sites(d), pair_remove_sites(d), triangle_sites(d))
                assert moves._removal_sites(d) == want
                assert [enumerate_sites(d, kind) for kind in (
                    MoveKind.KINK_REMOVE, MoveKind.PAIR_REMOVE,
                    MoveKind.TRIANGLE_SLIDE)] == list(want)
                found.update({kind: len(sites) for kind, sites in zip("kpt", want)})
    assert min(found.values()) >= 1000, found
