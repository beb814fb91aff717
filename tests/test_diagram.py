"""Diagram model: value constructors, validation, equality up to rotation,
orientation reversal."""

import inspect
import random
from dataclasses import make_dataclass

import pytest

from tanglepoly import (
    BoundaryPoint,
    Chord,
    Classical,
    Component,
    DiagramError,
    Endpoint,
    Side,
    Singular,
    TangleDiagram,
    canonical,
    equal_diagrams,
    from_tokens,
    parse,
    reverse_component,
    validate,
)
from tanglepoly.diagram import _flip_kind, _set, _Value, component_tokens
from helpers import clasp, random_diagram, virtual_trefoil
from rebuild_oracle import from_tokens_reference


def codes(violations):
    return {v.code for v in violations}


def _parameters(cls) -> list:
    return [(p.name, p.kind, p.default) for p in inspect.signature(cls).parameters.values()]


def test_value_constructor_is_generated_from_fields():
    fields = ("x", "y", "z")
    point = type("Point", (_Value,), {"__slots__": fields, "_fields": fields})
    twin = make_dataclass("Point", fields, frozen=True)
    value = point(1, 2, 3)
    assert (value.x, value.y, value.z) == (1, 2, 3)
    assert point(1, z=3, y=2) == point(x=1, y=2, z=3) == value
    assert _parameters(point) == _parameters(twin)
    assert point.__init__.__qualname__ == "Point.__init__"
    # the arity errors read as the dataclass's do
    for args, kwargs in (((1, 2), {}), ((), {}), ((1, 2, 3, 4), {}), ((1, 2, 3), {"w": 4}),
                         ((1, 2), {"x": 1})):
        with pytest.raises(TypeError) as ours:
            point(*args, **kwargs)
        with pytest.raises(TypeError) as theirs:
            twin(*args, **kwargs)
        assert str(ours.value) == str(theirs.value)


def test_value_keeps_its_own_constructor():
    class Pair(_Value):
        __slots__ = _fields = ("a", "b")

        def __init__(self, a, b=0):
            _set(self, "a", a)
            _set(self, "b", b)

    assert Pair(1) == Pair(1, 0) == Pair(a=1, b=0)
    either = inspect.Parameter.POSITIONAL_OR_KEYWORD
    assert _parameters(Pair) == [("a", either, inspect.Parameter.empty), ("b", either, 0)]
    assert Component("K", ()) == Component("K", (), None, None)


def test_empty_diagram_is_valid():
    assert validate(TangleDiagram(0, 0, (), ())) == []


def test_clasp_is_valid():
    assert validate(clasp()) == []


def test_dangling_chord_violation():
    # visit list mentions a label no chord endpoint covers
    comp = Component("K", ("1", "1", "2"))
    chord = Chord("1", Endpoint("K", 0), Endpoint("K", 1), Classical(1, "a"))
    d = TangleDiagram(0, 0, (comp,), (chord,))
    found = validate(d)
    assert "dangling-chord" in codes(found)
    assert any("2" in v.message for v in found)


def test_duplicate_labels_and_ids():
    comp_a = Component("K", ("1", "1"))
    comp_b = Component("K", ())
    chord = Chord("1", Endpoint("K", 0), Endpoint("K", 1), Classical(1, "a"))
    assert "duplicate-component" in codes(validate(
        TangleDiagram(0, 0, (comp_a, comp_b), (chord,))))


def test_coincident_endpoints():
    comp = Component("K", ("1", "1"))
    chord = Chord("1", Endpoint("K", 0), Endpoint("K", 0), Classical(1, "a"))
    assert "coincident-endpoints" in codes(validate(TangleDiagram(0, 0, (comp,), (chord,))))


def test_boundary_violations():
    start = BoundaryPoint(Side.TOP, 1)
    end = BoundaryPoint(Side.BOTTOM, 3)
    comp = Component("A", (), start, end)
    found = validate(TangleDiagram(1, 1, (comp,), ()))
    assert "boundary-range" in codes(found)
    assert "boundary-unused" in codes(found)


def test_visit_mismatch():
    comp = Component("K", ("1", "2"))
    chords = (
        Chord("1", Endpoint("K", 0), Endpoint("K", 1), Classical(1, "a")),
    )
    assert "visit-mismatch" in codes(validate(TangleDiagram(0, 0, (comp,), chords)))


def test_position_out_of_range():
    comp = Component("K", ("1",))
    chords = (
        Chord("1", Endpoint("K", 0), Endpoint("K", 7), Classical(1, "a")),
    )
    assert "position-range" in codes(validate(TangleDiagram(0, 0, (comp,), chords)))


def test_canonical_idempotent():
    from tanglepoly import canonical

    rng = random.Random(47)
    for _ in range(20):
        d = random_diagram(rng, max_components=3, max_chords=8,
                           n_singular=rng.randint(0, 1))
        once = canonical(d)
        assert canonical(once) == once
        assert equal_diagrams(once, d)


def test_equality_reflexive_and_rotation():
    d = virtual_trefoil()
    assert equal_diagrams(d, d)
    rotated = parse("tangle 0 0\ncomponent K closed\nO2+ U1+ U2+ O1+\n")
    assert equal_diagrams(d, rotated)
    rotated3 = parse("tangle 0 0\ncomponent K closed\nU2+ O1+ O2+ U1+\n")
    assert equal_diagrams(d, rotated3)


def test_equality_detects_sign_flip():
    d = virtual_trefoil()
    flipped = parse("tangle 0 0\ncomponent K closed\nO1- O2+ U1- U2+\n")
    assert not equal_diagrams(d, flipped)


def test_equality_long_components_not_rotated():
    d = parse("tangle 1 1\ncomponent K long T1:in B1:out\nO1+ U1+\n")
    other = parse("tangle 1 1\ncomponent K long T1:in B1:out\nU1+ O1+\n")
    assert not equal_diagrams(d, other)


def test_rotation_equality_on_kink_circle():
    # a single chord on a two-visit circle: both rotations are the same kink
    a = parse("tangle 0 0\ncomponent K closed\nO1+ U1+\n")
    b = parse("tangle 0 0\ncomponent K closed\nU1+ O1+\n")
    assert equal_diagrams(a, b)


def _changed(rng, d):
    """``d`` after one random change of the kind the old pre-checks looked
    for, or after a rotation, a sign flip or a reshuffle, rebuilt through
    ``from_tokens``; an independent diagram one time in ten."""
    if rng.random() < 0.1:
        return random_diagram(rng, max_components=4, max_chords=12,
                              n_singular=rng.randint(0, 2))
    tokens = component_tokens(d)
    specs = [[c.cid, c.start, c.end, tokens[c.cid]] for c in d.components]
    kinds = {c.label: c.kind for c in d.chords}
    spec = rng.choice(specs)
    change = rng.choice(("rotate", "add", "rename", "swap", "boundary", "move",
                         "relabel", "flip", "shuffle"))
    if change == "rotate":
        for other in specs:
            if other[1] is None and other[3]:
                r = rng.randrange(len(other[3]))
                other[3] = other[3][r:] + other[3][:r]
    elif change == "add":
        specs.insert(rng.randint(0, len(specs)), ["extra", None, None, []])
    elif change == "rename":
        spec[0] = "renamed"
    elif change == "swap":
        i, j = rng.randrange(len(specs)), rng.randrange(len(specs))
        specs[i], specs[j] = specs[j], specs[i]
    elif change == "boundary" and spec[1] is not None:
        start, end = spec[1], spec[2]
        spec[1], spec[2] = end, start
    elif change == "move" and spec[3]:
        token = spec[3].pop(rng.randrange(len(spec[3])))
        target = rng.choice(specs)[3]
        target.insert(rng.randint(0, len(target)), token)
    elif change == "relabel" and kinds:
        label = rng.choice(sorted(kinds))
        kinds["x" + label] = kinds.pop(label)
        for other in specs:
            other[3] = [("x" + l if l == label else l, tag) for l, tag in other[3]]
    elif change == "flip" and kinds:
        label = rng.choice(sorted(kinds))
        kind = kinds[label]
        kinds[label] = (Classical(-kind.sign, kind.over) if isinstance(kind, Classical)
                        else Singular(-kind.frame))
    elif change == "shuffle":
        rng.shuffle(spec[3])
    return from_tokens(d.top, d.bottom, specs, kinds)


def _first_difference(left, right):
    """The old pre-check that told ``left`` and ``right`` apart first, or
    whether their canonical forms agree when none did."""
    if left == right:
        return "identical"
    if (left.top, left.bottom) != (right.top, right.bottom):
        return "top/bottom"
    if len(left.components) != len(right.components):
        return "component count"
    for lc, rc in zip(left.components, right.components):
        for name, l, r in (("id", lc.cid, rc.cid),
                           ("boundary point", (lc.start, lc.end), (rc.start, rc.end)),
                           ("visit count", len(lc.visits), len(rc.visits))):
            if l != r:
                return name
    if {c.label for c in left.chords} != {c.label for c in right.chords}:
        return "label set"
    return "canonical, equal" if canonical(left) == canonical(right) else "canonical, unequal"


def test_equality_matches_prechecks_oracle():
    from rotation_oracle import equal_diagrams_by_prechecks

    rng = random.Random(1019)
    seen: dict[str, int] = {}
    for _ in range(3000):
        d = random_diagram(rng, max_components=4, max_chords=12,
                           n_singular=rng.randint(0, 2))
        pair = [d, _changed(rng, d)]
        rng.shuffle(pair)
        assert validate(pair[0]) == validate(pair[1]) == []
        for left, right in (pair, (d, d)):
            assert equal_diagrams(left, right) == equal_diagrams_by_prechecks(left, right), pair
        reason = _first_difference(*pair)
        seen[reason] = seen.get(reason, 0) + 1
    # every way the old function returned, each taken many times
    assert len(seen) == 9 and min(seen.values()) >= 50, seen


def _unnormalised(rng, diagram):
    """``diagram`` as a hand-built one may come: its chords shuffled, and
    some chords' ends swapped with the kind flipped to match."""
    chords = [Chord(c.label, c.end_b, c.end_a, _flip_kind(c.kind)) if rng.random() < 0.5 else c
              for c in diagram.chords]
    rng.shuffle(chords)
    return TangleDiagram(diagram.top, diagram.bottom, diagram.components, tuple(chords))


def test_reverse_twice_is_identity():
    from rebuild_oracle import reverse_by_rebuild

    rng = random.Random(11)
    for _ in range(400):
        d = random_diagram(rng, max_components=4, max_chords=12,
                           n_singular=rng.randint(0, 2))
        for start in (d, _unnormalised(rng, d)):
            cid = rng.choice([comp.cid for comp in start.components])
            once = reverse_component(start, cid)
            assert equal_diagrams(reverse_component(once, cid), start)
            # the splice normalises as a rebuild from tokens does
            assert once == reverse_by_rebuild(start, cid), start
            assert repr(once) == repr(reverse_by_rebuild(start, cid))


def test_reverse_unknown_component():
    with pytest.raises(DiagramError):
        reverse_component(clasp(), "nope")


def test_reverse_flips_cross_component_signs():
    d = clasp()
    rev = reverse_component(d, "B")
    # recompute the linking numbers from first principles on the result
    def vlk_by_definition(diagram, over_cid, other_cid):
        total = 0
        for chord in diagram.chords:
            comps = {chord.end_a.component, chord.end_b.component}
            if comps == {over_cid, other_cid} and chord.over_endpoint().component == over_cid:
                total += chord.kind.sign
        return total

    assert vlk_by_definition(d, "A", "B") == 1
    assert vlk_by_definition(d, "B", "A") == 1
    assert vlk_by_definition(rev, "A", "B") == -1
    assert vlk_by_definition(rev, "B", "A") == -1


def test_reverse_swaps_long_boundary():
    d = clasp()
    rev = reverse_component(d, "A")
    comp = rev.component("A")
    assert comp.start == BoundaryPoint(Side.BOTTOM, 1)
    assert comp.end == BoundaryPoint(Side.TOP, 1)


def test_reverse_flips_singular_frame():
    # singular chord joining two components
    specs = [("A", None, None, [("1", "a")]), ("B", None, None, [("1", "b")])]
    d = from_tokens(0, 0, specs, {"1": Singular(1)})
    rev = reverse_component(d, "B")
    assert rev.chord("1").kind == Singular(-1)


def test_endpoint_count_property():
    rng = random.Random(5)
    for _ in range(30):
        d = random_diagram(rng, max_components=4, max_chords=12,
                           n_singular=rng.randint(0, 2))
        assert validate(d) == []
        total_visits = sum(len(c.visits) for c in d.components)
        assert total_visits == 2 * len(d.chords)


def test_lookups_keep_the_first_match():
    # a malformed diagram with a repeated label and component id, built
    # without validation: lookups return the first, as a scan would
    end = Endpoint("K", 0)
    first = Chord("1", end, Endpoint("K", 1), Classical(1, "a"))
    second = Chord("1", Endpoint("K", 2), Endpoint("K", 3), Classical(-1, "b"))
    comps = (Component("K", ("1", "1", "1", "1")), Component("K", ()))
    d = TangleDiagram(0, 0, comps, (first, second))
    assert d.chord("1") is first
    assert d.component("K") is comps[0]
    with pytest.raises(DiagramError, match="unknown chord '2'"):
        d.chord("2")
    with pytest.raises(DiagramError, match="unknown component 'L'"):
        d.component("L")
    # the index is not part of the value
    assert d == TangleDiagram(0, 0, comps, (first, second))
    assert repr(d) == repr(TangleDiagram(0, 0, comps, (first, second)))


# (token rows, one closed component each; the labels that are given a kind)
MALFORMED_TOKENS = [
    ([[("1", "a")]], "1"),
    ([[("1", "a"), ("1", "a")]], "1"),
    # a bad end tag, a doubled end on two components, a missing kind
    ([[("1", "a"), ("1", "c")]], "1"),
    ([[("1", "b")], [("2", "a"), ("2", "b"), ("1", "b")]], "12"),
    ([[("1", "a"), ("2", "a"), ("2", "b"), ("1", "b")]], "1"),
    # two faults: the rows are read before any chord is placed, and chords
    # are placed in the order their labels first appear
    ([[("1", "a")], [("2", "x"), ("2", "b")]], "12"),
    ([[("1", "a"), ("2", "b")], [("2", "b"), ("1", "b")]], "12"),
    ([[("2", "a"), ("1", "a"), ("2", "b")]], "1"),
    ([[("2", "a"), ("1", "a"), ("2", "b"), ("1", "b")]], "1"),
    ([[("2", "b"), ("1", "a"), ("2", "a"), ("1", "b")]], "1"),
]


def test_from_tokens_rejects_incomplete_chords():
    for rows, labels in MALFORMED_TOKENS:
        specs = [(f"K{i}", None, None, row) for i, row in enumerate(rows)]
        kinds = {label: Classical(1, "a") for label in labels}
        with pytest.raises(DiagramError) as want:
            from_tokens_reference(0, 0, specs, kinds)
        with pytest.raises(DiagramError) as got:
            from_tokens(0, 0, specs, kinds)
        assert str(got.value) == str(want.value), rows


def test_from_tokens_rejects_a_repeated_component_id():
    specs = [("K", None, None, [("1", "a")]), ("K", None, None, [("1", "b")])]
    with pytest.raises(DiagramError, match="component id 'K' repeated"):
        from_tokens(0, 0, specs, {"1": Classical(1, "a")})
    # rows keyed by id cannot hold it; before any token is read
    specs = [("K", None, None, []), ("L", None, None, [("1", "x")]), ("K", None, None, [])]
    with pytest.raises(DiagramError, match="component id 'K' repeated"):
        from_tokens(0, 0, specs, {})


def _token_input(rng, components, longs, chords, singular):
    """Shuffled token rows of ``chords`` chords on ``components`` components,
    the first ``longs`` of them strands from top point i to bottom point i;
    labels 1..singular are singular chords.  Kinds name one extra label."""
    rows: list[list] = [[] for _ in range(components)]
    kinds = {}
    for k in range(1, chords + 2):
        kinds[str(k)] = (Singular(rng.choice((1, -1))) if k <= singular
                         else Classical(rng.choice((1, -1)), rng.choice(("a", "b"))))
        if k <= chords:
            for tag in ("a", "b"):
                rows[rng.randrange(components)].append((str(k), tag))
    for row in rows:
        rng.shuffle(row)
    specs = [(f"C{i + 1}",
              BoundaryPoint(Side.TOP, i + 1) if i < longs else None,
              BoundaryPoint(Side.BOTTOM, i + 1) if i < longs else None,
              row) for i, row in enumerate(rows)]
    return longs, longs, specs, kinds


def test_from_tokens_matches_reference():
    rng = random.Random(12)
    flipped = 0
    for trial in range(300):
        components = rng.randint(1, 5)
        longs = rng.randint(0, components) if trial % 3 else 0
        chords = rng.choice((0, 1, 2, 5, 12, 40, 150))
        singular = rng.randint(0, min(chords, 3))
        args = _token_input(rng, components, longs, chords, singular)
        got, want = from_tokens(*args), from_tokens_reference(*args)
        assert got == want and repr(got) == repr(want), trial
        assert validate(got) == []
        # a chord met at its 'b' end first is renamed, so its kind flips
        flipped += sum(1 for chord in got.chords if chord.kind != args[3][chord.label])
    assert flipped > 1000


def _closed_link(rng, components, chords, singular):
    """``chords`` chords spread over closed components; labels 1..singular
    are singular chords."""
    rows: list[list] = [[] for _ in range(components)]
    kinds = {}
    for k in range(1, chords + 1):
        kinds[str(k)] = (Singular(rng.choice((1, -1))) if k <= singular
                         else Classical(rng.choice((1, -1)), rng.choice(("a", "b"))))
        for tag in ("a", "b"):
            rows[rng.randrange(components)].append((str(k), tag))
    for row in rows:
        rng.shuffle(row)
    specs = [(f"K{i + 1}", None, None, row) for i, row in enumerate(rows)]
    return from_tokens(0, 0, specs, kinds)


CANONICAL_NAMED = [
    # two-visit kink circle, both basepoints and both signs
    "tangle 0 0\ncomponent K closed\nO1+ U1+\n",
    "tangle 0 0\ncomponent K closed\nU1- O1-\n",
    # smallest label on a chord shared with another component
    "tangle 0 0\ncomponent A closed\nO2+ U3- O1+ O3- U2+\ncomponent B closed\nO4+ U1+ U4+\n",
    "tangle 0 0\ncomponent A closed\nO3+ U1- O2+ U3+ U2+\ncomponent B closed\nO1-\n",
    # smallest label on a singular self-chord, once with each frame
    "tangle 0 0\ncomponent K closed\nO2+ S1+ U2+ S1+ O3- U3-\n",
    "tangle 0 0\ncomponent K closed\nO2+ S1- U2+ S1- O3- U3-\n",
]


def test_canonical_matches_rotation_search():
    from tanglepoly import canonical
    from rotation_oracle import canonical_by_search

    rng = random.Random(4096)
    inputs = [parse(text) for text in CANONICAL_NAMED]
    for i in range(2400):
        inputs.append(random_diagram(rng, max_components=4, max_chords=12,
                                     n_singular=rng.randint(0, 3),
                                     allow_long=i % 2 == 1))
    small = len(inputs)
    inputs += [_closed_link(rng, 4, 800, singular) for singular in (0, 1, 3)]
    # hand-built copies that are not normalised; one large one, since the
    # search is quadratic
    inputs += [_unnormalised(rng, d) for d in inputs[:small] + inputs[-1:]]
    for d in inputs:
        got, want = canonical(d), canonical_by_search(d)
        assert got == want, d
        assert repr(got) == repr(want)
