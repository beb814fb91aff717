"""The slotted value types against the frozen dataclasses they replace
(``value_oracle``): equality, hash, ``repr``, immutability and pickling
agree on seeded diagrams, move sites, reports and glue results, and on
every value inside them."""

import copy
import inspect
import pickle
import random
from fractions import Fraction
from pathlib import Path

import pytest

from tanglepoly import (
    MoveKind,
    ParseError,
    TangleDiagram,
    apply,
    connect,
    enumerate_sites,
    invariant_report,
    parse,
    resolve,
    validate,
)
from tanglepoly.diagram import _Value
from helpers import (
    closed_triangle_knot,
    positive_braid_triangle,
    random_diagram,
    random_string_link,
)
from rebuild_oracle import all_resolutions
from value_oracle import ORACLE_TYPES, twin

SAMPLES = sorted((Path(__file__).resolve().parent.parent / "samples").glob("*.tangle"))
BAD_TEXTS = ("tangle 1\n", "tangle 0 0\ncomponent K closed\nO1+ U2+\n",
             "tangle 1 1\ncomponent A long T1:in B1:in\n")


def _nested(value):
    """``value`` and every package value in its fields, depth first."""
    if isinstance(value, _Value):
        yield value
        for name in value._fields:
            yield from _nested(getattr(value, name))
    elif type(value) is tuple:
        for item in value:
            yield from _nested(item)


def _values() -> list:
    """Seeded values of all sixteen types, and every value inside them."""
    rng = random.Random(15)
    diagrams = [parse(path.read_text(encoding="utf-8")) for path in SAMPLES]
    diagrams += [positive_braid_triangle(), closed_triangle_knot()]
    diagrams += [random_diagram(rng, n_singular=rng.choice((0, 0, 1, 2))) for _ in range(30)]
    # a pair insertion leaves a pair to remove
    diagrams += [apply(diagram, enumerate_sites(diagram, MoveKind.PAIR_INSERT)[0])
                 for diagram in diagrams[:4] if not diagram.has_singular()]
    tops = []
    for diagram in diagrams:
        tops.append(diagram)
        if diagram.has_singular():
            for resolution in all_resolutions(diagram):
                tops.append(resolve(diagram, resolution))
            continue
        tops.append(invariant_report(diagram, Fraction(2, 3), -5))
        for kind in MoveKind:
            tops += enumerate_sites(diagram, kind)[:3]
    for _ in range(10):
        strands = rng.randint(1, 3)
        tops.append(connect(random_string_link(rng, strands), random_string_link(rng, strands)))
    tops += validate(TangleDiagram(2, 1, (), ()))
    for text in BAD_TEXTS:
        with pytest.raises(ParseError) as info:
            parse(text)
        tops.append(info.value.span)
    seen: dict[int, object] = {}
    for top in tops:
        for value in _nested(top):
            seen.setdefault(id(value), value)
    return list(seen.values())


VALUES = _values()


def _hash_or_error(value):
    try:
        return hash(value)
    except TypeError as exc:
        return str(exc)


def test_every_value_type_is_sampled():
    assert {type(value).__name__ for value in VALUES} == set(ORACLE_TYPES)


def test_repr_hash_and_cross_type_inequality_match_the_dataclass():
    for value in VALUES:
        oracle = twin(value)
        assert type(oracle) is not type(value)
        assert repr(value) == repr(oracle)
        assert _hash_or_error(value) == _hash_or_error(oracle)
        assert value != oracle and oracle != value
        assert not value == oracle


def test_equality_matches_the_dataclass():
    rng = random.Random(16)
    by_type: dict[type, list] = {}
    for value in VALUES:
        by_type.setdefault(type(value), []).append(value)
    for values in by_type.values():
        twins = [twin(value) for value in values]
        for _ in range(200):
            i, j = rng.randrange(len(values)), rng.randrange(len(values))
            assert (values[i] == values[j]) == (twins[i] == twins[j])
            assert (values[i] != values[j]) == (twins[i] != twins[j])
        # equal, but not the same object
        for value, oracle in zip(values, twins):
            rebuilt = type(value)(*(getattr(value, name) for name in value._fields))
            assert rebuilt == value and rebuilt is not value
            assert twin(rebuilt) == oracle


def test_fields_cannot_be_assigned_or_deleted():
    for value in VALUES:
        before = repr(value)
        for name in (*value._fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert repr(value) == before


def test_pickle_and_copies_round_trip():
    for value in VALUES:
        for clone in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
            assert type(clone) is type(value)
            assert clone == value
            assert repr(clone) == repr(value)
            assert _hash_or_error(clone) == _hash_or_error(value)


def test_constructors_and_match_args_match_the_dataclass():
    for value in VALUES:
        oracle = type(twin(value))
        new = inspect.signature(type(value)).parameters.values()
        old = inspect.signature(oracle).parameters.values()
        assert [(p.name, p.kind, p.default) for p in new] == \
            [(p.name, p.kind, p.default) for p in old]
        assert type(value).__match_args__ == oracle.__match_args__
        keywords = {name: getattr(value, name) for name in value._fields}
        assert type(value)(**keywords) == value


def test_lookup_indexes_stay_out_of_the_value():
    diagram = parse(SAMPLES[0].read_text(encoding="utf-8"))
    fresh = pickle.loads(pickle.dumps(diagram))
    pickled = pickle.dumps(diagram)
    for chord in diagram.chords:
        assert diagram.chord(chord.label) is chord
    for comp in diagram.components:
        assert diagram.component(comp.cid) is comp
    assert diagram._chord_index is diagram._chord_index
    assert diagram == fresh and hash(diagram) == hash(fresh)
    assert repr(diagram) == repr(fresh)
    assert pickle.dumps(diagram) == pickled
    with pytest.raises(AttributeError, match="'TangleDiagram' object has no attribute 'nothing'"):
        diagram.nothing
