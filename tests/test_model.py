from __future__ import annotations

import copy
import pickle
import random

import pytest

from foonforge.errors import InvalidNodeError
from foonforge.foon.model import (
    FoonGraph,
    FunctionalUnit,
    MotionNode,
    ObjectNode,
    UnitIndex,
    make_unit,
)
from foonforge.foon.validation import RULE_BIPARTITE, validate_graph

from .graphgen import NAMES, random_graph


def test_object_node_normalizes_name_and_states():
    node = ObjectNode("  Cheese ", ("Grated", "warm"))
    assert node.name == "cheese"
    assert node.states == ("grated", "warm")
    assert node.key == ("cheese", ("grated", "warm"))


def test_states_stored_sorted():
    assert ObjectNode("x", ("warm", "grated")).states == ("grated", "warm")


def test_state_order_does_not_affect_identity():
    assert ObjectNode("x", ("a", "b")) == ObjectNode("x", ("b", "a"))


@pytest.mark.parametrize(
    "kwargs",
    [
        {"name": ""},
        {"name": "   "},
        {"name": "a\tb"},
        {"name": "a\nb"},
        {"name": "a\rb"},
        {"name": "a\vb"},
        {"name": "a\fb"},
        {"name": "a\x1cb"},
        {"name": "a\x1db"},
        {"name": "a\x1eb"},
        {"name": "a\x85b"},
        {"name": "a\u2028b"},
        {"name": "a\u2029b"},
        {"name": "x", "states": ("raw", "raw")},
        {"name": "x", "states": ("Raw", "raw")},
        {"name": "x", "states": ("",)},
        {"name": "x", "ingredients": ("a,b",)},
    ],
)
def test_invalid_nodes_rejected(kwargs):
    with pytest.raises(InvalidNodeError):
        ObjectNode(**kwargs)


def test_ingredients_sorted_deduped_and_excluded_from_identity():
    a = ObjectNode("bowl", (), ("salt", "egg", "salt"))
    assert a.ingredients == ("egg", "salt")
    b = ObjectNode("bowl")
    assert a.key == b.key
    assert a != b  # value equality still sees the annotation


def test_a_node_is_the_tuple_of_its_fields_and_key():
    node = ObjectNode(" Bowl ", ("Warm",), ("Salt", "egg"))
    assert tuple(node) == ("bowl", ("warm",), ("egg", "salt"), ("bowl", ("warm",)))
    assert (node.name, node.states, node.ingredients, node.key) == tuple(node)
    assert repr(node) == "ObjectNode(name='bowl', states=('warm',), ingredients=('egg', 'salt'))"
    same = ObjectNode("bowl", ["warm"], ["egg", "salt", "SALT"])
    assert (same, hash(same), repr(same)) == (node, hash(node), repr(node))
    assert node != ObjectNode("bowl", ("warm",))  # contents count for equality...
    assert node.key == ObjectNode("bowl", ("warm",)).key  # ...but not for identity
    with pytest.raises(AttributeError):
        node.name = "cup"
    assert not hasattr(node, "__dict__")


def test_a_node_equals_a_plain_tuple_but_validation_tells_them_apart():
    # tuple equality is kept: a plain tuple of a node's items equals it, and
    # graph code, which tells nodes apart by type, reports it all the same
    node = ObjectNode("egg", ("raw",))
    plain = tuple(node)
    assert (node == plain, hash(node) == hash(plain)) == (True, True)
    unit = FunctionalUnit([plain], MotionNode("crack"), [ObjectNode("yolk")])
    assert unit.input_keys == frozenset()
    report = validate_graph(FoonGraph((unit,)))
    assert [(v.rule, v.unit_index) for v in report.violations] == [(RULE_BIPARTITE, 0)]


def test_a_unit_is_the_tuple_of_its_sides_motion_and_key_sets():
    egg, yolk = ObjectNode("egg"), ObjectNode("yolk", ("whole",))
    unit = make_unit([egg], "crack", [yolk])
    crack = MotionNode("crack")
    assert tuple(unit) == ((egg,), crack, (yolk,), frozenset([egg.key]), frozenset([yolk.key]))
    assert (unit.inputs, unit.motion, unit.outputs) == ((egg,), crack, (yolk,))
    assert repr(unit) == (
        "FunctionalUnit(inputs=(ObjectNode(name='egg', states=(), ingredients=()),), "
        "motion=MotionNode(name='crack'), "
        "outputs=(ObjectNode(name='yolk', states=('whole',), ingredients=()),))"
    )
    same = FunctionalUnit(iter([egg]), crack, [yolk])
    assert (same, hash(same)) == (unit, hash(unit))
    assert unit == tuple(unit)


def test_nodes_and_units_survive_copy_and_pickle():
    unit = make_unit([ObjectNode("bowl", ("full",), ("egg",))], "stir", [ObjectNode("batter")])
    for again in (copy.copy(unit), copy.deepcopy(unit), pickle.loads(pickle.dumps(unit))):
        assert (type(again), again, repr(again)) == (FunctionalUnit, unit, repr(unit))
        assert type(again.inputs[0]) is ObjectNode


def test_motion_node_rejects_empty():
    with pytest.raises(InvalidNodeError):
        MotionNode("  ")


def test_unit_accepts_lists_and_soft_invariants():
    # arity and no-op problems are validator findings, not constructor errors
    unit = FunctionalUnit([], MotionNode("mix"), [ObjectNode("x")])
    assert unit.inputs == ()
    noop = make_unit([ObjectNode("x")], "wait", [ObjectNode("x")])
    assert noop.input_keys == noop.output_keys


def test_graph_node_index_first_seen_and_produced_keys(sample_graph_text):
    from foonforge.foon.text_format import parse_foon_text

    graph = parse_foon_text(sample_graph_text)
    assert len(graph.node_index) == 6
    assert ("macaroni", ("cooked",)) in graph.produced_keys
    assert ("water", ()) not in graph.produced_keys
    assert UnitIndex.build(graph).producers[("mac and cheese", ())] == [2]


def test_scans_for_a_node_find_what_the_node_index_holds():
    rng = random.Random(31)
    stray = ("egg", (), (), ("egg", ()))  # a plain tuple in a unit is no node
    for _ in range(100):
        graph = random_graph(rng)
        if rng.random() < 0.2:
            unit = graph.units[0]
            damaged = FunctionalUnit((stray, *unit.inputs), MotionNode("mix"), (*unit.outputs, 7))
            graph = FoonGraph((damaged, *graph.units[1:]))
        index = FoonGraph(graph.units).node_index
        for name in NAMES:
            assert graph.nodes_named(name) == [n for n in index.values() if n.name == name]
            for states in ((), ("raw",), ("chopped", "cooked")):
                assert graph.first_node((name, states)) is index.get((name, states))
        assert "node_index" not in graph.__dict__  # neither scan builds it


def test_a_unit_index_of_some_units_keeps_their_graph_indices():
    rng = random.Random(32)
    for _ in range(50):
        graph = random_graph(rng)
        whole = UnitIndex.build(graph)
        members = sorted(rng.sample(range(len(graph.units)), rng.randint(1, len(graph.units))))
        part = UnitIndex.build(graph, members)
        assert part.inputs == {i: whole.inputs[i] for i in members}
        assert part.outputs == {i: whole.outputs[i] for i in members}
        assert part.producers == {
            key: kept
            for key, units in whole.producers.items()
            if (kept := [i for i in units if i in members])
        }
        assert part.consumers == {
            key: kept
            for key, units in whole.consumers.items()
            if (kept := {i for i in units if i in members})
        }
