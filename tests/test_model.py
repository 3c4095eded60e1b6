from __future__ import annotations

import pytest

from foonforge.errors import InvalidNodeError
from foonforge.foon.model import (
    FunctionalUnit,
    MotionNode,
    ObjectNode,
    UnitIndex,
    make_unit,
)


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
