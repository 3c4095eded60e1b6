from __future__ import annotations

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
    merge_graphs,
)
from foonforge.foon.text_format import serialize_foon_text

from .graphgen import random_graph


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


def _canonical(graph: FoonGraph) -> list[str]:
    return sorted(serialize_foon_text(FoonGraph((unit,))) for unit in graph.units)


def test_merge_idempotent_identity_and_disjoint():
    rng = random.Random(7)
    g = random_graph(rng, max_units=5)
    deduped = merge_graphs(g, FoonGraph())
    assert merge_graphs(g, g) == deduped
    assert merge_graphs(FoonGraph(), g) == deduped

    a = FoonGraph((make_unit([ObjectNode("a")], "mix", [ObjectNode("b")]),))
    b = FoonGraph((make_unit([ObjectNode("c")], "chop", [ObjectNode("d")]),))
    assert len(merge_graphs(a, b).units) == 2


def test_merge_dedupes_exact_duplicates_only():
    unit = make_unit([ObjectNode("a")], "mix", [ObjectNode("b")])
    annotated = make_unit([ObjectNode("a", (), ("salt",))], "mix", [ObjectNode("b")])
    g1 = FoonGraph((unit,))
    g2 = FoonGraph((unit, annotated))
    merged = merge_graphs(g1, g2)
    assert merged.units == (unit, annotated)


def test_merge_commutative_up_to_canonical_order():
    rng = random.Random(21)
    for _ in range(20):
        a = random_graph(rng, max_units=4)
        b = random_graph(rng, max_units=4)
        ab, ba = merge_graphs(a, b), merge_graphs(b, a)
        assert _canonical(ab) == _canonical(ba)
        assert len(ab.units) <= len(a.units) + len(b.units)
