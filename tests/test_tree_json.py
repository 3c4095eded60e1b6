from __future__ import annotations

import json
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from foonforge.errors import (
    TaskTreeJsonError,
    TaskTreeSchemaError,
    TaskTreeStructureError,
)
from foonforge.foon.model import (
    FoonGraph,
    FunctionalUnit,
    MotionNode,
    ObjectNode,
    TaskTree,
    make_unit,
    normalize_token,
)
from foonforge.foon.tree_json import parse_task_tree_json, serialize_task_tree_json

from .graphgen import random_graph, random_task_tree, reference_tree_json


def test_parse_sample_tree(sample_tree_json):
    tree = parse_task_tree_json(sample_tree_json)
    assert len(tree.units) == 2
    assert tree.goal == ObjectNode("mac and cheese")


def test_empty_units_is_schema_error():
    with pytest.raises(TaskTreeSchemaError, match="empty task tree"):
        parse_task_tree_json('{"functional_units": []}')


def test_top_level_array_is_schema_not_syntax_error():
    with pytest.raises(TaskTreeSchemaError, match="expected a JSON object"):
        parse_task_tree_json("[1, 2, 3]")


def test_not_json_at_all_is_syntax_error():
    with pytest.raises(TaskTreeJsonError):
        parse_task_tree_json("Sure! Here is your recipe: boil, mix, enjoy.")


def test_deeply_nested_json_is_syntax_error():
    with pytest.raises(TaskTreeJsonError, match="nested too deeply"):
        parse_task_tree_json("[" * 100_000)


@pytest.mark.parametrize(
    "payload, pointer_fragment",
    [
        (
            {
                "functional_units": [{"inputs": [], "motion": "x", "outputs": []}],
                "goal": {"name": "b"},
            },
            "/inputs",
        ),
        (
            {
                "functional_units": [
                    {"inputs": [{"name": "a"}], "motion": 3, "outputs": [{"name": "b"}]}
                ],
                "goal": {"name": "b"},
            },
            "/motion",
        ),
        (
            {
                "functional_units": [
                    {"inputs": [{"name": "a\tb"}], "motion": "x", "outputs": [{"name": "b"}]}
                ],
                "goal": {"name": "b"},
            },
            "/inputs/0",
        ),
        ({"functional_units": [1], "goal": {"name": "b"}}, "/functional_units/0"),
    ],
)
def test_schema_errors_carry_pointers(payload, pointer_fragment):
    with pytest.raises(TaskTreeSchemaError) as exc_info:
        parse_task_tree_json(json.dumps(payload))
    assert pointer_fragment in str(exc_info.value)


def test_missing_goal_field_is_schema_error():
    payload = {"functional_units": [{"inputs": [{"name": "a"}], "motion": "m", "outputs": [{"name": "b"}]}]}
    with pytest.raises(TaskTreeSchemaError, match="goal"):
        parse_task_tree_json(json.dumps(payload))


def _cycle_tree_json() -> str:
    a, b = ObjectNode("dough", ("mixed",)), ObjectNode("dough", ("kneaded",))
    goal = ObjectNode("bread")
    tree = TaskTree(
        FoonGraph(
            (
                make_unit([a], "knead", [b]),
                make_unit([b], "rest", [a]),
                make_unit([b], "bake", [goal]),
            )
        ),
        goal,
    )
    return serialize_task_tree_json(tree)


def test_structural_error_distinct_from_schema():
    source = _cycle_tree_json()
    with pytest.raises(TaskTreeStructureError, match="cycle"):
        parse_task_tree_json(source)
    # the same source still materializes when structure checks are off
    tree = parse_task_tree_json(source, check_structure=False)
    assert len(tree.units) == 3


def test_goal_not_produced_is_structural():
    payload = {
        "goal": {"name": "phantom"},
        "functional_units": [
            {"inputs": [{"name": "a"}], "motion": "mix", "outputs": [{"name": "b"}]}
        ],
    }
    with pytest.raises(TaskTreeStructureError):
        parse_task_tree_json(json.dumps(payload))


def test_serialization_is_deterministic_and_round_trips(sample_tree_json):
    tree = parse_task_tree_json(sample_tree_json)
    one = serialize_task_tree_json(tree)
    two = serialize_task_tree_json(tree)
    assert one == two
    assert parse_task_tree_json(one) == tree


def test_unicode_dish_round_trips():
    goal = ObjectNode("crème brûlée")
    tree = TaskTree(
        FoonGraph((make_unit([ObjectNode("cream", ("chilled",))], "torch", [goal]),)),
        goal,
    )
    text = serialize_task_tree_json(tree)
    assert "crème brûlée" in text  # not ASCII-escaped
    text.encode("utf-8")
    assert parse_task_tree_json(text) == tree


def test_random_trees_round_trip():
    rng = random.Random(99)
    for _ in range(50):
        tree = random_task_tree(rng)
        assert parse_task_tree_json(serialize_task_tree_json(tree)) == tree


def test_ingredients_round_trip_via_json():
    goal = ObjectNode("soup")
    pot = ObjectNode("pot", ("full",), ("water", "salt"))
    tree = TaskTree(FoonGraph((make_unit([pot], "boil", [goal]),)), goal)
    assert parse_task_tree_json(serialize_task_tree_json(tree)) == tree


def test_writer_matches_json_dumps_on_random_trees():
    rng = random.Random(2024)
    trees = [random_task_tree(rng) for _ in range(300)]
    trees += [TaskTree(random_graph(rng), random_task_tree(rng).goal) for _ in range(100)]
    for tree in trees:
        assert serialize_task_tree_json(tree) == reference_tree_json(tree)


def test_writer_matches_json_dumps_on_empty_lists():
    goal = ObjectNode("soup", (), ("water",))
    for units in [(), (FunctionalUnit((), MotionNode("stir"), ()),)]:
        tree = TaskTree(FoonGraph(units), goal)
        assert serialize_task_tree_json(tree) == reference_tree_json(tree)


# Quotes, backslashes, control characters, characters JSON may leave
# unescaped, and text outside the Basic Multilingual Plane; no lone
# surrogates, tabs, newlines or commas, which nodes reject.
_TOKEN = st.text(
    alphabet=st.one_of(
        st.sampled_from('"\\\x00\x01\x08\x0c\r\x1f\x7f\u2028/é😀𝄞 a'),
        st.characters(exclude_categories=("Cs",), exclude_characters="\t\n,"),
    ),
    min_size=1,
    max_size=4,
).filter(normalize_token)
_TOKENS = st.lists(_TOKEN, max_size=2, unique_by=normalize_token).map(tuple)
_NODES = st.builds(ObjectNode, _TOKEN, _TOKENS, _TOKENS)
_UNITS = st.builds(
    FunctionalUnit,
    st.lists(_NODES, max_size=2).map(tuple),
    _TOKEN.map(MotionNode),
    st.lists(_NODES, max_size=2).map(tuple),
)


@given(_NODES, st.lists(_UNITS, max_size=2))
def test_writer_matches_json_dumps_on_any_text(goal, units):
    tree = TaskTree(FoonGraph(tuple(units)), goal)
    text = serialize_task_tree_json(tree)
    assert text == reference_tree_json(tree)
    text.encode("utf-8")
