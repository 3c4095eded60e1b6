from __future__ import annotations

import random

import pytest

from foonforge.errors import RetrievalError
from foonforge.foon.model import FoonGraph, ObjectNode, TaskTree, make_unit
from foonforge.foon.retrieval import RetrievalFailure, retrieve_task_tree
from foonforge.foon.text_format import parse_foon_text
from foonforge.foon.validation import validate_task_tree

from .graphgen import brute_force_retrieve, chain_tree, random_retrieval_case, recipe_chain


def test_sample_graph_needs_all_three_units(sample_graph_text):
    graph = parse_foon_text(sample_graph_text)
    result = retrieve_task_tree(
        graph, ObjectNode("mac and cheese"), {"water", "macaroni", "cheese"}
    )
    assert isinstance(result, TaskTree)
    assert result.units == graph.units
    assert validate_task_tree(result).ok


def test_goal_in_pantry_but_not_producible():
    graph = FoonGraph((make_unit([ObjectNode("water")], "boil", [ObjectNode("steam")]),))
    result = retrieve_task_tree(graph, ObjectNode("water"), {"water"})
    assert isinstance(result, RetrievalFailure)
    assert "not producible" in result.message


def test_depth_one_tree():
    unit = make_unit([ObjectNode("egg"), ObjectNode("pan")], "fry", [ObjectNode("omelette")])
    extra = make_unit([ObjectNode("flour")], "sift", [ObjectNode("fine flour")])
    graph = FoonGraph((unit, extra))
    result = retrieve_task_tree(graph, ObjectNode("omelette"), {"egg", "pan"})
    assert isinstance(result, TaskTree)
    assert result.units == (unit,)


def test_goal_not_in_graph_is_an_error():
    graph = FoonGraph((make_unit([ObjectNode("egg")], "fry", [ObjectNode("omelette")]),))
    with pytest.raises(RetrievalError):
        retrieve_task_tree(graph, ObjectNode("pancake"), {"egg"})
    # same name, different states is a different node
    with pytest.raises(RetrievalError):
        retrieve_task_tree(graph, ObjectNode("omelette", ("burnt",)), {"egg"})


def test_failure_names_first_unsatisfiable_object():
    graph = FoonGraph(
        (
            make_unit([ObjectNode("saffron", ("fresh",))], "steep", [ObjectNode("broth")]),
            make_unit([ObjectNode("broth")], "reduce", [ObjectNode("glaze")]),
        )
    )
    result = retrieve_task_tree(graph, ObjectNode("glaze"), {"water"})
    assert isinstance(result, RetrievalFailure)
    assert result.missing == "saffron (fresh)"


def test_lowest_index_wins_ties():
    egg = ObjectNode("egg")
    goal = ObjectNode("snack")
    first = make_unit([egg], "boil", [goal])
    second = make_unit([egg], "fry", [goal])
    graph = FoonGraph((first, second))
    result = retrieve_task_tree(graph, goal, {"egg"})
    assert isinstance(result, TaskTree)
    assert result.units == (first,)


def test_pantry_name_does_not_cover_produced_variants():
    # "macaroni" on hand must not satisfy the cooked variant
    cooked = ObjectNode("macaroni", ("cooked",))
    graph = FoonGraph(
        (
            make_unit([ObjectNode("macaroni", ("raw",))], "boil", [cooked]),
            make_unit([cooked], "plate", [ObjectNode("dinner")]),
        )
    )
    result = retrieve_task_tree(graph, ObjectNode("dinner"), {"macaroni"})
    assert isinstance(result, TaskTree)
    assert len(result.units) == 2


def test_matches_brute_force_oracle_on_random_graphs():
    rng = random.Random(1234)
    feasible = infeasible = 0
    for _ in range(200):
        graph, goal, available = random_retrieval_case(rng)
        expected = brute_force_retrieve(graph, goal, available)
        result = retrieve_task_tree(graph, goal, available)
        if expected is None:
            infeasible += 1
            assert isinstance(result, RetrievalFailure)
        else:
            feasible += 1
            assert isinstance(result, TaskTree)
            assert result.units == tuple(graph.units[i] for i in expected)
            assert validate_task_tree(result).ok
    assert feasible and infeasible


@pytest.mark.parametrize("steps", [20, 30])
@pytest.mark.parametrize("alternatives", [False, True])
def test_long_recipe_chains_have_known_answers(steps, alternatives):
    graph, goal, available, expected = recipe_chain(steps, alternatives=alternatives)
    result = retrieve_task_tree(graph, goal, available)
    assert isinstance(result, TaskTree)
    assert result.units == expected
    assert validate_task_tree(result).ok


def test_equal_alternatives_take_the_lowest_indices():
    # the goal needs 12 parts, each made by either of two one-step units
    parts = [ObjectNode("part", (f"p{j}",)) for j in range(12)]
    makers = []
    for part in parts:
        makers.append(make_unit([ObjectNode("salt")], "grind", [part]))
        makers.append(make_unit([ObjectNode("sugar")], "melt", [part]))
    final = make_unit(parts, "mix", [ObjectNode("dish")])
    for units in ((final, *makers), (final, *reversed(makers))):
        graph = FoonGraph(units)
        result = retrieve_task_tree(graph, ObjectNode("dish"), {"salt", "sugar"})
        assert isinstance(result, TaskTree)
        assert result.units == (final, *units[1::2])


def test_long_unsatisfiable_chain_blames_its_first_raw_item():
    tree = chain_tree(3000)
    result = retrieve_task_tree(tree.graph, tree.goal, set())
    assert isinstance(result, RetrievalFailure)
    assert result.missing == "flour"
    assert result.message == "no way to obtain 'flour'"
