from __future__ import annotations

import random
import signal
import sys
from itertools import combinations

import pytest

from foonforge.errors import RetrievalError
from foonforge.foon.model import FoonGraph, FunctionalUnit, ObjectNode, TaskTree, make_unit
from foonforge.foon.retrieval import RetrievalFailure, retrieve_task_tree
from foonforge.foon.text_format import parse_foon_text
from foonforge.foon.validation import validate_task_tree

from .graphgen import (
    brute_force_retrieve,
    chain_tree,
    random_retrieval_case,
    recipe_chain,
    selection_feasible,
)


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


def test_matches_brute_force_oracle_with_equal_costs_and_units_outside_the_cone():
    rng = random.Random(4321)
    feasible = infeasible = tied = 0
    for _ in range(300):
        graph, goal, available = random_retrieval_case(rng, alternatives=True, outside=True)
        expected = brute_force_retrieve(graph, goal, available)
        result = retrieve_task_tree(graph, goal, available)
        if expected is None:
            infeasible += 1
            assert isinstance(result, RetrievalFailure)
            continue
        feasible += 1
        assert isinstance(result, TaskTree)
        assert result.units == tuple(graph.units[i] for i in expected)
        assert validate_task_tree(result).ok
        # another selection of the same size would do as well
        tied += any(
            selection_feasible(graph, picked, goal, available)
            for picked in combinations(range(len(graph.units)), len(expected))
            if picked != expected
        )
    assert feasible > 100 and infeasible > 100 and tied > 30


def test_parts_that_one_unit_can_make_together_are_searched_together():
    a, b, salt, pepper = (ObjectNode(name) for name in ("a", "b", "salt", "pepper"))
    graph = FoonGraph(
        (
            make_unit([a, b], "mix", [ObjectNode("dish")]),
            make_unit([salt], "grind", [a]),
            make_unit([salt], "melt", [b]),
            make_unit([pepper], "split", [a, b]),
        )
    )
    assert brute_force_retrieve(graph, ObjectNode("dish"), {"salt", "pepper"}) == (0, 3)
    result = retrieve_task_tree(graph, ObjectNode("dish"), {"salt", "pepper"})
    assert isinstance(result, TaskTree)
    assert result.units == (graph.units[0], graph.units[3])


def test_a_cycle_across_independent_parts_is_searched_jointly():
    # after unit 1, parts a and b have disjoint cones, yet units 2 and 3
    # feed each other through z and w, which unit 1 makes as well
    a, b, z, w, extra, salt, pepper = (
        ObjectNode(name) for name in ("a", "b", "z", "w", "extra", "salt", "pepper")
    )
    graph = FoonGraph(
        (
            make_unit([a, b, extra], "mix", [ObjectNode("dish")]),
            make_unit([salt], "split", [extra, z, w]),
            make_unit([w], "press", [a, z]),
            make_unit([z], "roll", [b, w]),
            make_unit([pepper], "grind", [a]),
            make_unit([pepper], "melt", [b]),
        )
    )
    expected = brute_force_retrieve(graph, ObjectNode("dish"), {"salt", "pepper"})
    assert expected == (0, 1, 2, 5)
    result = retrieve_task_tree(graph, ObjectNode("dish"), {"salt", "pepper"})
    assert isinstance(result, TaskTree)
    assert result.units == tuple(graph.units[i] for i in expected)


def test_a_part_answer_is_shared_only_where_the_chosen_units_make_the_same():
    # units 0 and 1 both leave parts a and c open, with the same cone;
    # only unit 0 makes m, so only there may a come from unit 2, and
    # that closes the cycle 0 -> m -> 2 -> a -> 0
    a, c, e, m, salt, sugar = (ObjectNode(name) for name in ("a", "c", "e", "m", "salt", "sugar"))
    dish = ObjectNode("dish")
    graph = FoonGraph(
        (
            make_unit([a, c], "mix", [dish, m]),
            make_unit([a, c], "stir", [dish]),
            make_unit([m], "press", [a]),
            make_unit([e], "roll", [a]),
            make_unit([salt], "soak", [e]),
            make_unit([salt], "grind", [c]),
            make_unit([sugar], "melt", [c]),
        )
    )
    assert brute_force_retrieve(graph, dish, {"salt", "sugar"}) == (0, 3, 4, 5)
    result = retrieve_task_tree(graph, dish, {"salt", "sugar"})
    assert isinstance(result, TaskTree)
    assert result.units == tuple(graph.units[i] for i in (0, 3, 4, 5))


def test_equal_cost_alternatives_above_a_chain_of_parts_share_its_answer():
    # at each of 60 levels, b_i is made by either of two units from b_i+1
    # and c_i; searching b_i+1's part once for each would double the work
    # with every level, and a search that recursed into each part would
    # need Python frames in proportion to the levels
    units = []
    b = [ObjectNode("dish"), *(ObjectNode("b", (f"l{i}",)) for i in range(1, 60))]
    b.append(ObjectNode("sugar"))
    for i in range(60):
        c = ObjectNode("c", (f"l{i}",))
        units.append(make_unit([b[i + 1], c], "mix", [b[i]]))
        units.append(make_unit([b[i + 1], c], "stir", [b[i]]))
        units.append(make_unit([ObjectNode("salt")], "grind", [c]))
        units.append(make_unit([ObjectNode("sugar")], "melt", [c]))
    graph = FoonGraph(tuple(units))
    frames, depth = sys._getframe(), 0
    while frames is not None:
        frames, depth = frames.f_back, depth + 1
    recursion_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 60)
    try:
        result = _within_cpu_seconds(
            1.0, retrieve_task_tree, graph, ObjectNode("dish"), {"salt", "sugar"}
        )
    finally:
        sys.setrecursionlimit(recursion_limit)
    assert isinstance(result, TaskTree)
    assert result.units == tuple(graph.units[i] for i in range(240) if i % 4 in (0, 2))


def test_parts_that_only_tie_the_best_so_far_are_still_searched():
    # the branch of unit 6 is settled first, to (4, 5, 6); the branch of
    # unit 7 then splits into parts a and b, which together must fit in
    # exactly what is left of three units to give the lower (0, 2, 7)
    a, b, c, d, salt, sugar = (ObjectNode(name) for name in ("a", "b", "c", "d", "salt", "sugar"))
    graph = FoonGraph(
        (
            make_unit([salt], "grind", [a]),
            make_unit([sugar], "melt", [a]),
            make_unit([salt], "grind", [b]),
            make_unit([sugar], "melt", [b]),
            make_unit([salt], "soak", [d]),
            make_unit([d], "press", [c]),
            make_unit([c], "bake", [ObjectNode("dish")]),
            make_unit([a, b], "mix", [ObjectNode("dish")]),
        )
    )
    assert brute_force_retrieve(graph, ObjectNode("dish"), {"salt", "sugar"}) == (0, 2, 7)
    result = retrieve_task_tree(graph, ObjectNode("dish"), {"salt", "sugar"})
    assert isinstance(result, TaskTree)
    assert result.units == tuple(graph.units[i] for i in (0, 2, 7))


def _within_cpu_seconds(seconds: float, call, *args):
    """``call(*args)``, failing the test as soon as the process has used
    ``seconds`` of CPU on it, so a search that blows up fails at once."""

    def stop(signum, frame):
        pytest.fail(f"still running after {seconds} s of CPU")

    previous = signal.signal(signal.SIGPROF, stop)
    signal.setitimer(signal.ITIMER_PROF, seconds)
    try:
        return call(*args)
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, previous)


@pytest.mark.parametrize("depth", [1, 2])
def test_forty_independent_ties_retrieve_in_under_a_second(depth):
    # each of 40 parts is made by either of two recipes of ``depth`` units,
    # listed in a shuffled order: 2**40 smallest selections
    parts = [ObjectNode("part", (f"p{j}",)) for j in range(40)]
    final = make_unit(parts, "mix", [ObjectNode("dish")])
    recipes = []
    for part in parts:
        for pantry in ("salt", "sugar"):
            paste = f"{pantry} paste"
            pastes = [ObjectNode(paste, (*part.states, f"s{k}")) for k in range(depth - 1)]
            steps = [ObjectNode(pantry), *pastes, part]
            recipes.append([make_unit([a], "work", [b]) for a, b in zip(steps, steps[1:])])
    makers = [unit for recipe in recipes for unit in recipe]
    random.Random(depth).shuffle(makers)
    graph = FoonGraph((final, *makers))

    result = _within_cpu_seconds(
        1.0, retrieve_task_tree, graph, ObjectNode("dish"), {"salt", "sugar"}
    )
    # each part takes the recipe with the lower tuple of unit indices
    picked = {0}
    for salt, sugar in zip(recipes[::2], recipes[1::2]):
        picked.update(min(sorted(map(graph.units.index, recipe)) for recipe in (salt, sugar)))
    assert isinstance(result, TaskTree)
    assert result.units == tuple(graph.units[i] for i in sorted(picked))


def _nested_choices(depth: int, length: int) -> tuple[FoonGraph, list[int]]:
    """At each level i, b_i is made by v1(b_i+1, c_i) or by v2(b_i+1, c_i, d_i),
    d_i at the end of a chain of ``length`` units; c_i is made from salt
    in one step or from e_i, at the end of another such chain. Both of
    b_i's producers leave b_i+1 and c_i open, two independent parts.
    Returns the graph and the smallest selection: v1 and c_i's one-step
    unit at every level."""
    units, smallest = [], []

    def chain(end: ObjectNode, tag: str) -> list[FunctionalUnit]:
        steps = [ObjectNode("salt"), *(ObjectNode(tag, (f"s{k}",)) for k in range(length - 1)), end]
        return [make_unit([a], "work", [b]) for a, b in zip(steps, steps[1:])]

    b = [ObjectNode("dish"), *(ObjectNode("b", (f"l{i}",)) for i in range(1, depth))]
    b.append(ObjectNode("sugar"))
    for i in range(depth):
        c, d, e = (ObjectNode(name, (f"l{i}",)) for name in ("c", "d", "e"))
        smallest.append(len(units))
        units.append(make_unit([b[i + 1], c], "mix", [b[i]]))
        units.append(make_unit([b[i + 1], c, d], "mix", [b[i]]))
        units += chain(d, f"d{i}")
        smallest.append(len(units))
        units += [make_unit([ObjectNode("salt")], "grind", [c]), make_unit([e], "grind", [c])]
        units += chain(e, f"e{i}")
    return FoonGraph(tuple(units)), smallest


@pytest.mark.parametrize("depth, length", [(2, 1), (2, 3), (3, 1)])
def test_nested_parts_under_alternatives_match_brute_force(depth, length):
    graph, smallest = _nested_choices(depth, length)
    expected = brute_force_retrieve(graph, ObjectNode("dish"), {"salt", "sugar"})
    assert expected == tuple(smallest)
    result = retrieve_task_tree(graph, ObjectNode("dish"), {"salt", "sugar"})
    assert isinstance(result, TaskTree)
    assert result.units == tuple(graph.units[i] for i in expected)


def test_parts_nested_under_a_costlier_alternative_are_not_searched_twice():
    # 20 levels of 88 units: a search that solves both alternatives' parts
    # at every level before comparing them runs 2**20 sub-searches
    graph, smallest = _nested_choices(20, 42)
    result = _within_cpu_seconds(
        2.0, retrieve_task_tree, graph, ObjectNode("dish"), {"salt", "sugar"}
    )
    assert isinstance(result, TaskTree)
    assert result.units == tuple(graph.units[i] for i in smallest)


def test_a_branch_whose_open_object_cannot_be_reached_is_cut():
    # in the branch that takes unit 2 and excludes unit 1, x's producers
    # (units 3 and 4) need y or y2, which only unit 1 makes
    a, g, p, x, y, y2 = (ObjectNode(name) for name in ("a", "g", "p", "x", "y", "y2"))
    graph = FoonGraph(
        (
            make_unit([a], "serve", [g]),
            make_unit([p], "split", [a, y, y2]),
            make_unit([x], "shape", [a]),
            make_unit([y], "press", [x]),
            make_unit([y2], "roll", [x]),
        )
    )
    expected = brute_force_retrieve(graph, g, {"p"})
    assert expected == (0, 1)
    result = retrieve_task_tree(graph, g, {"p"})
    assert isinstance(result, TaskTree)
    assert result.units == tuple(graph.units[i] for i in expected)


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
