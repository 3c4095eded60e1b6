from __future__ import annotations

import random

from foonforge.foon.model import (
    FoonGraph,
    FunctionalUnit,
    MotionNode,
    ObjectNode,
    TaskTree,
    make_unit,
)
from foonforge.foon.text_format import parse_foon_text
from foonforge.foon.validation import (
    RULE_BIPARTITE,
    RULE_CYCLE,
    RULE_DISCONNECTED,
    RULE_EMPTY_UNIT,
    RULE_GOAL,
    RULE_NOOP_UNIT,
    validate_graph,
    validate_task_tree,
)

from .graphgen import (
    MUTATORS,
    chain_tree,
    random_graph,
    random_task_tree,
    reference_validate_graph,
)


def test_sample_graph_is_valid(sample_graph_text):
    report = validate_graph(parse_foon_text(sample_graph_text))
    assert report.ok
    assert report.violations == ()


def test_sample_as_task_tree_is_valid(sample_graph_text):
    graph = parse_foon_text(sample_graph_text)
    report = validate_graph(graph, goal=ObjectNode("mac and cheese"))
    assert report.ok


def test_two_unit_cycle_flagged():
    a, b = ObjectNode("x", ("one",)), ObjectNode("x", ("two",))
    goal = ObjectNode("dish")
    graph = FoonGraph(
        (
            make_unit([a], "flip", [b]),
            make_unit([b], "flop", [a]),
            make_unit([b], "serve", [goal]),
        )
    )
    report = validate_graph(graph, goal=goal)
    assert RULE_CYCLE in report.rules
    # as a plain graph the cycle rule does not apply
    assert validate_graph(graph).ok


def test_noop_unit_flagged():
    node = ObjectNode("spoon")
    graph = FoonGraph((make_unit([node], "wave", [node]),))
    report = validate_graph(graph)
    assert report.rules == {RULE_NOOP_UNIT}
    assert report.violations[0].unit_index == 0
    assert "spoon" in report.violations[0].message


def test_empty_unit_flagged():
    graph = FoonGraph((FunctionalUnit((), MotionNode("mix"), (ObjectNode("x"),)),))
    assert RULE_EMPTY_UNIT in validate_graph(graph).rules


def test_goal_rules():
    leaf, out = ObjectNode("egg"), ObjectNode("omelette")
    graph = FoonGraph((make_unit([leaf], "fry", [out]),))
    not_produced = validate_graph(graph, goal=ObjectNode("pancake"))
    assert RULE_GOAL in not_produced.rules

    consumed = validate_graph(
        FoonGraph(
            (
                make_unit([leaf], "fry", [out]),
                make_unit([out], "eat", [ObjectNode("crumbs")]),
            )
        ),
        goal=out,
    )
    assert RULE_GOAL in consumed.rules


def test_disconnected_unit_flagged():
    goal = ObjectNode("salad")
    graph = FoonGraph(
        (
            make_unit([ObjectNode("lettuce")], "toss", [goal]),
            make_unit([ObjectNode("rock")], "polish", [ObjectNode("shiny rock")]),
        )
    )
    report = validate_graph(graph, goal=goal)
    assert RULE_DISCONNECTED in report.rules
    assert report.violations[-1].unit_index == 1


def test_type_confused_unit_reported_as_bipartite():
    bad = FunctionalUnit(
        (MotionNode("stir"),), MotionNode("mix"), (ObjectNode("x"),)  # type: ignore[arg-type]
    )
    graph = FoonGraph((bad,))
    assert RULE_BIPARTITE in validate_graph(graph).rules


def test_report_lists_every_violated_rule():
    # one graph violating arity, no-op, goal, and connectivity at once
    spoon = ObjectNode("spoon")
    goal = ObjectNode("dish")
    graph = FoonGraph(
        (
            FunctionalUnit((), MotionNode("conjure"), (ObjectNode("x"),)),
            make_unit([spoon], "wave", [spoon]),
        )
    )
    report = validate_graph(graph, goal=goal)
    assert {RULE_EMPTY_UNIT, RULE_NOOP_UNIT, RULE_GOAL, RULE_DISCONNECTED} <= report.rules


def test_random_valid_trees_have_no_violations():
    rng = random.Random(5)
    for _ in range(25):
        assert validate_task_tree(random_task_tree(rng)).ok


def test_mutators_each_trip_their_rule():
    rng = random.Random(6)
    base = random_task_tree(rng, max_units=4)
    for mutate in MUTATORS:
        mutant, expected = mutate(base)
        report = validate_task_tree(mutant)
        assert not report.ok
        assert expected in report.rules, (mutate.__name__, report.rules)


def _assert_matches_reference(graph, goal=None):
    assert validate_graph(graph, goal) == reference_validate_graph(graph, goal)


def test_matches_reference_validator_on_random_trees_and_mutants():
    rng = random.Random(7)
    for _ in range(40):
        tree = random_task_tree(rng, max_units=8)
        for mutate in (lambda t: (t, None), *MUTATORS):
            mutant, _ = mutate(tree)
            _assert_matches_reference(mutant.graph, mutant.goal)
            # a mutant shuffled keeps its violations but renumbers them
            units = list(mutant.units)
            rng.shuffle(units)
            _assert_matches_reference(FoonGraph(tuple(units)), mutant.goal)


def test_matches_reference_validator_on_random_graphs():
    rng = random.Random(8)
    for _ in range(60):
        graph = random_graph(rng)
        _assert_matches_reference(graph)
        goal = graph.units[-1].outputs[0]
        _assert_matches_reference(graph, goal)


def test_matches_reference_validator_on_long_chains():
    # the reference is quadratic on a chain listed leaf first, so the
    # mutants, one reference run each, use shorter chains
    for goal_first in (False, True):
        tree = chain_tree(3000, goal_first=goal_first)
        assert validate_task_tree(tree).ok
        _assert_matches_reference(tree.graph, tree.goal)
        for mutate in MUTATORS:
            mutant, expected = mutate(chain_tree(400, goal_first=goal_first))
            report = validate_graph(mutant.graph, goal=mutant.goal)
            assert expected in report.rules
            _assert_matches_reference(mutant.graph, mutant.goal)
