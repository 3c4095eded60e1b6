from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from foonforge import metrics
from foonforge.errors import FoonForgeError
from foonforge.foon.model import (
    FoonGraph,
    FunctionalUnit,
    MotionNode,
    ObjectNode,
    TaskTree,
    make_unit,
)
from foonforge.metrics import (
    MetricScores,
    band,
    compare_strategies,
    comparison_rows,
    format_csv_table,
    format_text_table,
    run_mean_scores,
    score_accuracy,
    score_completeness,
    score_record,
    summarize_run,
)
from foonforge.foon.validation import validate_task_tree
from foonforge.pipeline import FallbackReason, OutputRecord, RunReport, load_run_report
from foonforge.prompts import DishSpec, Strategy

from .graphgen import (
    NAMES,
    random_graph,
    random_task_tree,
    reference_accuracy_rules,
    reference_score_completeness,
)


def perfect_tree(dish: DishSpec) -> TaskTree:
    base = ObjectNode(f"{dish.name} base", ("combined",), dish.ingredients)
    inputs = [ObjectNode(i, ("fresh",)) for i in dish.ingredients]
    inputs += [ObjectNode(t) for t in dish.tools]
    cooked = ObjectNode(f"{dish.name} base", ("cooked",))
    goal = ObjectNode(dish.name)
    return TaskTree(
        FoonGraph(
            (
                make_unit(inputs, "combine", [base]),
                make_unit([base], "cook", [cooked]),
                make_unit([cooked], "serve", [goal]),
            )
        ),
        goal,
    )


@pytest.fixture()
def dish() -> DishSpec:
    return DishSpec("pasta", "mac and cheese", ("macaroni", "cheese", "milk", "butter"), ("pot", "grater"))


def _with_goal(tree: TaskTree, name: str) -> TaskTree:
    goal = ObjectNode(name)
    last = tree.units[-1]
    units = (*tree.units[:-1], make_unit(last.inputs, last.motion.name, [goal]))
    return TaskTree(FoonGraph(units), goal)


def test_accuracy_all_rules_pass(dish):
    assert score_accuracy(perfect_tree(dish), dish) == 1.0


def test_accuracy_wrong_goal_drops_one_rule(dish):
    tree = _with_goal(perfect_tree(dish), "pasta bake")
    assert score_accuracy(tree, dish) == pytest.approx(0.8)


def test_accuracy_hallucinated_ingredient_drops_one_rule(dish):
    base = perfect_tree(dish)
    first = base.units[0]
    units = (
        make_unit([*first.inputs, ObjectNode("truffle")], first.motion.name, first.outputs),
        *base.units[1:],
    )
    tree = TaskTree(FoonGraph(units), base.goal)
    assert score_accuracy(tree, dish) == pytest.approx(0.8)


def test_accuracy_dangling_intermediate_drops_one_rule(dish):
    base = perfect_tree(dish)
    first = base.units[0]
    units = (
        make_unit(first.inputs, first.motion.name, [*first.outputs, ObjectNode("trimmings")]),
        *base.units[1:],
    )
    tree = TaskTree(FoonGraph(units), base.goal)
    assert score_accuracy(tree, dish) == pytest.approx(0.8)


def test_completeness_full_coverage(dish):
    assert score_completeness(perfect_tree(dish), dish) == 1.0


def test_completeness_partial_coverage(dish):
    # 2 of 4 ingredients, 1 of 2 tools -> mean(0.5, 0.5)
    goal = ObjectNode(dish.name)
    tree = TaskTree(
        FoonGraph(
            (
                make_unit(
                    [ObjectNode("macaroni", ("fresh",)), ObjectNode("cheese", ("fresh",)), ObjectNode("pot")],
                    "combine",
                    [ObjectNode("base", ("combined",))],
                ),
                make_unit([ObjectNode("base", ("combined",))], "serve", [goal]),
            )
        ),
        goal,
    )
    assert score_completeness(tree, dish) == pytest.approx(0.5)


def test_completeness_without_tools_uses_ingredients_alone():
    dish = DishSpec("x", "toast", ("bread",))
    goal = ObjectNode("toast")
    tree = TaskTree(
        FoonGraph((make_unit([ObjectNode("bread", ("fresh",))], "toast", [goal]),)), goal
    )
    assert score_completeness(tree, dish) == 1.0


def test_container_ingredients_count_as_coverage():
    dish = DishSpec("x", "soup", ("water", "salt"))
    goal = ObjectNode("soup")
    pot = ObjectNode("pot", ("full",), ("water", "salt"))
    tree = TaskTree(FoonGraph((make_unit([pot], "boil", [goal]),)), goal)
    assert score_completeness(tree, dish) == 1.0


def test_fallback_records_score_zero(dish):
    record = OutputRecord(
        dish,
        "junk",
        "x.txt",
        fallback_reason=FallbackReason.JSON_SYNTAX,
    )
    assert score_record(record) == MetricScores(0.0, 0.0)


def _report(records) -> RunReport:
    return RunReport(Strategy.EXAMPLE_BASED, tuple(records), "t0", "t1")


def _ok_record(dish, tree) -> OutputRecord:
    return OutputRecord(dish, "raw", "x.json", tree=tree)


def test_summarize_counts_and_rate(dish):
    ok = _ok_record(dish, perfect_tree(dish))
    bad = OutputRecord(
        dish,
        "junk",
        "x.txt",
        fallback_reason=FallbackReason.SCHEMA,
    )
    rows = summarize_run(_report([ok, ok, ok, bad]))
    values = {row.metric: row.value for row in rows}
    assert values["Total recipes generated"] == "4"
    assert values["Successful JSON outputs"] == "3"
    assert values["Text outputs (due to errors)"] == "1"
    assert values["Success rate"] == "0.750"


def test_summarize_empty_run_reports_na():
    rows = summarize_run(_report([]))
    values = {row.metric: row.value for row in rows}
    assert values["Success rate"] == "n/a"
    assert values["Mean accuracy"] == "n/a"


def test_accuracy_is_multiple_of_point_two(dish):
    rng = random.Random(13)
    for _ in range(50):
        tree = perfect_tree(dish)
        if rng.random() < 0.5:
            tree = _with_goal(tree, "other dish")
        value = score_accuracy(tree, dish)
        assert abs(value * 5 - round(value * 5)) < 1e-9


def test_every_shipped_success_scores_at_least_point_four(shipped_runs):
    # motions present and structural validity hold for every scored tree
    lowest = 1.0
    for path in shipped_runs:
        for record in load_run_report(path).records:
            if record.tree is not None:
                _, motions, _, valid, _ = reference_accuracy_rules(record.tree, record.dish)
                assert motions and valid, (path, record.dish.name)
                lowest = min(lowest, score_accuracy(record.tree, record.dish))
    assert lowest == 0.4


def test_scores_invariant_under_unit_permutation(dish):
    tree = perfect_tree(dish)
    rng = random.Random(3)
    for _ in range(10):
        units = list(tree.units)
        rng.shuffle(units)
        shuffled = TaskTree(FoonGraph(tuple(units)), tree.goal)
        assert score_accuracy(shuffled, dish) == score_accuracy(tree, dish)
        assert score_completeness(shuffled, dish) == score_completeness(tree, dish)


def _random_dish(rng: random.Random, tree: TaskTree) -> DishSpec:
    """A dish that names the tree's goal or not, with a few of the node
    names as ingredients and tools, or with no tools at all; half of the
    dishes list every leaf input, so that hallucination turns on the
    contents of the nodes."""
    names = sorted({n.name for u in tree.units for n in (*u.inputs, *u.outputs)} | set(NAMES))
    goal = tree.goal.name if rng.random() < 0.7 else "other dish"
    ingredients = rng.sample(names, rng.randint(1, 5))
    if rng.random() < 0.5:
        produced = tree.graph.produced_keys
        leaves = {n.name for u in tree.units for n in u.inputs if n.key not in produced}
        ingredients = sorted(leaves | set(ingredients[:1]))
    tools = rng.sample(names, rng.randint(1, 3)) if rng.random() < 0.6 else []
    return DishSpec("test", goal, tuple(ingredients), tuple(tools))


def _with_contents(rng: random.Random, tree: TaskTree) -> TaskTree:
    """The tree with contents on some input nodes, produced ones too."""

    def filled(node):
        if rng.random() < 0.3:
            return ObjectNode(node.name, node.states, rng.sample(NAMES, rng.randint(1, 2)))
        return node

    units = [
        make_unit(map(filled, u.inputs), u.motion.name, u.outputs) for u in tree.units
    ]
    return TaskTree(FoonGraph(tuple(units)), tree.goal)


def test_scores_match_the_original_rules():
    rng = random.Random(81)
    accuracies, completeness = set(), set()
    for i in range(300):
        if i % 2:
            tree = _with_contents(rng, random_task_tree(rng, max_units=6))
        else:  # container ingredients, repeated identities, broken trees
            graph = random_graph(rng, max_units=6)
            tree = TaskTree(graph, graph.units[-1].outputs[0])
        units = list(tree.units)
        rng.shuffle(units)
        for tree in (tree, TaskTree(FoonGraph(tuple(units)), tree.goal)):
            for _ in range(3):
                dish = _random_dish(rng, tree)
                want = MetricScores(
                    sum(reference_accuracy_rules(tree, dish)) / 5,
                    reference_score_completeness(tree, dish),
                )
                assert score_record(_ok_record(dish, tree)) == want
                assert score_accuracy(tree, dish) == want.accuracy
                assert score_completeness(tree, dish) == want.completeness
                accuracies.add(want.accuracy)
                completeness.add(want.completeness)
    # the cases reach most values of either score
    assert len(accuracies) >= 4
    assert len(completeness) >= 10


def _name_kinds(tree: TaskTree) -> dict[str, list[str]]:
    """The names a tree holds, by the part each plays in it."""
    produced = tree.graph.produced_keys
    inputs = [n for u in tree.units for n in u.inputs]
    nodes = inputs + [n for u in tree.units for n in u.outputs]
    return {
        "leaf": sorted({n.name for n in inputs if n.key not in produced}),
        "input": sorted({n.name for n in inputs if n.key in produced}),
        "produced": sorted({n.name for u in tree.units for n in u.outputs}),
        "container": sorted({c for n in nodes for c in n.ingredients}),
        "absent": ["no such item"],
    }


def _overlapping_dish(rng: random.Random, tree: TaskTree) -> DishSpec:
    """A dish whose ingredients and tools draw on every kind of name the
    tree holds, and whose tools repeat some of its ingredients; half of
    the dishes also list every leaf and container name as a tool, so
    that the hallucination rule holds for some."""
    kinds = _name_kinds(tree)
    pool = list(dict.fromkeys(name for names in kinds.values() for name in names))
    ingredients = rng.sample(pool, rng.randint(1, min(6, len(pool))))
    tools = rng.sample(ingredients, rng.randint(1, len(ingredients)))
    tools += rng.sample(pool, rng.randint(0, min(3, len(pool))))
    if rng.random() < 0.5:
        tools += kinds["leaf"] + kinds["container"]
    rng.shuffle(tools)
    return DishSpec("test", tree.goal.name, tuple(ingredients), tuple(tools))


def test_intersection_counts_match_the_original_sums():
    rng = random.Random(2407)
    kinds_hit: dict[str, set] = {"ingredients": set(), "tools": set()}
    completeness, hallucination = set(), set()
    for i in range(300):
        if i % 2:
            tree = _with_contents(rng, random_task_tree(rng, max_units=6))
        else:
            graph = random_graph(rng, max_units=6)
            tree = TaskTree(graph, graph.units[-1].outputs[0])
        kinds = _name_kinds(tree)
        for _ in range(3):
            dish = _overlapping_dish(rng, tree)
            assert set(dish.tools) & set(dish.ingredients)
            for field in kinds_hit:
                listed = set(getattr(dish, field))
                kinds_hit[field].update(k for k, names in kinds.items() if listed & set(names))
            rules = reference_accuracy_rules(tree, dish)
            want = MetricScores(sum(rules) / 5, reference_score_completeness(tree, dish))
            assert score_record(_ok_record(dish, tree)) == want
            completeness.add(want.completeness)
            hallucination.add(rules[2])
    every_kind = {"leaf", "input", "produced", "container", "absent"}
    assert kinds_hit["ingredients"] == kinds_hit["tools"] == every_kind
    assert hallucination == {True, False}
    assert len(completeness) >= 10


def test_shared_facts_give_each_record_its_own_scores(shipped_runs, shared_texts_report):
    # as evaluate --compare loads and scores: one map of trees and dishes,
    # one of pair scores and tree facts, across every report
    shared: dict = {}
    reports = [load_run_report(p, shared=shared) for p in (*shipped_runs, shared_texts_report)]
    records = [record for report in reports for record in report.records]
    scored: dict = {}
    got = metrics._scores(records, scored)
    trees = {id(r.tree) for r in records if r.tree is not None}
    assert len(records) == 340 and len(trees) == 138
    # one entry per distinct pair and one per distinct tree
    assert len(scored) == len({(id(r.tree), id(r.dish)) for r in records}) + len(trees)
    for record, scores in zip(records, got):
        assert scores == score_record(record)
        if record.tree is not None:
            assert scores.accuracy == score_accuracy(record.tree, record.dish)
            assert scores.completeness == score_completeness(record.tree, record.dish)


_EGG, _BOILED = ObjectNode("egg"), ObjectNode("egg", ["boiled"])


@pytest.mark.parametrize(
    "unit, accuracy",
    [
        # the motions rule fails, and so does validity
        (FunctionalUnit((_EGG,), "boil", (_BOILED,)), 0.6),
        # the plain tuple is skipped by every rule but validity
        (FunctionalUnit((_EGG, ("x",)), MotionNode("boil"), (_BOILED,)), 0.8),
    ],
)
def test_trees_that_break_the_bipartite_rule_score(unit, accuracy):
    tree = TaskTree(FoonGraph((unit,)), _BOILED)
    dish = DishSpec("x", "egg", ["egg"])
    assert [v.rule for v in validate_task_tree(tree).violations] == ["bipartite"]
    assert score_accuracy(tree, dish) == accuracy
    assert score_completeness(tree, dish) == 1.0
    assert score_record(_ok_record(dish, tree)) == MetricScores(accuracy, 1.0)


def test_completeness_alone_does_not_validate(dish, monkeypatch):
    def fail(tree):
        raise AssertionError("completeness validated the tree")

    monkeypatch.setattr(metrics, "validate_task_tree", fail)
    assert score_completeness(perfect_tree(dish), dish) == 1.0


def test_adding_unused_ingredient_never_increases_completeness(dish):
    tree = perfect_tree(dish)
    before = score_completeness(tree, dish)
    bigger = DishSpec(dish.category, dish.name, (*dish.ingredients, "saffron"), dish.tools)
    assert score_completeness(tree, bigger) <= before
    # and removing it cannot break the hallucination rule
    assert score_accuracy(tree, dish) == score_accuracy(tree, bigger)


def test_adding_covered_ingredient_never_decreases_completeness(dish):
    reduced = DishSpec(dish.category, dish.name, dish.ingredients[:2], dish.tools)
    tree = perfect_tree(dish)  # covers all four ingredients
    assert score_completeness(tree, dish) >= score_completeness(tree, reduced)


@given(st.floats(0, 1), st.floats(0, 1))
def test_banding_monotone(a, b):
    lo, hi = sorted((a, b))
    order = {"Low": 0, "Medium": 1, "High": 2}
    assert order[band(lo)] <= order[band(hi)]


@pytest.mark.parametrize(
    "value, expected",
    [(0.75, "High"), (0.9, "High"), (0.6, "Medium"), (0.5, "Medium"), (0.49, "Low")],
)
def test_band_thresholds(value, expected):
    assert band(value) == expected


def _run_with_accuracy(dish, target_ok: int, total: int) -> RunReport:
    ok = [_ok_record(dish, perfect_tree(dish)) for _ in range(target_ok)]
    bad = [
        OutputRecord(
            dish,
            "junk",
            "x.txt",
            fallback_reason=FallbackReason.JSON_SYNTAX,
        )
        for _ in range(total - target_ok)
    ]
    return _report(ok + bad)


def test_compare_strategies_reliability_labels(dish):
    steady = {Strategy.EXAMPLE_BASED: [_run_with_accuracy(dish, 9, 10)] * 3}
    entry = compare_strategies(steady).entry(Strategy.EXAMPLE_BASED)
    assert entry.reliability == "Consistent"
    assert not entry.single_run

    swingy = {
        Strategy.EXAMPLE_BASED: [
            _run_with_accuracy(dish, 2, 10),
            _run_with_accuracy(dish, 9, 10),
            _run_with_accuracy(dish, 3, 10),
        ]
    }
    assert compare_strategies(swingy).entry(Strategy.EXAMPLE_BASED).reliability == "Inconsistent"


def test_single_run_flagged(dish):
    comparison = compare_strategies({Strategy.CONTEXTUAL: [_run_with_accuracy(dish, 5, 10)]})
    entry = comparison.entry(Strategy.CONTEXTUAL)
    assert entry.single_run
    assert entry.reliability_label == "Consistent (single run)"
    with pytest.raises(KeyError):
        comparison.entry(Strategy.EXAMPLE_BASED)


def test_an_empty_run_scores_zero():
    assert run_mean_scores(_report([])) == MetricScores(0.0, 0.0)


def _covering(ingredients: int, covered: int, tools: int = 0, held: int = 0) -> OutputRecord:
    """A record whose tree uses the first ``covered`` of the dish's
    ``ingredients`` and the first ``held`` of its ``tools``."""
    dish = DishSpec(
        "x",
        f"dish {ingredients} {covered} {tools} {held}",
        tuple(f"ingredient {i}" for i in range(ingredients)),
        tuple(f"tool {i}" for i in range(tools)),
    )
    goal = ObjectNode(dish.name)
    used = [ObjectNode(name) for name in (*dish.ingredients[:covered], *dish.tools[:held])]
    return _ok_record(dish, TaskTree(FoonGraph((make_unit(used, "combine", [goal]),)), goal))


def test_mean_completeness_is_printed_from_the_exact_mean():
    # the exact mean is 0.4625, which prints as 0.463; a float sum of
    # these six scores (math.fsum or sum, over the count) is
    # 0.46249999999999997, which prints as 0.462
    records = [
        _covering(2, 1),
        _covering(2, 1, tools=4, held=3),
        _covering(4, 1),
        _covering(2, 1),
        _covering(2, 1),
        _covering(5, 2),
    ]
    scores = [score_record(record).completeness for record in records]
    assert scores == [0.5, 0.625, 0.25, 0.5, 0.5, 0.4]
    rows = {row.metric: row.value for row in summarize_run(_report(records))}
    assert rows["Mean completeness"] == "0.463"


def test_compare_requires_runs():
    with pytest.raises(FoonForgeError):
        compare_strategies({})
    with pytest.raises(FoonForgeError):
        compare_strategies({Strategy.CONTEXTUAL: []})


def test_table_renderers(dish):
    rows = summarize_run(_run_with_accuracy(dish, 1, 2))
    text = format_text_table(rows)
    assert text.splitlines()[0].startswith("Metric")
    csv_text = format_csv_table(rows)
    assert csv_text.splitlines()[0] == "metric,value,notes"
    assert len(csv_text.splitlines()) == len(rows) + 1

    comparison = compare_strategies({Strategy.CONTEXTUAL: [_run_with_accuracy(dish, 5, 10)]})
    assert "contextual" in format_text_table(comparison_rows(comparison))
