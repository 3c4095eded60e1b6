from __future__ import annotations

import logging

import pytest

from foonforge.errors import InvalidNodeError, PromptError
from foonforge.foon.model import ObjectNode
from foonforge.foon.tree_json import parse_task_tree_json, serialize_task_tree_json
from foonforge.prompts import (
    OUTPUT_SCHEMA,
    DishSpec,
    ExampleSet,
    Strategy,
    annotate_example,
    load_examples,
    render_for_dish,
)
from foonforge.resources import data_path

from .graphgen import random_task_tree
import random


@pytest.fixture()
def dish() -> DishSpec:
    return DishSpec("breakfast", "Omelette", ("egg", "salt", "butter"), ("pan", "whisk"))


@pytest.fixture(scope="module")
def examples() -> ExampleSet:
    return load_examples(data_path("examples"))


def test_dish_spec_normalizes(dish):
    assert dish.name == "omelette"
    assert dish.category == "breakfast"


def test_dish_spec_invariants():
    with pytest.raises(InvalidNodeError):
        DishSpec("x", "soup", ())
    with pytest.raises(InvalidNodeError):
        DishSpec("x", "soup", ("salt", "Salt"))
    with pytest.raises(InvalidNodeError):
        DishSpec("x", "  ", ("salt",))
    spec = DishSpec("x", "soup", ("salt",), ("pot", "Pot", "ladle"))
    assert spec.tools == ("pot", "ladle")


def test_example_based_contains_each_example(dish, examples):
    bundle = render_for_dish(Strategy.EXAMPLE_BASED, dish, examples=examples)
    assert bundle.strategy is Strategy.EXAMPLE_BASED
    assert len(examples.trees) == 2
    for tree in examples.trees:
        assert serialize_task_tree_json(tree) in bundle.text
        assert annotate_example(tree) in bundle.text


def test_annotation_header_shape(examples):
    mac = examples.trees[0]
    assert annotate_example(mac) == "# example: mac and cheese, 2 steps, tools: cheese, macaroni"


def test_rendering_is_deterministic(dish, examples):
    a = render_for_dish(Strategy.EXAMPLE_BASED, dish, examples=examples)
    b = render_for_dish(Strategy.EXAMPLE_BASED, dish, examples=examples)
    assert a.text == b.text
    assert a.context_hash == b.context_hash


def test_sets_of_different_trees_render_different_blocks(dish, examples):
    a, b = examples.trees
    sets = [ExampleSet(trees) for trees in ((a,), (b,), (a,))]
    assert sets[0].block != sets[1].block
    texts = [render_for_dish(Strategy.EXAMPLE_BASED, dish, examples=s).text for s in sets]
    assert texts[0] != texts[1]
    assert texts[0] == texts[2]
    assert ExampleSet((a, b)).block == examples.block


def test_rendering_from_one_set_touches_no_node(dish, monkeypatch):
    # the examples as one command loads them and renders them per dish
    examples = load_examples(data_path("examples"))
    dishes = [dish, DishSpec("lunch", "toast", ("bread", "butter")), dish]
    touched = []
    for name in ("__hash__", "__eq__"):
        original = getattr(ObjectNode, name)
        monkeypatch.setattr(
            ObjectNode, name, lambda *args, f=original: touched.append(args) or f(*args)
        )
    bundles = [render_for_dish(Strategy.EXAMPLE_BASED, d, examples=examples) for d in dishes]
    assert touched == []
    assert examples.block in bundles[1].text
    assert (bundles[0].text, bundles[0].context_hash) == (bundles[2].text, bundles[2].context_hash)
    # the counters work: comparing equal, distinct trees touches nodes
    assert examples.trees == load_examples(data_path("examples")).trees
    assert touched


def test_no_examples_rejected(dish):
    for examples in (ExampleSet(()), None):
        with pytest.raises(PromptError, match="at least one example"):
            render_for_dish(Strategy.EXAMPLE_BASED, dish, examples=examples)


def test_user_guided_embeds_instructions_verbatim(dish):
    instructions = "vegetarian, no oven\nand absolutely no cilantro"
    bundle = render_for_dish(Strategy.USER_GUIDED, dish, instructions=instructions)
    assert instructions in bundle.text
    for blank in ("   ", "", None):
        with pytest.raises(PromptError, match="instructions"):
            render_for_dish(Strategy.USER_GUIDED, dish, instructions=blank)


def test_contextual_lists_resources_sorted_and_deduped():
    dish = DishSpec("breakfast", "omelette", ("salt", "Egg"), ("pan", "Pan", "whisk"))
    bundle = render_for_dish(Strategy.CONTEXTUAL, dish)
    assert "Available tools: pan, whisk" in bundle.text
    assert "Available ingredients: egg, salt" in bundle.text
    no_tools = render_for_dish(Strategy.CONTEXTUAL, DishSpec("breakfast", "omelette", ("egg",)))
    assert "Available tools: none" in no_tools.text


def test_schema_block_exactly_once(dish, examples):
    bundles = [
        render_for_dish(Strategy.EXAMPLE_BASED, dish, examples=examples),
        render_for_dish(Strategy.USER_GUIDED, dish, instructions="keep it simple"),
        render_for_dish(Strategy.CONTEXTUAL, dish),
    ]
    for bundle in bundles:
        assert bundle.text.count(OUTPUT_SCHEMA) == 1


def test_prompt_length_monotone_in_example_count(dish):
    rng = random.Random(11)
    trees = [random_task_tree(rng, max_units=3) for _ in range(4)]
    sets = [ExampleSet(tuple(trees[: k + 1])) for k in range(len(trees))]
    lengths = [
        len(render_for_dish(Strategy.EXAMPLE_BASED, dish, examples=s).text) for s in sets
    ]
    assert lengths == sorted(lengths)


def test_context_hash_distinguishes_strategies(dish):
    guided = render_for_dish(
        Strategy.USER_GUIDED, dish, instructions="anything", template="a {{schema}}"
    )
    contextual = render_for_dish(Strategy.CONTEXTUAL, dish, template="a {{schema}}")
    assert guided.text != contextual.text or guided.context_hash != contextual.context_hash


def test_template_placeholder_errors(dish):
    with pytest.raises(PromptError, match="unknown placeholder"):
        render_for_dish(
            Strategy.USER_GUIDED, dish, instructions="x", template="{{bogus}} {{schema}}"
        )
    with pytest.raises(PromptError, match="exactly once"):
        render_for_dish(
            Strategy.USER_GUIDED, dish, instructions="x", template="no schema here"
        )
    with pytest.raises(PromptError, match="exactly once"):
        render_for_dish(
            Strategy.USER_GUIDED, dish, instructions="x", template="{{schema}} {{schema}}"
        )


def test_substitution_is_single_pass(dish):
    # placeholder-looking text inside a value must not be re-expanded
    bundle = render_for_dish(
        Strategy.USER_GUIDED,
        dish,
        instructions="use {{tools}} literally",
        template="{{instructions}}\n{{schema}}",
    )
    assert "use {{tools}} literally" in bundle.text


def test_load_examples_reports_and_skips_invalid(tmp_path, caplog):
    good = random_task_tree(random.Random(3))
    (tmp_path / "b_good.json").write_text(serialize_task_tree_json(good), encoding="utf-8")
    (tmp_path / "a_bad.json").write_text("not json at all", encoding="utf-8")
    (tmp_path / "notes.txt").write_text("ignored", encoding="utf-8")
    with caplog.at_level(logging.WARNING):
        loaded = load_examples(tmp_path)
    assert loaded.trees == (good,)
    assert any("a_bad.json" in record.getMessage() for record in caplog.records)


def test_load_examples_empty_and_missing(tmp_path):
    assert load_examples(tmp_path).trees == ()
    with pytest.raises(PromptError, match="not found"):
        load_examples(tmp_path / "nope")


def test_load_examples_ordered_by_filename(tmp_path):
    rng = random.Random(4)
    first, second = random_task_tree(rng), random_task_tree(rng)
    (tmp_path / "2.json").write_text(serialize_task_tree_json(second), encoding="utf-8")
    (tmp_path / "1.json").write_text(serialize_task_tree_json(first), encoding="utf-8")
    assert load_examples(tmp_path).trees == (first, second)
    assert load_examples(tmp_path).block == load_examples(tmp_path).block


def test_packaged_examples_parse(examples):
    for tree in examples.trees:
        assert parse_task_tree_json(serialize_task_tree_json(tree)) == tree
