from __future__ import annotations

import hashlib
import json
import logging
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from foonforge.errors import InvalidNodeError, PromptError
from foonforge.foon.model import ObjectNode, require_unicode
from foonforge.foon.tree_json import parse_task_tree_json, serialize_task_tree_json
from foonforge.prompts import (
    OUTPUT_SCHEMA,
    CompiledTemplate,
    DishSpec,
    ExampleSet,
    PromptBundle,
    Strategy,
    annotate_example,
    default_template,
    load_examples,
    render_for_dish,
)
from foonforge.resources import data_path

from .graphgen import random_task_tree


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


# The reference renderer, as the package rendered each prompt before runs
# compiled their template: a per-dish template check, one regex substitution
# that looks each placeholder up as it is met, and a hash of the whole text.

_REFERENCE_PLACEHOLDER = re.compile(r"\{\{(\w+)\}\}")


def _reference_substitute(template: str, values: dict[str, str]) -> str:
    if template.count("{{schema}}") != 1:
        raise PromptError("template must contain {{schema}} exactly once")

    def repl(match: re.Match) -> str:
        name = match.group(1)
        if name not in values:
            raise PromptError(f"template uses unknown placeholder {{{{{name}}}}}")
        return values[name]

    return _REFERENCE_PLACEHOLDER.sub(repl, template)


def _reference_render(strategy, dish, *, examples=None, instructions=None, template=None):
    """The text and hash of one dish's prompt, or the PromptError's message."""
    ingredients = ", ".join(sorted(dish.ingredients))
    tools = ", ".join(sorted(dish.tools)) or "none"
    try:
        if strategy is Strategy.EXAMPLE_BASED:
            if examples is None or not examples.trees:
                raise PromptError("example-based prompts need at least one example tree")
            extra = {"examples": examples.block}
        elif strategy is Strategy.USER_GUIDED:
            if not instructions or not instructions.strip():
                raise PromptError("user-guided prompts need non-empty instructions")
            try:
                require_unicode(instructions, "instructions")
            except InvalidNodeError as exc:
                raise PromptError(str(exc)) from None
            extra = {"instructions": instructions}
        else:
            extra = {
                "availability": f"Available tools: {tools}\nAvailable ingredients: {ingredients}"
            }
        values = {
            "dish_name": dish.name,
            "category": dish.category or "uncategorized",
            "ingredients": ingredients,
            "tools": tools,
            "schema": OUTPUT_SCHEMA,
            **extra,
        }
        if template is None:
            template = default_template(strategy)
        text = _reference_substitute(template, values)
    except PromptError as exc:
        return str(exc)
    digest = hashlib.sha256(f"{strategy.value}\n{text}".encode("utf-8")).hexdigest()
    return text, digest


_NAMES = (
    "dish_name",
    "category",
    "ingredients",
    "tools",
    "availability",
    "examples",
    "instructions",
    "bogus",
    "café",
)
# placeholder-like text: braces that are not a placeholder, or that wrap one
_BRACES = ("{", "}", "{{", "}}", "{{{", "}}}", "{{ tools }}", "{{}}", "{{schema}", "%s", "{0}")
_PIECES = st.one_of(
    st.sampled_from(_NAMES).map(lambda name: f"{{{{{name}}}}}"),
    st.sampled_from(_BRACES),
    st.text(max_size=8),
)
_TEXTS = st.one_of(
    st.text(max_size=12),
    st.lists(_PIECES, max_size=4).map("".join),
)


def _example_set(goal: str, item: str) -> ExampleSet:
    tree = {
        "goal": {"name": goal, "states": []},
        "functional_units": [
            {
                "inputs": [{"name": item, "states": ["raw"]}],
                "motion": "bake",
                "outputs": [{"name": goal, "states": []}],
            }
        ],
    }
    return ExampleSet((parse_task_tree_json(json.dumps(tree)),))


def _mostly(good, *bad):
    """Draws from ``good`` four times in five, else from one of ``bad``,
    so that most draws pass every check and most renders are compared."""
    return st.sampled_from([good] * 4 * len(bad) + list(bad)).flatmap(lambda drawn: drawn)


_EXAMPLES = _mostly(
    st.sampled_from(
        [
            _example_set("pie", "flour"),
            _example_set("{{tools}} pie", "{{schema}} crumbs"),
            _example_set("tarte flambée", "crème fraîche"),
        ]
    ),
    st.none(),
    st.just(ExampleSet(())),
)
_DISHES = st.builds(
    DishSpec,
    st.sampled_from(["", "lunch", "{{category}}", "café"]),
    st.sampled_from(["soup", "{{dish_name}} stew", "{{schema}}", "crêpe", "水饺"]),
    st.lists(st.sampled_from(["salt", "{{tools}}", "eau", "ñame"]), min_size=1, unique=True),
    st.lists(st.sampled_from(["pot", "pan", "{{ingredients}}", "wok "]), unique=True),
)


@settings(max_examples=400, deadline=None)
@given(
    strategy=st.sampled_from(list(Strategy)),
    pieces=st.lists(_PIECES, max_size=10),
    # where {{schema}} goes in: once, or not at all, or twice
    schema_at=_mostly(
        st.lists(st.integers(0, 10), min_size=1, max_size=1),
        st.just([]),
        st.lists(st.integers(0, 10), min_size=2, max_size=2),
    ),
    examples=_EXAMPLES,
    instructions=_mostly(_TEXTS.filter(str.strip), st.none(), st.just("  ")),
    dishes=st.lists(_DISHES, min_size=1, max_size=3),
)
# the prefix is empty: the template opens with a dish field
@example(
    strategy=Strategy.CONTEXTUAL,
    pieces=["{{dish_name}}", " ", "{{availability}}"],
    schema_at=(3,),
    examples=None,
    instructions=None,
    dishes=[DishSpec("", "crêpe", ("eau",))],
)
# instructions that are not valid Unicode are refused by the run's check
@example(
    strategy=Strategy.USER_GUIDED,
    pieces=["{{instructions}}", "{{tools}}"],
    schema_at=(0,),
    examples=None,
    instructions="stir \udcff well",
    dishes=[DishSpec("x", "soup", ("salt",))],
)
# no dish field at all: every prompt is the prefix
@example(
    strategy=Strategy.USER_GUIDED,
    pieces=["{{instructions}}"],
    schema_at=(0,),
    examples=None,
    instructions="use {{tools}} {{schema}} literally",
    dishes=[DishSpec("x", "soup", ("salt",)), DishSpec("y", "stew", ("salt",))],
)
def test_compiled_render_matches_the_reference(
    strategy, pieces, schema_at, examples, instructions, dishes
):
    for at in schema_at:
        pieces = [*pieces[:at], "{{schema}}", *pieces[at:]]
    template = "".join(pieces)
    inputs = {"examples": examples, "instructions": instructions, "template": template}
    want = [_reference_render(strategy, dish, **inputs) for dish in dishes]
    one_off = []
    for dish in dishes:
        try:
            bundle = render_for_dish(strategy, dish, **inputs)
            one_off.append((bundle.text, bundle.context_hash))
        except PromptError as exc:
            one_off.append(str(exc))
    assert one_off == want
    try:
        compiled = CompiledTemplate(strategy, **inputs)
    except PromptError as exc:
        # every check is the run's, so the reference fails every dish alike
        assert want == [str(exc)] * len(dishes)
        return
    bundles = [compiled.render(dish) for dish in dishes]
    assert [(b.text, b.context_hash) for b in bundles] == want
    assert all(b.strategy is strategy for b in bundles)


@pytest.mark.parametrize("strategy", list(Strategy))
def test_packaged_templates_match_the_reference(strategy, examples):
    inputs = {"examples": examples, "instructions": "stir {{tools}} gently"}
    dishes = [
        DishSpec("Dinner", "Pot Roast", ("beef", "carrot"), ("pot",)),
        DishSpec("dessert", "crème brûlée", ("cream", "sugar", "egg")),
    ]
    compiled = CompiledTemplate(strategy, **inputs)
    for dish in dishes:
        want = _reference_render(strategy, dish, **inputs)
        got = compiled.render(dish)
        assert (got.text, got.context_hash) == want
        bundle = render_for_dish(strategy, dish, **inputs)
        assert (bundle.text, bundle.context_hash) == want
        # a bundle built from its text alone hashes it the same way
        assert PromptBundle(strategy, bundle.text) == bundle
