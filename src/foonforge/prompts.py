"""Deterministic prompt construction for the three prompting strategies.

Templates are plain UTF-8 files with ``{{placeholder}}`` substitution.
Recognized placeholders: ``dish_name``, ``category``, ``ingredients``,
``tools``, ``schema``, plus one of ``examples``, ``instructions``, or
``availability`` depending on the strategy. Every template must contain
``{{schema}}`` exactly once so each rendered prompt carries the output
contract exactly once. Substitution is single-pass: substituted values
are never rescanned for placeholders.

:class:`CompiledTemplate` is the one renderer. It checks a run's
inputs once (the strategy's examples or instructions, and the template),
fills in the values every dish shares and hashes the shared prefix once;
then it renders each dish by filling in the dish's own values and
finishing that hash. :func:`render_for_dish` compiles and renders one
dish. Rendering is pure; equal inputs yield byte-identical prompts and
equal context hashes, and each hash is :func:`context_hash` of the
strategy and the whole text, the key a replay fixture is built on.

Cost: see :class:`CompiledTemplate`.
"""

from __future__ import annotations

import functools
import hashlib
import logging
import re
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from .errors import InvalidNodeError, PromptError, TaskTreeError
from .foon.model import TaskTree, require_unicode
from .foon.tree_json import parse_task_tree_json, serialize_task_tree_json
from .resources import read_data_text, read_text

log = logging.getLogger(__name__)

_PLACEHOLDER = re.compile(r"\{\{(\w+)\}\}")

OUTPUT_SCHEMA = """\
Respond with a single JSON object and nothing else, shaped like this:
{
  "goal": {"name": "<dish name>", "states": []},
  "functional_units": [
    {
      "inputs": [{"name": "<object>", "states": ["<state>"], "ingredients": ["<content>"]}],
      "motion": "<action verb>",
      "outputs": [{"name": "<object>", "states": ["<state>"]}]
    }
  ]
}
Rules: every unit needs at least one input and one output; every unit
must change some object's state; intermediate products must be consumed
by a later unit; the goal object must be the output of the final step."""


class Strategy(str, Enum):
    """The three prompting strategies; values double as CLI names."""

    EXAMPLE_BASED = "example-based"
    USER_GUIDED = "user-guided"
    CONTEXTUAL = "contextual"


_TEMPLATE_FILES = {
    Strategy.EXAMPLE_BASED: "example_based.txt",
    Strategy.USER_GUIDED: "user_guided.txt",
    Strategy.CONTEXTUAL: "contextual.txt",
}


@dataclass(frozen=True, slots=True)
class DishSpec:
    """One requested dish: category, name, ingredients, and tools.

    Every text is trimmed and lowercased. The name must not be empty, and
    the ingredients neither empty, blank nor repeated; blank tools are
    dropped and repeated ones kept once, in first-seen order. A text
    holding a lone surrogate is refused at its field's pointer, such as
    ``/ingredients/1``.

    Built in one pass, as :class:`~foonforge.foon.model.ObjectNode`
    builds a node: one ASCII test over the joined text (an encode only for
    non-ASCII text), list comprehensions for the two lists, and each
    field set once, by its slot's own setter, which the frozen
    ``__setattr__`` does not guard. Only a dish that fails a check goes
    field by field, to word the error. Slots keep field reads fast: a
    frozen dataclass that stored its fields through its ``__dict__``
    built as fast but read each field several times slower. Cost: one
    build per dish of a manifest, and per distinct dish of a report,
    each field set once; setting each twice, through ``__post_init__``,
    read higher in ``generate_s.p50`` of ``manifest-2k``, whose manifest
    holds 2,000 dishes.
    """

    category: str
    name: str
    ingredients: tuple[str, ...]
    tools: tuple[str, ...] = ()

    def __init__(self, category: str, name: str, ingredients, tools=()):
        text = "".join((category, name, *ingredients, *tools))
        if not text.isascii():
            try:
                text.encode("utf-8")
            except UnicodeEncodeError:
                _refuse_lone_surrogate(category, name, ingredients, tools)
        token = name.strip().lower()
        found = [item.strip().lower() for item in ingredients]
        if not token or not found or "" in found or len(set(found)) != len(found):
            _refuse_dish(token, found)
        kept = dict.fromkeys([tool.strip().lower() for tool in tools])  # first-seen order
        kept.pop("", None)
        _set_category(self, category.strip().lower())
        _set_name(self, token)
        _set_ingredients(self, tuple(found))
        _set_tools(self, tuple(kept))


_set_category = DishSpec.category.__set__
_set_name = DishSpec.name.__set__
_set_ingredients = DishSpec.ingredients.__set__
_set_tools = DishSpec.tools.__set__


def _refuse_lone_surrogate(category, name, ingredients, tools) -> None:
    """The per-field path of :class:`DishSpec`: name the first text that
    holds a lone surrogate."""
    require_unicode(category, "dish text", "/category")
    require_unicode(name, "dish text", "/name")
    for i, item in enumerate(ingredients):
        require_unicode(item, "dish text", f"/ingredients/{i}")
    for i, tool in enumerate(tools):
        require_unicode(tool, "dish text", f"/tools/{i}")


def _refuse_dish(name: str, ingredients: list[str]) -> None:
    """Word the first fault of a dish's normalized name and ingredients."""
    if not name:
        raise InvalidNodeError("dish name must not be empty", "/name")
    if not ingredients or "" in ingredients:
        where = f"/ingredients/{ingredients.index('')}" if ingredients else "/ingredients"
        raise InvalidNodeError(f"dish {name!r} needs a non-empty ingredients list", where)
    repeat = next(i for i, item in enumerate(ingredients) if item in ingredients[:i])
    raise InvalidNodeError(f"dish {name!r} has duplicate ingredients", f"/ingredients/{repeat}")


@dataclass(frozen=True)
class PromptBundle:
    """A rendered prompt plus the stable hash replay fixtures key on,
    always computed from the strategy and the text.

    Built in one pass: the three fields go into the instance's dict in
    one update. A :class:`CompiledTemplate` sets the hash it finished
    from the run's pre-hashed prefix, which equals :func:`context_hash`
    of the same strategy and text. The instance keeps its dict, so a
    bundle can still be copied, pickled and weakly referenced.
    """

    strategy: Strategy
    text: str
    context_hash: str = field(init=False)

    def __init__(self, strategy: Strategy, text: str):
        self.__dict__.update(
            strategy=strategy, text=text, context_hash=context_hash(strategy, text)
        )


def context_hash(strategy: Strategy, text: str) -> str:
    """Stable hex digest of a prompt; the replay fixture key."""
    return hashlib.sha256(f"{strategy.value}\n{text}".encode("utf-8")).hexdigest()


@functools.cache
def default_template(strategy: Strategy) -> str:
    """The packaged template for a strategy, read once per process."""
    return read_data_text("templates", _TEMPLATE_FILES[strategy])


def annotate_example(tree: TaskTree) -> str:
    """One-line annotation naming an example's key elements.

    The trailing list holds the tree's leaf input objects, i.e. the items
    you must have on hand before the first step.
    """
    produced = tree.graph.produced_keys
    leaves = sorted(
        {
            name
            for inputs, _, _, _, _ in tree.units
            for name, _, _, key in inputs
            if key not in produced
        }
    )
    steps = len(tree.units)
    return f"# example: {tree.goal.name}, {steps} step{'s' if steps != 1 else ''}, tools: {', '.join(leaves)}"


@dataclass(frozen=True)
class ExampleSet:
    """The example trees of example-based prompts, plus the annotated
    block every such prompt embeds, built once when the set is made."""

    trees: tuple[TaskTree, ...]
    block: str = field(init=False)

    def __post_init__(self):
        shown = (annotate_example(t) + "\n" + serialize_task_tree_json(t) for t in self.trees)
        object.__setattr__(self, "block", "\n\n".join(shown))


def load_examples(directory: str | Path) -> ExampleSet:
    """Parse every ``*.json`` file in a directory, ordered by filename,
    into one :class:`ExampleSet`.

    Files that fail to parse are logged by name and skipped.
    """
    path = Path(directory)
    if not path.is_dir():
        raise PromptError(f"examples directory not found: {path}")
    trees: list[TaskTree] = []
    for file in sorted(path.glob("*.json")):
        try:
            trees.append(parse_task_tree_json(read_text(file)))
        except (TaskTreeError, UnicodeDecodeError) as exc:
            log.warning("skipping invalid example %s: %s", file.name, exc)
    return ExampleSet(tuple(trees))


# the placeholders a dish fills in, by the number of the dish's own value
_DISH_FIELDS = {"dish_name": 0, "category": 1, "ingredients": 2, "tools": 3}
_CONTEXTUAL_FIELDS = {**_DISH_FIELDS, "availability": 4}


class CompiledTemplate:
    """One run's template, checked and split once, that renders each
    dish's prompt.

    Example-based prompts need an example set of at least one tree, and
    embed its annotated block; user-guided prompts need non-blank
    instructions, which they embed verbatim; contextual prompts take the
    kitchen's availability from the dish's own tools and ingredients.
    Inputs another strategy uses are ignored. ``template`` overrides the
    strategy's packaged template. Every :class:`PromptError` is raised
    here, in this order: the strategy's input, then the ``{{schema}}``
    count, then the first unknown placeholder.

    Compiling fills in the run-constant values (the example block, the
    instructions, the schema) and splits the text at the first
    placeholder that a dish fills in. The part before it is the prefix,
    and ``"<strategy>\n"`` plus the prefix is hashed once; the rest is
    kept as its pieces, with a slot for each of the dish's own values.
    :meth:`render` fills the slots, joins the pieces, appends them to the
    prefix, and finishes a copy of the prefix's hash, so each prompt's
    text and hash are those of :func:`context_hash` over the whole text.

    Cost: the prefix is the share of each prompt that a run renders and
    hashes once: on the shipped 34-dish manifest, most of an
    example-based prompt and about a third of a user-guided or
    contextual one. Each dish then costs one fill of the slots, one join
    and one hash of its own part, where checking the template,
    substituting it by a regex and hashing the whole text for each dish
    cost more; it shows in ``generate_s.p50`` of ``manifest-2k``, which
    renders 2,000 example-based prompts. A one-off render, which
    compiles for its one dish, costs a little more than such a per-dish
    substitution, since it splits, copies and hashes in two parts what
    that hashes whole.
    """

    __slots__ = ("strategy", "_prefix", "_prefix_hash", "_tail", "_slots")

    def __init__(
        self,
        strategy: Strategy,
        *,
        examples: ExampleSet | None = None,
        instructions: str | None = None,
        template: str | None = None,
    ):
        dish_fields = _DISH_FIELDS
        if strategy is Strategy.EXAMPLE_BASED:
            if examples is None or not examples.trees:
                raise PromptError("example-based prompts need at least one example tree")
            constants = {"examples": examples.block}
        elif strategy is Strategy.USER_GUIDED:
            if not instructions or not instructions.strip():
                raise PromptError("user-guided prompts need non-empty instructions")
            try:
                require_unicode(instructions, "instructions")
            except InvalidNodeError as exc:
                raise PromptError(str(exc)) from None
            constants = {"instructions": instructions}
        else:
            constants = {}
            dish_fields = _CONTEXTUAL_FIELDS
        constants["schema"] = OUTPUT_SCHEMA
        if template is None:
            template = default_template(strategy)
        if template.count("{{schema}}") != 1:
            raise PromptError("template must contain {{schema}} exactly once")

        # literal text at even indices, placeholder names at odd ones;
        # substituted values are never rescanned
        pieces = _PLACEHOLDER.split(template)
        first = None  # the index of the first placeholder a dish fills in
        slots = []  # (index in the tail, number of the dish value) per such placeholder
        for i in range(1, len(pieces), 2):
            name = pieces[i]
            if name in constants:
                pieces[i] = constants[name]
            elif name in dish_fields:
                if first is None:
                    first = i
                slots.append((i - first, dish_fields[name]))
            else:
                raise PromptError(f"template uses unknown placeholder {{{{{name}}}}}")
        if first is None:
            first = len(pieces)
        self.strategy = strategy
        self._prefix = "".join(pieces[:first])
        self._prefix_hash = hashlib.sha256(f"{strategy.value}\n{self._prefix}".encode("utf-8"))
        self._tail = pieces[first:]
        self._slots = slots

    def render(self, dish: DishSpec) -> PromptBundle:
        """The prompt for one dish."""
        # DishSpec has normalized and deduplicated both lists; ingredients is never empty
        ingredients = ", ".join(sorted(dish.ingredients))
        tools = ", ".join(sorted(dish.tools)) or "none"
        values = (
            dish.name,
            dish.category or "uncategorized",
            ingredients,
            tools,
            f"Available tools: {tools}\nAvailable ingredients: {ingredients}",
        )
        parts = self._tail.copy()
        for index, number in self._slots:
            parts[index] = values[number]
        tail = "".join(parts)
        digest = self._prefix_hash.copy()
        digest.update(tail.encode("utf-8"))
        bundle = object.__new__(PromptBundle)
        bundle.__dict__.update(
            strategy=self.strategy, text=self._prefix + tail, context_hash=digest.hexdigest()
        )
        return bundle


def render_for_dish(
    strategy: Strategy,
    dish: DishSpec,
    *,
    examples: ExampleSet | None = None,
    instructions: str | None = None,
    template: str | None = None,
) -> PromptBundle:
    """Render one dish's prompt under a strategy: a
    :class:`CompiledTemplate` of the inputs, rendering the one dish.

    A run of many dishes compiles its template once instead (see
    :func:`~foonforge.pipeline.run_generation`).
    """
    compiled = CompiledTemplate(
        strategy, examples=examples, instructions=instructions, template=template
    )
    return compiled.render(dish)
