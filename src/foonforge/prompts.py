"""Deterministic prompt construction for the three prompting strategies.

Templates are plain UTF-8 files with ``{{placeholder}}`` substitution.
Recognized placeholders: ``dish_name``, ``category``, ``ingredients``,
``tools``, ``schema``, plus one of ``examples``, ``instructions``, or
``availability`` depending on the strategy. Every template must contain
``{{schema}}`` exactly once so each rendered prompt carries the output
contract exactly once. Substitution is single-pass: substituted values
are never rescanned for placeholders.

:func:`render_for_dish` is the one renderer: it checks each strategy's
input once (examples, instructions, or the dish's own availability
lists) and fills the template. Rendering is pure; equal inputs yield
byte-identical prompts and equal context hashes.
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
from .resources import read_data_text

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
    built as fast but read each field about four times slower (timeit).
    Cost: a ``manifest-2k`` ``generate``, whose manifest holds 2,000
    dishes, read ``generate_s.p50`` 2.3% lower than when each field was
    set twice, through ``__post_init__`` (8 of 10 alternating benchmark
    pairs on a shared 2-vCPU VM).
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
    always computed from the strategy and the text."""

    strategy: Strategy
    text: str
    context_hash: str = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "context_hash", context_hash(self.strategy, self.text))


def context_hash(strategy: Strategy, text: str) -> str:
    """Stable hex digest of a prompt; the replay fixture key."""
    return hashlib.sha256(f"{strategy.value}\n{text}".encode("utf-8")).hexdigest()


@functools.cache
def default_template(strategy: Strategy) -> str:
    """The packaged template for a strategy, read once per process."""
    return read_data_text("templates", _TEMPLATE_FILES[strategy])


def _substitute(template: str, values: dict[str, str]) -> str:
    if template.count("{{schema}}") != 1:
        raise PromptError("template must contain {{schema}} exactly once")

    def repl(match: re.Match) -> str:
        name = match.group(1)
        if name not in values:
            raise PromptError(f"template uses unknown placeholder {{{{{name}}}}}")
        return values[name]

    return _PLACEHOLDER.sub(repl, template)


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
            trees.append(parse_task_tree_json(file.read_text(encoding="utf-8")))
        except (TaskTreeError, UnicodeDecodeError) as exc:
            log.warning("skipping invalid example %s: %s", file.name, exc)
    return ExampleSet(tuple(trees))


def render_for_dish(
    strategy: Strategy,
    dish: DishSpec,
    *,
    examples: ExampleSet | None = None,
    instructions: str | None = None,
    template: str | None = None,
) -> PromptBundle:
    """Render one dish's prompt under a strategy.

    Example-based prompts need an example set of at least one tree, and
    embed its annotated block; user-guided prompts need non-blank instructions,
    which they embed verbatim; contextual prompts take the kitchen's
    availability from the dish's own tools and ingredients. Inputs
    another strategy uses are ignored. ``template`` overrides the
    strategy's packaged template.
    """
    # DishSpec has normalized and deduplicated both lists; ingredients is never empty
    ingredients = ", ".join(sorted(dish.ingredients))
    tools = ", ".join(sorted(dish.tools)) or "none"
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
    return PromptBundle(strategy, _substitute(template, values))
