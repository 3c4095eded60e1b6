"""Deterministic prompt construction for the three prompting strategies.

Templates are plain UTF-8 files with ``{{placeholder}}`` substitution.
Recognized placeholders: ``dish_name``, ``category``, ``ingredients``,
``tools``, ``schema``, plus one of ``examples``, ``instructions``, or
``availability`` depending on the strategy. Every template must contain
``{{schema}}`` exactly once so each rendered prompt carries the output
contract exactly once. Substitution is single-pass: substituted values
are never rescanned for placeholders.

Rendering is pure; equal inputs yield byte-identical prompts and equal
context hashes.
"""

from __future__ import annotations

import functools
import hashlib
import logging
import re
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Sequence

from .errors import InvalidNodeError, PromptError, TaskTreeError
from .foon.model import TaskTree, normalize_token
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

    @classmethod
    def from_name(cls, name: str) -> "Strategy":
        try:
            return cls(name.strip().lower())
        except ValueError:
            valid = ", ".join(s.value for s in cls)
            raise PromptError(f"unknown strategy {name!r}, expected one of: {valid}") from None


_TEMPLATE_FILES = {
    Strategy.EXAMPLE_BASED: "example_based.txt",
    Strategy.USER_GUIDED: "user_guided.txt",
    Strategy.CONTEXTUAL: "contextual.txt",
}


@dataclass(frozen=True)
class DishSpec:
    """One requested dish: category, name, ingredients, and tools."""

    category: str
    name: str
    ingredients: tuple[str, ...]
    tools: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "category", normalize_token(self.category))
        name = normalize_token(self.name)
        if not name:
            raise InvalidNodeError("dish name must not be empty")
        object.__setattr__(self, "name", name)
        ingredients = tuple(normalize_token(i) for i in self.ingredients)
        if not ingredients or any(not i for i in ingredients):
            raise InvalidNodeError(f"dish {name!r} needs a non-empty ingredients list")
        if len(set(ingredients)) != len(ingredients):
            raise InvalidNodeError(f"dish {name!r} has duplicate ingredients")
        object.__setattr__(self, "ingredients", ingredients)
        tools: list[str] = []
        for raw in self.tools:
            tool = normalize_token(raw)
            if tool and tool not in tools:
                tools.append(tool)
        object.__setattr__(self, "tools", tuple(tools))


@dataclass(frozen=True)
class PromptBundle:
    """A rendered prompt plus the stable hash replay fixtures key on."""

    strategy: Strategy
    text: str
    examples_used: int = 0
    context_hash: str = field(default="")

    def __post_init__(self):
        if not self.text:
            raise PromptError("rendered prompt must not be empty")
        if not self.context_hash:
            object.__setattr__(self, "context_hash", context_hash(self.strategy, self.text))


def context_hash(strategy: Strategy, text: str) -> str:
    """Stable hex digest of a prompt; the replay fixture key."""
    return hashlib.sha256(f"{strategy.value}\n{text}".encode("utf-8")).hexdigest()


@functools.cache
def default_template(strategy: Strategy) -> str:
    """The packaged template for a strategy, read once per process."""
    return read_data_text("templates", _TEMPLATE_FILES[strategy])


def _render_list(items: Iterable[str]) -> str:
    deduped = sorted({normalize_token(i) for i in items if normalize_token(i)})
    return ", ".join(deduped) if deduped else "none"


def _substitute(template: str, values: dict[str, str]) -> str:
    if template.count("{{schema}}") != 1:
        raise PromptError("template must contain {{schema}} exactly once")

    def repl(match: re.Match) -> str:
        name = match.group(1)
        if name not in values:
            raise PromptError(f"template uses unknown placeholder {{{{{name}}}}}")
        return values[name]

    return _PLACEHOLDER.sub(repl, template)


def _render(strategy: Strategy, dish: DishSpec, template: str | None, **extra: str) -> str:
    """Fill a template, the strategy's packaged one by default, for one dish."""
    values = {
        "dish_name": dish.name,
        "category": dish.category or "uncategorized",
        "ingredients": _render_list(dish.ingredients),
        "tools": _render_list(dish.tools),
        "schema": OUTPUT_SCHEMA,
        **extra,
    }
    return _substitute(template if template is not None else default_template(strategy), values)


def annotate_example(tree: TaskTree) -> str:
    """One-line annotation naming an example's key elements.

    The trailing list holds the tree's leaf input objects, i.e. the items
    you must have on hand before the first step.
    """
    leaves = sorted(
        {
            node.name
            for unit in tree.units
            for node in unit.inputs
            if node.key not in tree.graph.produced_keys
        }
    )
    steps = len(tree.units)
    return f"# example: {tree.goal.name}, {steps} step{'s' if steps != 1 else ''}, tools: {', '.join(leaves)}"


@functools.lru_cache(maxsize=4)
def _example_block(examples: tuple[TaskTree, ...]) -> str:
    """Annotated example trees, built once per set; equal trees render alike."""
    return "\n\n".join(
        annotate_example(tree) + "\n" + serialize_task_tree_json(tree) for tree in examples
    )


def render_example_based(
    dish: DishSpec,
    examples: Sequence[TaskTree],
    template: str | None = None,
) -> PromptBundle:
    """Few-shot prompt: annotated example trees, then the dish request."""
    if not examples:
        raise PromptError("example-based prompts need at least one example tree")
    text = _render(
        Strategy.EXAMPLE_BASED, dish, template, examples=_example_block(tuple(examples))
    )
    return PromptBundle(Strategy.EXAMPLE_BASED, text, examples_used=len(examples))


def render_user_guided(
    dish: DishSpec,
    instructions: str,
    template: str | None = None,
) -> PromptBundle:
    """Prompt embedding the user's instructions verbatim."""
    if not instructions or not instructions.strip():
        raise PromptError("user-guided prompts need non-empty instructions")
    text = _render(Strategy.USER_GUIDED, dish, template, instructions=instructions)
    return PromptBundle(Strategy.USER_GUIDED, text)


def render_contextual(
    dish: DishSpec,
    available_tools: Sequence[str],
    available_ingredients: Sequence[str],
    template: str | None = None,
) -> PromptBundle:
    """Prompt constrained to the kitchen's available resources."""
    tools = [t for t in available_tools if normalize_token(t)]
    ingredients = [i for i in available_ingredients if normalize_token(i)]
    if not tools and not ingredients:
        raise PromptError("contextual prompts need at least one availability list")
    availability = (
        f"Available tools: {_render_list(tools)}\n"
        f"Available ingredients: {_render_list(ingredients)}"
    )
    text = _render(Strategy.CONTEXTUAL, dish, template, availability=availability)
    return PromptBundle(Strategy.CONTEXTUAL, text)


def load_examples(directory: str | Path) -> list[TaskTree]:
    """Parse every ``*.json`` file in a directory, ordered by filename.

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
    return trees


def render_for_dish(
    strategy: Strategy,
    dish: DishSpec,
    *,
    examples: Sequence[TaskTree] = (),
    instructions: str | None = None,
    template: str | None = None,
) -> PromptBundle:
    """Strategy dispatch used by the generation pipeline.

    Contextual prompts draw their availability lists from the dish spec
    itself: the listed tools and ingredients are what the kitchen has.
    """
    if strategy is Strategy.EXAMPLE_BASED:
        return render_example_based(dish, examples, template)
    if strategy is Strategy.USER_GUIDED:
        if instructions is None:
            raise PromptError("user-guided strategy requires instructions")
        return render_user_guided(dish, instructions, template)
    return render_contextual(dish, dish.tools, dish.ingredients, template)
