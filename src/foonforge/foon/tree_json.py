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
"""

from __future__ import annotations

import json
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
    except json.JSONDecodeError as exc:
        raise TaskTreeJsonError(f"not valid JSON: {exc}") from exc

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


def _node_to_obj(node: ObjectNode) -> dict[str, Any]:
    obj: dict[str, Any] = {"name": node.name, "states": list(node.states)}
    if node.ingredients:
        obj["ingredients"] = list(node.ingredients)
    return obj


def tree_to_obj(tree: TaskTree) -> dict[str, Any]:
    """Plain-dict rendering with deterministic key order."""
    return {
        "goal": _node_to_obj(tree.goal),
        "functional_units": [
            {
                "inputs": [_node_to_obj(n) for n in unit.inputs],
                "motion": unit.motion.name,
                "outputs": [_node_to_obj(n) for n in unit.outputs],
            }
            for unit in tree.units
        ],
    }


def serialize_task_tree_json(tree: TaskTree, *, indent: int | None = 2) -> str:
    """Deterministic serialization; reparses to an equal tree."""
    return json.dumps(tree_to_obj(tree), indent=indent, ensure_ascii=False)
