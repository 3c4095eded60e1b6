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

Cost: after ``json.loads``, a tree is built in one pass, linear in its
node mentions. A memo maps each raw node (its name, states and
ingredients as written) and each raw verb to the built one, so a node
mentioned again (every intermediate product is an output and then an
input) is one dict lookup. A caller that parses many trees in one
command passes one memo to every parse (``nodes=``): a ``generate``
run's answers, and the reports an ``evaluate`` loads, keep naming the
same water, salt and pot, and each is built and checked once per
command. The memo is safe to share because the same raw tokens always
build the same node, nodes and verbs are immutable, and only a node or
verb that passed its checks enters it. A new node's name, states and
ingredients reuse the raw string or tuple that normalizing leaves
unchanged (see :func:`~.model.scanned_node`), so the memo's key and the
node hold one copy of them. Without a memo a parse makes its own and
drops it. A source that is ASCII and holds no backslash, as serialized
trees and 203 of the 209 distinct shipped answer texts are, cannot hold
a token with a tab, a line break or a lone surrogate (strict decoding
refuses a raw control character in a string, and any other such
character is not ASCII), so its new nodes and verbs are built by
``scanned_node`` and ``scanned_motion`` without scanning for them; any
other source builds each with ``ObjectNode(...)`` or
``MotionNode(...)``, which scan. The tree is validated once and built
with its report already in place, so no read of
:attr:`~.model.TaskTree.validation` computes it again. A schema error's
JSON pointer is built only when the error is raised. It shows in
``tree_json.parse.busy_s``, and on workloads of many small trees, whose
fixed cost per tree counts most, in ``generate_s.p50`` of
``manifest-2k`` and ``evaluate_s.p50`` of ``replay-34``.

Serialization writes the indent-2 text for this one fixed shape
directly, encoding each string with the C ``encode_basestring`` that
``json.dumps(ensure_ascii=False)`` uses: ``json.dumps`` runs its C
encoder only when ``indent`` is ``None``, so with ``indent=2`` every
dict and list of a tree would go through the pure-Python encoder. The
output is byte-identical to ``json.dumps(indent=2,
ensure_ascii=False)``, which matters: serialized example trees are part
of every example-based prompt, so one changed byte changes the context
hash every replay fixture is keyed on. Cost: one text per distinct node
object, kept for the length of the call, so an intermediate product is
written once, not once as an output and again as an input; a node's
arrays are laid out with constants rather than through
:func:`string_array`. It shows in ``tree_json.serialize.busy_s``.
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
from . import validation
from .model import (
    FunctionalUnit,
    MotionNode,
    ObjectNode,
    TaskTree,
    build_unit,
    parsed_graph,
    parsed_tree,
    scanned_motion,
    scanned_node,
)


def parse_task_tree_json(source: str, *, nodes: dict | None = None) -> TaskTree:
    """Parse and fully validate a task tree.

    The report stays cached on the tree for scoring and the CLI to reuse.
    A tree that breaks a structural rule raises
    :class:`TaskTreeStructureError` carrying that report's violations,
    which is how ``validate`` prints them.

    ``nodes`` is the caller's memo of built nodes and verbs, which every
    parse it is given to reads and adds to, so the trees of one command
    share each node they mention (see the module docstring); by default
    a parse starts from an empty one. Only a node or verb that passed
    its checks goes in, so every result, and every error, is that of a
    parse with an empty memo.
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
    if nodes is None:
        nodes = {}
    # One token check for the whole source: strict decoding refuses a raw
    # control character in a string, so a source that is ASCII and holds
    # no backslash yields no token with a tab, a line break or a lone
    # surrogate, and its new nodes skip that scan.
    scanned = source.isascii() and "\\" not in source
    try:
        goal = _parse_node(goal_raw, nodes, scanned)
    except _Misfit as exc:
        raise TaskTreeSchemaError(exc.message, "/goal") from exc.__cause__

    units: list[FunctionalUnit] = []
    try:
        for unit_raw in units_raw:
            units.append(_parse_unit(unit_raw, nodes, scanned))
    except _Misfit as exc:
        raise TaskTreeSchemaError(
            exc.message, f"/functional_units/{len(units)}{exc.where}"
        ) from exc.__cause__
    graph = parsed_graph(tuple(units))

    # read through the module, so that a wrapper put there sees each call
    report = validation.validate_graph(graph, goal)
    if not report.ok:
        first = report.violations[0]
        raise TaskTreeStructureError(
            f"invalid task tree: {first.message}"
            + (f" (+{len(report.violations) - 1} more)" if len(report.violations) > 1 else ""),
            report.violations,
        )
    return parsed_tree(graph, goal, report)


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


def _parse_unit(raw: Any, memo: dict, scanned: bool) -> FunctionalUnit:
    if not isinstance(raw, dict):
        raise _Misfit("functional unit must be an object")
    inputs = _parse_node_list(raw.get("inputs"), memo, scanned, "/inputs")
    outputs = _parse_node_list(raw.get("outputs"), memo, scanned, "/outputs")
    motion_raw = raw.get("motion")
    if not isinstance(motion_raw, str):
        raise _Misfit("motion must be a string", "/motion")
    # motion text keys are strings, node keys tuples: they never collide
    motion = memo.get(motion_raw)
    if motion is None:
        motion = scanned_motion(motion_raw) if scanned else None
        if motion is None:
            try:
                motion = MotionNode(motion_raw)
            except InvalidNodeError as exc:
                raise _Misfit(str(exc), "/motion") from exc
        memo[motion_raw] = motion
    return build_unit(inputs, motion, outputs)


def _parse_node_list(raw: Any, memo: dict, scanned: bool, where: str) -> tuple[ObjectNode, ...]:
    if not isinstance(raw, list):
        raise _Misfit("must be an array of object nodes", where)
    if not raw:
        raise _Misfit("must not be empty", where)
    nodes: list[ObjectNode] = []
    try:
        for node in raw:
            nodes.append(_parse_node(node, memo, scanned))
    except _Misfit as exc:
        raise _Misfit(exc.message, f"{where}/{len(nodes)}") from exc.__cause__
    return tuple(nodes)


def _parse_node(raw: Any, memo: dict, scanned: bool) -> ObjectNode:
    """The built node for a raw one; a node already in ``memo`` is a
    dict lookup, since it passed every check when it went in. A
    new node of a ``scanned`` source is built by ``scanned_node``, and
    by ``ObjectNode(...)`` only when a check fails, to word the error."""
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
        if scanned:
            node = scanned_node(name, key[1], key[2])
            if node is not None:
                memo[key] = node
                return node
        try:
            node = memo[key] = ObjectNode(name, key[1], key[2])
            return node
        except InvalidNodeError as exc:
            cause = exc
    # the traceback of ``cause`` holds this frame: drop it before the
    # frame ends, or the two form a cycle that keeps the memo and the
    # payload alive until a collection, which ``cli.main`` pauses
    try:
        if not isinstance(states, list) or any(not isinstance(s, str) for s in states):
            raise _Misfit("'states' must be an array of strings")
        if not isinstance(ingredients, list) or any(not isinstance(s, str) for s in ingredients):
            raise _Misfit("'ingredients' must be an array of strings")
        raise _Misfit(str(cause)) from cause
    finally:
        del cause


def string_array(values, pad: str) -> str:
    """Strings as an indent-2 JSON array closed at indentation ``pad``,
    laid out as ``json.dumps(indent=2, ensure_ascii=False)`` lays it out."""
    if not values:
        return "[]"
    inner = pad + "  "
    return f"[\n{inner}" + f",\n{inner}".join(map(encode_string, values)) + f"\n{pad}]"


# how ``string_array(values, "          ")`` opens, separates and closes
# the arrays of a unit's nodes, written out for the most frequent case
_NODE_ARRAY_OPEN = "[\n            "
_NODE_ARRAY_SEP = ",\n            "
_NODE_ARRAY_CLOSE = "\n          ]"


def _node_json(node: ObjectNode) -> str:
    """An input or output node, at the depth units list them."""
    name, states, ingredients, _ = node
    if states:
        listed = _NODE_ARRAY_SEP.join(map(encode_string, states))
        states = f"{_NODE_ARRAY_OPEN}{listed}{_NODE_ARRAY_CLOSE}"
    else:
        states = "[]"
    if ingredients:
        contents = _NODE_ARRAY_SEP.join(map(encode_string, ingredients))
        return (
            f'{{\n          "name": {encode_string(name)},\n          "states": {states},\n'
            f'          "ingredients": {_NODE_ARRAY_OPEN}{contents}{_NODE_ARRAY_CLOSE}\n        }}'
        )
    return f'{{\n          "name": {encode_string(name)},\n          "states": {states}\n        }}'


def _nodes_json(nodes: tuple[ObjectNode, ...], texts: dict[int, str]) -> str:
    """A unit's side; ``texts`` maps the ``id`` of each node written so far to its text."""
    if not nodes:
        return "[]"
    listed = []
    for node in nodes:
        text = texts.get(id(node))
        if text is None:
            text = texts[id(node)] = _node_json(node)
        listed.append(text)
    return "[\n        " + ",\n        ".join(listed) + "\n      ]"


def _unit_json(unit: FunctionalUnit, texts: dict[int, str]) -> str:
    inputs, motion, outputs, _, _ = unit
    return (
        f'{{\n      "inputs": {_nodes_json(inputs, texts)},\n'
        f'      "motion": {encode_string(motion.name)},\n'
        f'      "outputs": {_nodes_json(outputs, texts)}\n    }}'
    )


def serialize_task_tree_json(tree: TaskTree) -> str:
    """Deterministic indent-2 serialization; reparses to an equal tree.

    The text is byte-identical to ``json.dumps(obj, indent=2,
    ensure_ascii=False)`` of the tree as a plain dict in the key order
    of the module docstring, with ``ingredients`` only when non-empty.
    """
    name, states, ingredients, _ = tree.goal
    text = (
        f'{{\n  "goal": {{\n    "name": {encode_string(name)},\n'
        f'    "states": {string_array(states, "    ")}'
    )
    if ingredients:
        text += f',\n    "ingredients": {string_array(ingredients, "    ")}'
    units = "[]"
    if tree.units:
        # node texts for this call only: the tree keeps every node alive, so no id is reused
        texts: dict[int, str] = {}
        units = "[\n    " + ",\n    ".join([_unit_json(u, texts) for u in tree.units]) + "\n  ]"
    return f'{text}\n  }},\n  "functional_units": {units}\n}}'
