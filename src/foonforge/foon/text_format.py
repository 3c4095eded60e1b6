"""Line-oriented text format for object-motion graphs.

Within a unit every record is one tab-separated line::

    O<TAB>name      open an object node
    I<TAB>a,b,c     contained ingredients of the object opened above
    S<TAB>state     one state of the object opened above
    M<TAB>verb      the unit's single motion

Input objects come first, then exactly one ``M`` line, then output
objects. Units are separated by a line containing exactly ``//``. Blank
lines are ignored on input and never emitted; the canonical serialized
form lists ``O``, then ``I``, then ``S`` lines per object, with states in
sorted order, and ends with a trailing newline.

Cost: parsing is one pass over the lines, and each unit is built when
its ``//`` line (or the end of the text) closes it. A memo maps each
object's raw name, states and ingredients, and each motion's raw text,
to the built node; it lives for one parse and is dropped with it, so an
object the graph mentions again is one dict lookup, and a new object is
built and checked in one call, over all its tokens (see ``build_node``).
"""

from __future__ import annotations

from ..errors import FoonSyntaxError, InvalidNodeError
from .model import FoonGraph, FunctionalUnit, MotionNode, ObjectNode, build_node, build_unit

_SEPARATOR = "//"


def parse_foon_text(source: str) -> FoonGraph:
    """Parse the text format into a graph, preserving unit order.

    Raises :class:`FoonSyntaxError` with a line number for malformed
    records, units without inputs or outputs, and duplicate motion lines.
    """
    # raw object and motion text -> built node, for this parse only
    memo: dict = {}
    units: list[FunctionalUnit] = []
    chunk: list[tuple[int, str]] = []
    for lineno, line in enumerate(source.splitlines(), start=1):
        if line == _SEPARATOR:
            if chunk:
                units.append(_parse_unit(chunk, memo))
                chunk = []
        elif line and not line.isspace():
            chunk.append((lineno, line))
    if chunk:
        units.append(_parse_unit(chunk, memo))
    if not units:
        raise FoonSyntaxError("no functional units found")
    return FoonGraph(tuple(units))


def _parse_unit(chunk: list[tuple[int, str]], memo: dict) -> FunctionalUnit:
    inputs: list[ObjectNode] = []
    outputs: list[ObjectNode] = []
    motion: MotionNode | None = None
    motion_line = 0
    # objects opened before the motion line are inputs, after it outputs
    section = inputs
    # the open object: its name, line, states and ingredients, until the
    # next O or M line, or the end of the unit, closes it
    name: str | None = None
    name_line = 0
    states: list[str] = []
    ingredients: list[str] | None = None

    for lineno, line in chunk:
        tag, sep, value = line.partition("\t")
        if not sep or not value:
            raise FoonSyntaxError(
                f"expected '<tag>\\t<value>', got {line!r}", line=lineno
            )
        if tag == "S":
            if name is None:
                raise FoonSyntaxError("state line without a preceding object line", line=lineno)
            states.append(value)
        elif tag == "O":
            if name is not None:
                section.append(_object_node(memo, name, states, ingredients, name_line))
            name, name_line, states, ingredients = value, lineno, [], None
        elif tag == "I":
            if name is None:
                raise FoonSyntaxError(
                    "ingredients line without a preceding object line", line=lineno
                )
            if ingredients is not None:
                raise FoonSyntaxError("duplicate ingredients line for one object", line=lineno)
            ingredients = value.split(",")
        elif tag == "M":
            if motion is not None:
                raise FoonSyntaxError("duplicate motion line in unit", line=lineno)
            if name is not None:
                section.append(_object_node(memo, name, states, ingredients, name_line))
                name = None
            section = outputs
            # motion keys are strings, object keys tuples: they never collide
            motion = memo.get(value)
            if motion is None:
                try:
                    motion = memo[value] = MotionNode(value)
                except InvalidNodeError as exc:
                    raise FoonSyntaxError(str(exc), line=lineno) from exc
            motion_line = lineno
        else:
            raise FoonSyntaxError(
                f"unknown record tag {tag!r}, expected O, S, I, or M", line=lineno
            )
    if name is not None:
        section.append(_object_node(memo, name, states, ingredients, name_line))

    if motion is None:
        raise FoonSyntaxError("unit has no motion line", line=chunk[0][0])
    if not inputs:
        raise FoonSyntaxError("unit has no input objects", line=motion_line)
    if not outputs:
        raise FoonSyntaxError("unit has no output objects", line=motion_line)
    return build_unit(tuple(inputs), motion, tuple(outputs))


def _object_node(
    memo: dict, name: str, states: list[str], ingredients: list[str] | None, line: int
) -> ObjectNode:
    """The built node; a repeat of an earlier object in the same parse is
    a dict lookup, since that one passed every check."""
    key = (name, tuple(states), tuple(ingredients or ()))
    node = memo.get(key)
    if node is None:
        try:
            node = memo[key] = build_node(*key)
        except InvalidNodeError as exc:
            raise FoonSyntaxError(str(exc), line=line) from exc
    return node


def serialize_foon_text(graph: FoonGraph) -> str:
    """Canonical text rendering; an empty graph serializes to "".

    ``parse_foon_text(serialize_foon_text(g)) == g`` for every graph built
    from this module's types.
    """
    if not graph.units:
        return ""
    blocks = []
    for unit in graph.units:
        lines: list[str] = []
        for node in unit.inputs:
            _emit(node, lines)
        lines.append(f"M\t{unit.motion.name}")
        for node in unit.outputs:
            _emit(node, lines)
        blocks.append("\n".join(lines))
    return ("\n" + _SEPARATOR + "\n").join(blocks) + "\n"


def _emit(node: ObjectNode, lines: list[str]) -> None:
    lines.append(f"O\t{node.name}")
    if node.ingredients:
        lines.append("I\t" + ",".join(node.ingredients))
    for state in node.states:
        lines.append(f"S\t{state}")
