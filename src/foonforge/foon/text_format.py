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

Cost: parsing reads each line once, linear in the text, and builds a
unit when the separator after it, or the end of the text, closes it; no
list of a unit's lines is kept. A memo maps each object's raw name,
states and ingredients, and each motion's raw text, to the built node;
it lives for one parse and is dropped with it, so an object the graph
mentions again is one dict lookup. An ASCII source with one tab per
record line cannot hold a token with a tab, a line break or a lone
surrogate, so its new objects and motions are built by ``scanned_node``
and ``scanned_motion`` without scanning for them; any other source
builds each with ``ObjectNode(...)`` or ``MotionNode(...)``, which
scan. The record lines are counted before the pass, by C-level counts
of the separators and of the empty and whitespace lines, so the choice
is made before any unit is built. A parse that skips the scan and fails
is run again with it, so the error reported stays the first one in the
text. Parsing shows in ``text_format.parse.busy_s`` and serialization,
which reads every field of every node, in
``text_format.serialize.busy_s``; on ``big-graphs`` both show in
``convert_s.p50`` and ``validate_s.p50``.
"""

from __future__ import annotations

from ..errors import FoonSyntaxError, InvalidNodeError
from .model import (
    FoonGraph,
    FunctionalUnit,
    MotionNode,
    ObjectNode,
    build_unit,
    parsed_graph,
    scanned_motion,
    scanned_node,
)

_SEPARATOR = "//"


def parse_foon_text(source: str) -> FoonGraph:
    """Parse the text format into a graph, preserving unit order.

    Raises :class:`FoonSyntaxError` with a line number for malformed
    records, units without inputs or outputs, and duplicate motion lines.
    """
    lines = source.splitlines()
    # every line that is not a separator, empty or whitespace is a record
    records = len(lines) - lines.count(_SEPARATOR) - lines.count("") - sum(map(str.isspace, lines))
    if not records:
        raise FoonSyntaxError("no functional units found")
    lines.append(_SEPARATOR)  # closes the last unit
    # One token check for the whole source: no line holds a line break,
    # and an ASCII source holds no lone surrogate. When it also holds as
    # many tabs as record lines, and every record line has the tab after
    # its tag (a parse that succeeds proves it), no value holds a tab, so
    # new nodes skip the scan for these characters.
    if source.isascii() and source.count("\t") == records:
        try:
            return _parse_lines(lines, True)
        except FoonSyntaxError:
            pass  # a line without a tab may leave one with two: parse again, scanning each node
    return _parse_lines(lines, False)


def _parse_lines(lines: list[str], scanned: bool) -> FoonGraph:
    """The units of ``lines``, which end with a separator, in one pass."""
    units: list[FunctionalUnit] = []
    # raw object and motion text -> built node, for this parse only
    memo: dict = {}
    # the open unit, from its first O or M line to the next separator (an
    # S or I line cannot open one: with no object open it is an error)
    first_line = 0
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

    for lineno, line in enumerate(lines, start=1):
        tag, _, value = line.partition("\t")
        if tag == "S" and value:
            if name is None:
                raise FoonSyntaxError("state line without a preceding object line", line=lineno)
            states.append(value)
            continue
        if tag == "I" and value:
            if name is None:
                raise FoonSyntaxError(
                    "ingredients line without a preceding object line", line=lineno
                )
            if ingredients is not None:
                raise FoonSyntaxError("duplicate ingredients line for one object", line=lineno)
            ingredients = value.split(",")
            continue
        if not (value and (tag == "O" or tag == "M") or line == _SEPARATOR):
            if not line or line.isspace():
                continue
            if not value:
                raise FoonSyntaxError(f"expected '<tag>\\t<value>', got {line!r}", line=lineno)
            raise FoonSyntaxError(
                f"unknown record tag {tag!r}, expected O, S, I, or M", line=lineno
            )
        # an O or M line, or a separator, closes the open object
        if tag == "M" and motion is not None:
            raise FoonSyntaxError("duplicate motion line in unit", line=lineno)
        if name is not None:
            key = (name, tuple(states), tuple(ingredients or ()))
            node = memo.get(key)
            if node is None:
                node = _new_object(memo, scanned, key, name_line)
            section.append(node)
            name = None
        if tag == "O":
            name, name_line, states, ingredients = value, lineno, [], None
            first_line = first_line or lineno
        elif tag == "M":
            section = outputs
            # motion keys are strings, object keys tuples: they never collide
            motion = memo.get(value)
            if motion is None:
                motion = scanned_motion(value) if scanned else None
                if motion is None:
                    try:
                        motion = MotionNode(value)
                    except InvalidNodeError as exc:
                        raise FoonSyntaxError(str(exc), line=lineno) from exc
                memo[value] = motion
            motion_line = lineno
            first_line = first_line or lineno
        elif first_line:  # a separator after a unit
            if motion is None:
                raise FoonSyntaxError("unit has no motion line", line=first_line)
            if not inputs:
                raise FoonSyntaxError("unit has no input objects", line=motion_line)
            if not outputs:
                raise FoonSyntaxError("unit has no output objects", line=motion_line)
            units.append(build_unit(tuple(inputs), motion, tuple(outputs)))
            first_line, inputs, outputs, motion = 0, [], [], None
            section = inputs
    return parsed_graph(tuple(units))


def _new_object(memo: dict, scanned: bool, key: tuple, line: int) -> ObjectNode:
    """The node of an object's raw name, states and ingredients, which
    this parse has not met before, added to ``memo``; a repeat is a dict
    lookup, since that one passed every check. A new object of a
    ``scanned`` source is built by ``scanned_node``, and by
    ``ObjectNode(...)`` only when a check fails, to word the error."""
    node = scanned_node(*key) if scanned else None
    if node is None:
        try:
            node = ObjectNode(*key)
        except InvalidNodeError as exc:
            raise FoonSyntaxError(str(exc), line=line) from exc
    memo[key] = node
    return node


def serialize_foon_text(graph: FoonGraph) -> str:
    """Canonical text rendering; an empty graph serializes to "".

    ``parse_foon_text(serialize_foon_text(g)) == g`` for every graph built
    from this module's types.
    """
    if not graph.units:
        return ""
    blocks = []
    for inputs, motion, outputs, _, _ in graph.units:
        lines: list[str] = []
        _emit(inputs, lines)
        lines.append(f"M\t{motion.name}")
        _emit(outputs, lines)
        blocks.append("\n".join(lines))
    return ("\n" + _SEPARATOR + "\n").join(blocks) + "\n"


def _emit(nodes: tuple[ObjectNode, ...], lines: list[str]) -> None:
    for name, states, ingredients, _ in nodes:
        lines.append(f"O\t{name}")
        if ingredients:
            lines.append("I\t" + ",".join(ingredients))
        for state in states:
            lines.append(f"S\t{state}")
