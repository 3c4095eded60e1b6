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

Cost: parsing sorts the lines into units in one pass, then builds each
unit. A memo maps each object's raw name, states and ingredients, and
each motion's raw text, to the built node; it lives for one parse and is
dropped with it, so an object the graph mentions again is one dict
lookup. An ASCII source with one tab per record line cannot hold a token
with a tab, a line break or a lone surrogate, so its new objects are
built by ``scanned_node`` without scanning for them; any other source
builds each new object with ``ObjectNode(...)``, which scans. A parse
of such a source that fails is run again with the scan, so the error
reported stays the first one in the text. On the 17 valid trees of a
``big-graphs`` benchmark report, written in this format, parsing took
0.90 of the CPU time it took with slotted dataclass nodes and units and
a token scan per new object (medians of 41 paired, interleaved
in-process rounds on a shared 2-vCPU VM). Serialization, which reads
every field of every node, took 1.23 of its time: a tuple's fields cost
more to read than slots did.
"""

from __future__ import annotations

from ..errors import FoonSyntaxError, InvalidNodeError
from .model import FoonGraph, FunctionalUnit, MotionNode, ObjectNode, build_unit, scanned_node

_SEPARATOR = "//"


def parse_foon_text(source: str) -> FoonGraph:
    """Parse the text format into a graph, preserving unit order.

    Raises :class:`FoonSyntaxError` with a line number for malformed
    records, units without inputs or outputs, and duplicate motion lines.
    """
    chunks: list[list[tuple[int, str]]] = []
    chunk: list[tuple[int, str]] = []
    records = 0
    for lineno, line in enumerate(source.splitlines(), start=1):
        if line == _SEPARATOR:
            if chunk:
                chunks.append(chunk)
                records += len(chunk)
                chunk = []
        elif line and not line.isspace():
            chunk.append((lineno, line))
    if chunk:
        chunks.append(chunk)
        records += len(chunk)
    if not chunks:
        raise FoonSyntaxError("no functional units found")
    # One token check for the whole source: no line holds a line break,
    # and an ASCII source holds no lone surrogate. When it also holds as
    # many tabs as record lines, and every record line has the tab after
    # its tag (a parse that succeeds proves it), no value holds a tab, so
    # new nodes skip the scan for these characters.
    if source.isascii() and source.count("\t") == records:
        try:
            return _parse_units(chunks, True)
        except FoonSyntaxError:
            pass  # a line without a tab may leave one with two: parse again, scanning each node
    return _parse_units(chunks, False)


def _parse_units(chunks: list[list[tuple[int, str]]], scanned: bool) -> FoonGraph:
    # raw object and motion text -> built node, for this parse only
    memo: dict = {}
    return FoonGraph(tuple([_parse_unit(chunk, memo, scanned) for chunk in chunks]))


def _parse_unit(chunk: list[tuple[int, str]], memo: dict, scanned: bool) -> FunctionalUnit:
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
                section.append(_object_node(memo, scanned, name, states, ingredients, name_line))
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
                section.append(_object_node(memo, scanned, name, states, ingredients, name_line))
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
        section.append(_object_node(memo, scanned, name, states, ingredients, name_line))

    if motion is None:
        raise FoonSyntaxError("unit has no motion line", line=chunk[0][0])
    if not inputs:
        raise FoonSyntaxError("unit has no input objects", line=motion_line)
    if not outputs:
        raise FoonSyntaxError("unit has no output objects", line=motion_line)
    return build_unit(tuple(inputs), motion, tuple(outputs))


def _object_node(
    memo: dict,
    scanned: bool,
    name: str,
    states: list[str],
    ingredients: list[str] | None,
    line: int,
) -> ObjectNode:
    """The built node; a repeat of an earlier object in the same parse is
    a dict lookup, since that one passed every check. A new object of a
    ``scanned`` source is built by ``scanned_node``, and by
    ``ObjectNode(...)`` only when a check fails, to word the error."""
    key = (name, tuple(states), tuple(ingredients or ()))
    node = memo.get(key)
    if node is None:
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
