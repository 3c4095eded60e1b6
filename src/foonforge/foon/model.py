"""Core data model for object-motion graphs and task trees.

An object node is identified by its ``(name, states)`` pair, stored as
``ObjectNode.key``: two mentions with the same normalized name and the
same state set are the same node. Names and states are normalized to
trimmed lowercase at construction and states are stored sorted. The
optional ingredients annotation on container objects is not part of the
key, but equality and hashing compare it too: two mentions of one node
with different contents are unequal objects with equal keys, and
:attr:`FoonGraph.node_index` keeps the first one seen. Graph code
matches nodes by key.

No token may hold a tab or a line break: any character at which
``str.splitlines`` breaks a line would split the token's line in the
text format.

All types are immutable after construction and safe to share across
threads, so a parser may hand one built node to every mention of it.

Object nodes and functional units are tuples: a node is ``(name,
states, ingredients, key)`` and a unit ``(inputs, motion, outputs,
input_keys, output_keys)``, with named read-only properties for
callers. Like any tuple, a node or unit equals a plain tuple holding the
same items; graph code tells them apart by type, so validation reports a
plain tuple in a unit as a ``bipartite`` violation.

A node's tokens are checked together in one pass, and only a node that
fails it is checked token by token, which words the error. A parser
whose source cannot hold a tab, a line break or a lone surrogate (see
each parser) skips that pass and builds new nodes with
:func:`scanned_node`, which keeps the checks that remain.

Cost: a node or unit is built by one ``tuple.__new__`` call, so a
parse costs one build per distinct node and one per unit. Reading
costs more than building: a tuple subclass misses the interpreter's
fast paths for exact tuples and for slots, so the kernels unpack a node
or unit when they need most of its items, index it when they need one
or two, and read key sets across a whole graph through item getters, by
``map``. A parser builds its graph and tree around the units without
the dataclass ``__init__`` (:func:`parsed_graph`, :func:`parsed_tree`),
so a small tree pays for its nodes, not its wrappers. The per-layer
metric ``tree_json.parse.busy_s`` shows the build; the kernels' reads
show in ``validation.validate.busy_s`` and ``text_format.serialize.busy_s``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable

from ..errors import InvalidNodeError

if TYPE_CHECKING:
    from .validation import ValidationReport

# (name, sorted states) -- the identity of an object node.
NodeKey = tuple[str, tuple[str, ...]]

# a tab, or any character at which str.splitlines breaks a line; each is
# unprintable, so text that str.isprintable clears needs no scan
_LINE_BREAK = re.compile("[\t\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]")

_new_tuple = tuple.__new__

# item getters, which read a node or unit in C
_node_key = itemgetter(3)
_unit_input_keys = itemgetter(3)
_unit_output_keys = itemgetter(4)


def normalize_token(raw: str) -> str:
    """Trim surrounding whitespace and lowercase.

    All name comparison in the toolkit is case-insensitive because model
    output casing is unstable.
    """
    return raw.strip().lower()


def _checked_token(value, what: str) -> str:
    if not isinstance(value, str):
        raise InvalidNodeError(f"{what} must be a string, got {type(value).__name__}")
    token = normalize_token(value)
    if not token:
        raise InvalidNodeError(f"{what} must not be empty")
    if not token.isprintable() and _LINE_BREAK.search(token):
        raise InvalidNodeError(f"{what} must not contain tabs or newlines: {token!r}")
    require_unicode(token, what)
    return token


class ObjectNode(tuple):
    """An ingredient, utensil, or intermediate product.

    ``states`` describes the condition of the object ("cooked",
    "chopped"). ``ingredients`` lists the contents of a container object;
    entries may not contain commas because the text format stores them
    comma-separated.

    ``ObjectNode(name, states, ingredients)`` checks its raw tokens in
    one pass over their joined text: the join rejects a non-string
    token, then one scan for tabs and line breaks (only of text that is
    not all printable) and one ASCII test (an encode only for non-ASCII
    text) cover every token, since trimming and lowercasing never add
    such a character. :func:`scanned_node` checks the rest. When any
    check fails the tokens go through :func:`_checked_tokens` one by
    one, which words the exact error; that path also accepts the rare
    node the joined scan cannot clear, such as a name with a trailing
    tab.
    """

    __slots__ = ()

    def __new__(cls, name: str, states: Iterable[str] = (), ingredients: Iterable[str] = ()):
        node = None
        try:
            if type(states) is not tuple:
                states = tuple(states)
            if type(ingredients) is not tuple:
                ingredients = tuple(ingredients)
            text = "".join((name, *states, *ingredients))
        except TypeError:  # a field that is not iterable, or a token that is not a string
            pass
        else:
            if (text.isprintable() or not _LINE_BREAK.search(text)) and (
                text.isascii() or _encodes(text)
            ):
                node = scanned_node(name, states, ingredients)
        if node is None:
            token, found, contents = _checked_tokens(name, states, ingredients)
            node = _new_tuple(ObjectNode, (token, found, contents, (token, found)))
        return node  # ObjectNode has no subclasses

    name = property(itemgetter(0), doc="Trimmed lowercase name.")
    states = property(itemgetter(1), doc="Trimmed lowercase states, sorted.")
    ingredients = property(itemgetter(2), doc="Trimmed lowercase contents, sorted, each once.")
    key = property(_node_key, doc="Node identity: ``(name, states)``.")

    def __repr__(self) -> str:
        return f"ObjectNode(name={self[0]!r}, states={self[1]!r}, ingredients={self[2]!r})"

    def __getnewargs__(self):  # copy and pickle rebuild the node through ``__new__``
        return self[:3]

    def describe(self) -> str:
        """Human-readable rendering, e.g. ``macaroni (cooked)``."""
        name, states = self[3]
        if not states:
            return name
        return f"{name} ({', '.join(states)})"


def scanned_node(name: str, states: tuple, ingredients: tuple) -> ObjectNode | None:
    """The node of raw tokens known to hold no tab, line break or lone
    surrogate, or None when a check still to run fails.

    Those checks are that each token is a string and not empty, that no
    state repeats and that no ingredient holds a comma; the caller then
    builds the node with ``ObjectNode(...)``, which words the error.
    """
    try:
        token = name.strip().lower()
        if not states:
            found = ()
        elif len(states) == 1:
            found = (states[0].strip().lower(),)
        else:
            found = sorted([s.strip().lower() for s in states])
            if len(set(found)) != len(found):
                return None
            found = tuple(found)
        if not ingredients:
            contents = ()
        elif "," in "".join(ingredients):
            return None
        else:
            contents = tuple(sorted({s.strip().lower() for s in ingredients}))
    except (AttributeError, TypeError):  # a token that is not a string
        return None
    if not token or "" in found or "" in contents:
        return None
    return _new_tuple(ObjectNode, (token, found, contents, (token, found)))


def _encodes(text: str) -> bool:
    """Whether ``text`` holds no lone surrogate. Test ``isascii`` first:
    it is O(1), and only non-ASCII text can hold one."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _checked_tokens(name, states, ingredients) -> tuple[str, tuple[str, ...], tuple[str, ...]]:
    """The per-token path of ``ObjectNode(...)``: the first bad token
    raises :class:`InvalidNodeError`."""
    name = _checked_token(name, "object name")
    states = tuple(_checked_token(s, "state") for s in states)
    if len(set(states)) != len(states):
        raise InvalidNodeError(f"duplicate states on object {name!r}")
    seen: list[str] = []
    for raw in ingredients:
        token = _checked_token(raw, "contained ingredient")
        if "," in token:
            raise InvalidNodeError(f"contained ingredient must not contain commas: {token!r}")
        if token not in seen:
            seen.append(token)
    return name, tuple(sorted(states)), tuple(sorted(seen))


def require_unicode(text: str, what: str, pointer: str = "") -> None:
    """Reject text holding a lone surrogate, which no UTF-8 file or hash
    input can carry, with :class:`InvalidNodeError` at ``pointer``."""
    if not (text.isascii() or _encodes(text)):
        raise InvalidNodeError(f"{what} must be valid Unicode text: {text!r}", pointer)


# whether an iterable of types holds ObjectNode alone, tested in C:
# ``only_object_nodes(map(type, nodes))``
only_object_nodes = frozenset([ObjectNode]).issuperset


@dataclass(frozen=True, slots=True)
class MotionNode:
    """The action verb connecting a unit's inputs to its outputs.

    Cost: a parse builds one per distinct verb, with the full token
    check, or by :func:`scanned_motion` for a source that needs no scan;
    it shows in ``tree_json.parse.busy_s`` and ``text_format.parse.busy_s``.
    """

    name: str

    def __init__(self, name: str):
        # the frozen __setattr__ does not guard the slot's own setter
        _set_motion_name(self, _checked_token(name, "motion name"))


_set_motion_name = MotionNode.name.__set__
_new_object = object.__new__


def scanned_motion(name: str) -> MotionNode | None:
    """The motion of a raw verb known to hold no tab, line break or lone
    surrogate, or None when it is blank; the caller then builds it with
    ``MotionNode(...)``, which words the error. Cost: one trim and one
    lowercase, and no scan (``tree_json.parse.busy_s``)."""
    token = name.strip().lower()
    if not token:
        return None
    motion = _new_object(MotionNode)
    _set_motion_name(motion, token)
    return motion


class FunctionalUnit(tuple):
    """One manipulation action: input objects, one motion, output objects.

    Arity rules (at least one input and one output, and the requirement
    that a unit change something) are the validator's responsibility, not
    the constructor's, so damaged graphs remain representable and can be
    reported on. The identities on each side, ``input_keys`` and
    ``output_keys``, are built once with the unit; a side's key set
    skips anything that is not an :class:`ObjectNode`, so the validator
    can report it.
    """

    __slots__ = ()

    def __new__(
        cls, inputs: Iterable[ObjectNode], motion: MotionNode, outputs: Iterable[ObjectNode]
    ):
        inputs, outputs = tuple(inputs), tuple(outputs)
        return _new_tuple(cls, (
            inputs,
            motion,
            outputs,
            frozenset([n[3] for n in inputs if isinstance(n, ObjectNode)]),
            frozenset([n[3] for n in outputs if isinstance(n, ObjectNode)]),
        ))

    inputs = property(itemgetter(0), doc="Input objects, as listed.")
    motion = property(itemgetter(1), doc="The unit's motion.")
    outputs = property(itemgetter(2), doc="Output objects, as listed.")
    input_keys = property(_unit_input_keys, doc="Identities of the input objects.")
    output_keys = property(_unit_output_keys, doc="Identities of the output objects.")

    def __repr__(self) -> str:
        return f"FunctionalUnit(inputs={self[0]!r}, motion={self[1]!r}, outputs={self[2]!r})"

    def __getnewargs__(self):  # copy and pickle rebuild the unit through ``__new__``
        return self[:3]


def build_unit(
    inputs: tuple[ObjectNode, ...],
    motion: MotionNode,
    outputs: tuple[ObjectNode, ...],
) -> FunctionalUnit:
    """A unit of two tuples that hold :class:`ObjectNode` instances alone,
    as the parsers build them; its key sets are made in C."""
    return _new_tuple(FunctionalUnit, (
        inputs,
        motion,
        outputs,
        frozenset(map(_node_key, inputs)),
        frozenset(map(_node_key, outputs)),
    ))


@dataclass(frozen=True)
class FoonGraph:
    """A bipartite object-motion graph stored as an ordered list of units."""

    units: tuple[FunctionalUnit, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "units", tuple(self.units))

    @cached_property
    def node_index(self) -> dict[NodeKey, ObjectNode]:
        """First-seen object node for every distinct identity."""
        index: dict[NodeKey, ObjectNode] = {}
        add = index.setdefault
        for inputs, _, outputs, _, _ in self.units:
            for node in inputs:
                if isinstance(node, ObjectNode):
                    add(node[3], node)
            for node in outputs:
                if isinstance(node, ObjectNode):
                    add(node[3], node)
        return index

    @cached_property
    def produced_keys(self) -> frozenset[NodeKey]:
        """Identities that appear as an output of some unit."""
        return frozenset().union(*map(_unit_output_keys, self.units))

    def first_node(self, key: NodeKey) -> ObjectNode | None:
        """``node_index.get(key)``, found by a scan that builds no index
        and stops at the first unit that mentions ``key``."""
        for unit in self.units:
            if key in unit[3]:
                side = unit[0]
            elif key in unit[4]:
                side = unit[2]
            else:
                continue
            for node in side:
                if type(node) is ObjectNode and node[3] == key:
                    return node
        return None

    def nodes_named(self, name: str) -> list[ObjectNode]:
        """The distinct object nodes called ``name``, in the order of
        :attr:`node_index`, found by a scan that builds no index."""
        found: dict[NodeKey, ObjectNode] = {}
        for unit in self.units:
            for side in (unit[0], unit[2]):
                for node in side:
                    if type(node) is ObjectNode and node[0] == name:
                        found.setdefault(node[3], node)
        return list(found.values())


@dataclass(frozen=True)
class UnitIndex:
    """Key sets plus producer and consumer maps of a set of a graph's units.

    Built in one pass by :meth:`build` for the length of one kernel call
    and dropped with it; graphs never hold one, so memory stays with the
    caller that needs the index. Every map is keyed by the unit's index
    in the graph, so an index over some of the units answers with the
    same numbers as one over all of them. ``producers`` lists unit
    indices in ascending order; ``consumers`` holds sets, as the
    dependency edges do.
    """

    inputs: dict[int, frozenset[NodeKey]]
    outputs: dict[int, frozenset[NodeKey]]
    producers: dict[NodeKey, list[int]]
    consumers: dict[NodeKey, set[int]]

    @classmethod
    def build(cls, graph: FoonGraph, members: Iterable[int] | None = None) -> UnitIndex:
        """The index of the units at ``members``, ascending, or of every unit."""
        units = graph.units
        inputs: dict[int, frozenset[NodeKey]] = {}
        outputs: dict[int, frozenset[NodeKey]] = {}
        producers: dict[NodeKey, list[int]] = {}
        consumers: dict[NodeKey, set[int]] = {}
        for i in range(len(units)) if members is None else members:
            unit = units[i]
            inputs[i] = ins = unit[3]
            outputs[i] = outs = unit[4]
            for key in ins:
                consumers.setdefault(key, set()).add(i)
            for key in outs:
                producers.setdefault(key, []).append(i)
        return cls(inputs, outputs, producers, consumers)


@dataclass(frozen=True)
class TaskTree:
    """A goal-rooted graph whose units suffice to produce the goal.

    Cost: :attr:`validation` is computed once per tree, on its first
    read, or by the parser, which builds the tree around the report
    (:func:`parsed_tree`), so no read of a parsed tree takes the cached
    property's lock. That fixed cost per tree shows in
    ``generate_s.p50`` of ``manifest-2k``, a workload of small trees.
    """

    graph: FoonGraph
    goal: ObjectNode

    @property
    def units(self) -> tuple[FunctionalUnit, ...]:
        return self.graph.units

    @cached_property
    def validation(self) -> ValidationReport:
        """Full-rule validation report, computed once per tree."""
        from .validation import validate_graph  # that module imports this one
        return validate_graph(self.graph, self.goal)


def parsed_graph(units: tuple[FunctionalUnit, ...]) -> FoonGraph:
    """``FoonGraph(units)`` for a tuple of units, as the parsers build
    them, without the dataclass ``__init__`` and ``__post_init__``."""
    graph = _new_object(FoonGraph)
    graph.__dict__["units"] = units
    return graph


def parsed_tree(graph: FoonGraph, goal: ObjectNode, report: ValidationReport) -> TaskTree:
    """``TaskTree(graph, goal)`` built without its ``__init__``, holding
    ``report``, which must be ``validate_graph(graph, goal)``, in the
    slot its :attr:`~TaskTree.validation` property would fill."""
    tree = _new_object(TaskTree)
    tree.__dict__.update(graph=graph, goal=goal, validation=report)
    return tree


def make_unit(
    inputs: Iterable[ObjectNode],
    motion: str | MotionNode,
    outputs: Iterable[ObjectNode],
) -> FunctionalUnit:
    """Convenience constructor accepting a bare motion verb."""
    if isinstance(motion, str):
        motion = MotionNode(motion)
    return FunctionalUnit(tuple(inputs), motion, tuple(outputs))
