"""Core data model for object-motion graphs and task trees.

An object node is identified by its ``(name, states)`` pair, stored as
``ObjectNode.key``: two mentions with the same normalized name and the
same state set are the same node. Names and states are normalized to
trimmed lowercase at construction and states are stored sorted. The
optional ingredients annotation on container objects is not part of the
key, but dataclass equality and hashing compare it too: two mentions of
one node with different contents are unequal objects with equal keys,
and :attr:`FoonGraph.node_index` keeps the first one seen. Graph code
matches nodes by key.

No token may hold a tab or a line break: any character at which
``str.splitlines`` breaks a line would split the token's line in the
text format.

All types are immutable after construction and safe to share across
threads, so a parser may hand one built node to every mention of it.

Cost: a node's key and a unit's input and output key sets are built
once, with the node or unit, and stored on it; nodes, motions and units
use slots. A node's tokens are checked together in one pass, and only a
node that fails it is checked token by token, which words the error.
The parsers build each new node with one call to :func:`build_node` and
each unit with one call to :func:`build_unit`, which set the slots of a
blank instance without the class's ``__init__``. ``ObjectNode.__init__``
calls :func:`build_node` too, so the node checks have one owner;
``FunctionalUnit.__init__``, for units built by hand, filters its key
sets so that a unit holding anything but nodes can still be built and
reported. :func:`build_unit` makes a unit's key sets in C, by
``frozenset(map(...))``. In timeit runs on a shared 2-vCPU VM (CPU time
scaled to one machine speed), a one-state node took 1.1-1.3 us to build
against 1.9-2.0 us through ``ObjectNode(...)`` before, and a unit of
three nodes 1.3-1.4 us against 1.6-1.9 us through ``FunctionalUnit``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter
from typing import TYPE_CHECKING, Iterable, Iterator

from ..errors import InvalidNodeError

if TYPE_CHECKING:
    from .validation import ValidationReport

# (name, sorted states) -- the identity of an object node.
NodeKey = tuple[str, tuple[str, ...]]

# a tab, or any character at which str.splitlines breaks a line; each is
# unprintable, so text that str.isprintable clears needs no scan
_LINE_BREAK = re.compile("[\t\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]")


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


def build_node(name, states=(), ingredients=(), node=None) -> ObjectNode:
    """A checked node from raw tokens, in one call.

    ``node`` is a blank instance to fill; the parsers pass none and get a
    new node without the ``ObjectNode.__init__`` call, and ``__init__``
    passes its own instance, so every node is checked here.

    The checks run once over the node's raw text joined together: the
    join rejects a non-string token, then one scan for tabs and line
    breaks (only of text that is not all printable) and one ASCII test
    (an encode only for non-ASCII text) cover every token, since
    trimming and lowercasing never add such a character.
    Emptiness, commas and repeated states are checked on the tokens.
    When any check fails the tokens go through :func:`_checked_token`
    one by one, which words the exact error; that path also accepts the
    rare node the joined scan cannot clear, such as a name with a
    trailing tab.
    """
    ok = False
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
            token = name.strip().lower()
            if not states:
                found = ()
                ok = token
            elif len(states) == 1:
                found = (states[0].strip().lower(),)
                ok = token and found[0]
            else:
                found = sorted([s.strip().lower() for s in states])
                ok = token and all(found) and len(set(found)) == len(found)
                found = tuple(found)
            if not ingredients:
                contents = ()
            else:
                contents = tuple(sorted({s.strip().lower() for s in ingredients}))
                ok = ok and all(contents) and ("," not in text or "," not in "".join(ingredients))
    if not ok:
        token, found, contents = _checked_tokens(name, states, ingredients)
    if node is None:
        node = _new(ObjectNode)
    _set_name(node, token)
    _set_states(node, found)
    _set_ingredients(node, contents)
    _set_key(node, (token, found))
    return node


def _encodes(text: str) -> bool:
    """Whether ``text`` holds no lone surrogate. Test ``isascii`` first:
    it is O(1), and only non-ASCII text can hold one."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _checked_tokens(name, states, ingredients) -> tuple[str, tuple[str, ...], tuple[str, ...]]:
    """The per-token path of :func:`build_node`: the first bad token
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


def require_unicode(text: str, what: str) -> None:
    """Reject text holding a lone surrogate, which no UTF-8 file or hash
    input can carry, with :class:`InvalidNodeError`."""
    if not (text.isascii() or _encodes(text)):
        raise InvalidNodeError(f"{what} must be valid Unicode text: {text!r}")


@dataclass(frozen=True, slots=True)
class ObjectNode:
    """An ingredient, utensil, or intermediate product.

    ``states`` describes the condition of the object ("cooked",
    "chopped"). ``ingredients`` lists the contents of a container object;
    entries may not contain commas because the text format stores them
    comma-separated.
    """

    name: str
    states: tuple[str, ...] = ()
    ingredients: tuple[str, ...] = ()
    # node identity: normalized name plus sorted state set, built once
    key: NodeKey = field(init=False, repr=False, compare=False)

    def __init__(self, name: str, states: Iterable[str] = (), ingredients: Iterable[str] = ()):
        build_node(name, states, ingredients, self)

    def describe(self) -> str:
        """Human-readable rendering, e.g. ``macaroni (cooked)``."""
        if not self.states:
            return self.name
        return f"{self.name} ({', '.join(self.states)})"


# The node and unit classes write their own ``__init__``, and the parsers
# build nodes and units without one (see ``build_node``): either way each
# field is set once, by its slot's own setter, which the frozen
# ``__setattr__`` does not guard; a generated ``__init__`` and a
# ``__post_init__`` would set it twice.
_new = object.__new__
_set_name = ObjectNode.name.__set__
_set_states = ObjectNode.states.__set__
_set_ingredients = ObjectNode.ingredients.__set__
_set_key = ObjectNode.key.__set__
# whether an iterable of types holds ObjectNode alone, tested in C:
# ``only_object_nodes(map(type, nodes))``
only_object_nodes = frozenset([ObjectNode]).issuperset
_node_key = attrgetter("key")


@dataclass(frozen=True, slots=True)
class MotionNode:
    """The action verb connecting a unit's inputs to its outputs."""

    name: str

    def __init__(self, name: str):
        _set_motion_name(self, _checked_token(name, "motion name"))


_set_motion_name = MotionNode.name.__set__


@dataclass(frozen=True, slots=True)
class FunctionalUnit:
    """One manipulation action: input objects, one motion, output objects.

    Arity rules (at least one input and one output, and the requirement
    that a unit change something) are the validator's responsibility, not
    the constructor's, so damaged graphs remain representable and can be
    reported on.
    """

    inputs: tuple[ObjectNode, ...]
    motion: MotionNode
    outputs: tuple[ObjectNode, ...]
    # identities on each side, built once with the unit
    input_keys: frozenset[NodeKey] = field(init=False, repr=False, compare=False)
    output_keys: frozenset[NodeKey] = field(init=False, repr=False, compare=False)

    def __init__(
        self, inputs: Iterable[ObjectNode], motion: MotionNode, outputs: Iterable[ObjectNode]
    ):
        inputs, outputs = tuple(inputs), tuple(outputs)
        _set_inputs(self, inputs)
        _set_motion(self, motion)
        _set_outputs(self, outputs)
        # type-confused nodes are skipped so the validator can report them
        _set_input_keys(self, frozenset([n.key for n in inputs if isinstance(n, ObjectNode)]))
        _set_output_keys(self, frozenset([n.key for n in outputs if isinstance(n, ObjectNode)]))


_set_inputs = FunctionalUnit.inputs.__set__
_set_motion = FunctionalUnit.motion.__set__
_set_outputs = FunctionalUnit.outputs.__set__
_set_input_keys = FunctionalUnit.input_keys.__set__
_set_output_keys = FunctionalUnit.output_keys.__set__


def build_unit(
    inputs: tuple[ObjectNode, ...],
    motion: MotionNode,
    outputs: tuple[ObjectNode, ...],
) -> FunctionalUnit:
    """A unit of two tuples of object nodes, in one call.

    The parsers, whose nodes are all :class:`ObjectNode` instances,
    build their units with it and skip ``FunctionalUnit.__init__``,
    which filters its key sets so that a unit holding anything else
    can be built and reported by the validator.
    """
    unit = _new(FunctionalUnit)
    _set_inputs(unit, inputs)
    _set_motion(unit, motion)
    _set_outputs(unit, outputs)
    _set_input_keys(unit, frozenset(map(_node_key, inputs)))
    _set_output_keys(unit, frozenset(map(_node_key, outputs)))
    return unit


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
        for unit in self.units:
            for node in (*unit.inputs, *unit.outputs):
                if isinstance(node, ObjectNode):
                    index.setdefault(node.key, node)
        return index

    @cached_property
    def produced_keys(self) -> frozenset[NodeKey]:
        """Identities that appear as an output of some unit."""
        return frozenset(key for unit in self.units for key in unit.output_keys)

    def object_nodes(self) -> Iterator[ObjectNode]:
        """Distinct object nodes in first-mention order."""
        return iter(self.node_index.values())


@dataclass(frozen=True)
class UnitIndex:
    """Each unit's key sets plus producer and consumer maps of a graph.

    Built in one pass by :meth:`build` for the length of one kernel call
    and dropped with it; graphs never hold one, so memory stays with the
    caller that needs the index. ``producers`` lists unit indices in
    ascending order; ``consumers`` holds sets, as the dependency edges do.
    """

    inputs: list[frozenset[NodeKey]]
    outputs: list[frozenset[NodeKey]]
    producers: dict[NodeKey, list[int]]
    consumers: dict[NodeKey, set[int]]

    @classmethod
    def build(cls, graph: FoonGraph) -> UnitIndex:
        inputs = [unit.input_keys for unit in graph.units]
        outputs = [unit.output_keys for unit in graph.units]
        producers: dict[NodeKey, list[int]] = {}
        consumers: dict[NodeKey, set[int]] = {}
        for i, (ins, outs) in enumerate(zip(inputs, outputs)):
            for key in ins:
                consumers.setdefault(key, set()).add(i)
            for key in outs:
                producers.setdefault(key, []).append(i)
        return cls(inputs, outputs, producers, consumers)


@dataclass(frozen=True)
class TaskTree:
    """A goal-rooted graph whose units suffice to produce the goal."""

    graph: FoonGraph
    goal: ObjectNode

    @property
    def units(self) -> tuple[FunctionalUnit, ...]:
        return self.graph.units

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """The dataclass hash, of every unit and node, computed once: a
        tree used as a cache key, such as a prompt's example trees, is
        then hashed at no cost per lookup."""
        return hash((self.graph, self.goal))

    @cached_property
    def validation(self) -> ValidationReport:
        """Full-rule validation report, computed once per tree."""
        from .validation import validate_graph  # that module imports this one
        return validate_graph(self.graph, self.goal)


def make_unit(
    inputs: Iterable[ObjectNode],
    motion: str | MotionNode,
    outputs: Iterable[ObjectNode],
) -> FunctionalUnit:
    """Convenience constructor accepting a bare motion verb."""
    if isinstance(motion, str):
        motion = MotionNode(motion)
    return FunctionalUnit(tuple(inputs), motion, tuple(outputs))
