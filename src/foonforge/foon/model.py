"""Core data model for object-motion graphs and task trees.

An object node is identified by its ``(name, states)`` pair: two mentions
with the same normalized name and the same state set are the same node.
Names and states are normalized to trimmed lowercase at construction and
states are stored sorted, so dataclass equality coincides with node
identity. The optional ingredients annotation on container objects is
deliberately excluded from identity.

All types are immutable after construction and safe to share across
threads, so a parser may hand one built node to every mention of it.

Cost: a node's key and a unit's input and output key sets are built
once, with the node or unit, and stored on it; nodes, motions and units
use slots. A node's tokens are checked together in one pass, and only a
node that fails it is checked token by token, which words the error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Iterator

from ..errors import InvalidNodeError

if TYPE_CHECKING:
    from .validation import ValidationReport

# (name, sorted states) -- the identity of an object node.
NodeKey = tuple[str, tuple[str, ...]]


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
    if "\t" in token or "\n" in token:
        raise InvalidNodeError(f"{what} must not contain tabs or newlines: {token!r}")
    require_unicode(token, what)
    return token


def _checked_node(name, states, ingredients) -> tuple[str, tuple[str, ...], tuple[str, ...]]:
    """A node's normalized name, sorted states and sorted unique ingredients.

    The checks run once over the node's raw text joined together: the
    join rejects a non-string token, then one scan for tabs and newlines
    and one ASCII test (an encode only for non-ASCII text) cover every
    token, since trimming and lowercasing never add such a character.
    Emptiness, commas and repeated states are checked on the tokens.
    When any check fails the tokens go through :func:`_checked_token`
    one by one, which words the exact error; that path also accepts the
    rare node the joined scan cannot clear, such as a name with a
    trailing tab.
    """
    try:
        states = tuple(states)
        ingredients = tuple(ingredients)
        text = "".join((name, *states, *ingredients))
    except TypeError:  # a field that is not iterable, or a token that is not a string
        return _checked_tokens(name, states, ingredients)
    if "\t" not in text and "\n" not in text and (text.isascii() or _encodes(text)):
        token = name.strip().lower()
        found = sorted([s.strip().lower() for s in states]) if states else []
        contents = sorted({s.strip().lower() for s in ingredients}) if ingredients else []
        if (
            token
            and all(found)
            and all(contents)
            and (len(found) < 2 or len(set(found)) == len(found))
            and not (ingredients and "," in "".join(ingredients))
        ):
            return token, tuple(found), tuple(contents)
    return _checked_tokens(name, states, ingredients)


def _encodes(text: str) -> bool:
    """Whether ``text`` holds no lone surrogate. Test ``isascii`` first:
    it is O(1), and only non-ASCII text can hold one."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _checked_tokens(name, states, ingredients) -> tuple[str, tuple[str, ...], tuple[str, ...]]:
    """The per-token path of :func:`_checked_node`: the first bad token
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


# The node and unit classes write their own ``__init__``: it sets each
# field once on the frozen instance, where a generated one and a
# ``__post_init__`` would set it twice.
_set = object.__setattr__


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
        name, states, ingredients = _checked_node(name, states, ingredients)
        _set(self, "name", name)
        _set(self, "states", states)
        _set(self, "ingredients", ingredients)
        _set(self, "key", (name, states))

    def describe(self) -> str:
        """Human-readable rendering, e.g. ``macaroni (cooked)``."""
        if not self.states:
            return self.name
        return f"{self.name} ({', '.join(self.states)})"


@dataclass(frozen=True, slots=True)
class MotionNode:
    """The action verb connecting a unit's inputs to its outputs."""

    name: str

    def __init__(self, name: str):
        _set(self, "name", _checked_token(name, "motion name"))


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
        _set(self, "inputs", inputs)
        _set(self, "motion", motion)
        _set(self, "outputs", outputs)
        # type-confused nodes are skipped so the validator can report them
        _set(self, "input_keys", frozenset([n.key for n in inputs if isinstance(n, ObjectNode)]))
        _set(self, "output_keys", frozenset([n.key for n in outputs if isinstance(n, ObjectNode)]))


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

    @cached_property
    def validation(self) -> ValidationReport:
        """Full-rule validation report, computed once per tree."""
        from .validation import validate_graph  # that module imports this one
        return validate_graph(self.graph, as_task_tree=True, goal=self.goal)


def make_unit(
    inputs: Iterable[ObjectNode],
    motion: str | MotionNode,
    outputs: Iterable[ObjectNode],
) -> FunctionalUnit:
    """Convenience constructor accepting a bare motion verb."""
    if isinstance(motion, str):
        motion = MotionNode(motion)
    return FunctionalUnit(tuple(inputs), motion, tuple(outputs))
