"""Core data model for object-motion graphs and task trees.

An object node is identified by its ``(name, states)`` pair: two mentions
with the same normalized name and the same state set are the same node.
Names and states are normalized to trimmed lowercase at construction and
states are stored sorted, so dataclass equality coincides with node
identity. The optional ingredients annotation on container objects is
deliberately excluded from identity.

All types are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def require_unicode(text: str, what: str) -> None:
    """Reject text holding a lone surrogate, which no UTF-8 file or hash
    input can carry, with :class:`InvalidNodeError`."""
    if not text.isascii():  # O(1); only non-ASCII text can hold a lone surrogate
        try:
            text.encode("utf-8")
        except UnicodeEncodeError:
            raise InvalidNodeError(f"{what} must be valid Unicode text: {text!r}") from None


@dataclass(frozen=True)
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

    def __post_init__(self):
        object.__setattr__(self, "name", _checked_token(self.name, "object name"))
        states = tuple(_checked_token(s, "state") for s in self.states)
        if len(set(states)) != len(states):
            raise InvalidNodeError(f"duplicate states on object {self.name!r}")
        object.__setattr__(self, "states", tuple(sorted(states)))
        seen: list[str] = []
        for raw in self.ingredients:
            token = _checked_token(raw, "contained ingredient")
            if "," in token:
                raise InvalidNodeError(f"contained ingredient must not contain commas: {token!r}")
            if token not in seen:
                seen.append(token)
        object.__setattr__(self, "ingredients", tuple(sorted(seen)))

    @property
    def key(self) -> NodeKey:
        """Node identity: normalized name plus sorted state set."""
        return (self.name, self.states)

    def describe(self) -> str:
        """Human-readable rendering, e.g. ``macaroni (cooked)``."""
        if not self.states:
            return self.name
        return f"{self.name} ({', '.join(self.states)})"


@dataclass(frozen=True)
class MotionNode:
    """The action verb connecting a unit's inputs to its outputs."""

    name: str

    def __post_init__(self):
        object.__setattr__(self, "name", _checked_token(self.name, "motion name"))


@dataclass(frozen=True)
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

    def __post_init__(self):
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "outputs", tuple(self.outputs))

    @property
    def input_keys(self) -> frozenset[NodeKey]:
        # type-confused nodes are skipped so the validator can report them
        return frozenset(n.key for n in self.inputs if isinstance(n, ObjectNode))

    @property
    def output_keys(self) -> frozenset[NodeKey]:
        return frozenset(n.key for n in self.outputs if isinstance(n, ObjectNode))


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


def merge_graphs(a: FoonGraph, b: FoonGraph) -> FoonGraph:
    """Unit-level union of two graphs.

    Exact-duplicate units (equal inputs, motion, and outputs) collapse to
    a single occurrence; first occurrence wins the position. Node
    identities merge implicitly because identity is value-based.
    """
    units: list[FunctionalUnit] = []
    seen: set[FunctionalUnit] = set()
    for unit in (*a.units, *b.units):
        if unit not in seen:
            seen.add(unit)
            units.append(unit)
    return FoonGraph(tuple(units))


def make_unit(
    inputs: Iterable[ObjectNode],
    motion: str | MotionNode,
    outputs: Iterable[ObjectNode],
) -> FunctionalUnit:
    """Convenience constructor accepting a bare motion verb."""
    if isinstance(motion, str):
        motion = MotionNode(motion)
    return FunctionalUnit(tuple(inputs), motion, tuple(outputs))
