"""Structural validation of graphs and task trees.

Violations are data, not exceptions: callers decide whether a broken
graph is an error. Rule identifiers are stable strings so reports can be
matched programmatically.

Cost: every check is linear in the number of units and their nodes,
and most of the work is done per unit, in C. A unit that is well formed
as a whole (a :class:`MotionNode`, two non-empty sides whose key sets
are disjoint, and :class:`ObjectNode` instances alone) skips the
per-node plain rules. One forward pass over the units finds the goal's
producers and consumers and tests the unit order: when no unit makes an
input of itself or of a unit listed before it, every dependency edge
runs forward, so the graph is acyclic, and connectivity is one backward
pass that keeps the inputs of the units found connected. Only a graph
out of that order builds a :class:`UnitIndex` and the dependency edges,
runs one Kahn pass over their in-degrees and walks back from the goal's
producers; only a graph the Kahn pass finds cyclic goes on to
:mod:`graphlib`, which names the cycle. Retrieval checks each candidate
selection with the same :func:`find_cycle`. The key sets the rules
read are built once per unit, when the unit is built. A unit is a
tuple, whose items cost more to read than the slots of the dataclass it
replaced (see :mod:`~foonforge.foon.model`), so each unit is unpacked
once in the first pass and indexed for its key sets in the others.
Validation shows in ``validation.validate.busy_s`` and, on the large
trees of ``big-graphs``, in ``validate_s``; the timings of the tuple
units against the dataclass ones are in ``BENCH_tuple_nodes.json`` and
``BENCH_node_memo.json``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from graphlib import CycleError, TopologicalSorter
from itertools import chain

from .model import (
    FoonGraph,
    FunctionalUnit,
    MotionNode,
    NodeKey,
    ObjectNode,
    TaskTree,
    UnitIndex,
    only_object_nodes,
)

RULE_BIPARTITE = "bipartite"
RULE_EMPTY_UNIT = "empty-unit"
RULE_NOOP_UNIT = "no-op-unit"
RULE_CYCLE = "cycle"
RULE_GOAL = "goal"
RULE_DISCONNECTED = "disconnected"


@dataclass(frozen=True)
class Violation:
    rule: str
    message: str
    unit_index: int | None = None


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def rules(self) -> frozenset[str]:
        return frozenset(v.rule for v in self.violations)


def unit_dependency_edges(index: UnitIndex) -> dict[int, set[int]]:
    """Map each unit index to the indices of units it feeds.

    Unit ``a`` feeds unit ``b`` when some output identity of ``a`` is an
    input identity of ``b``.
    """
    edges: dict[int, set[int]] = {}
    for i, keys in index.outputs.items():
        dests: set[int] = set()
        for key in keys:
            dests.update(index.consumers.get(key, ()))
        edges[i] = dests
    return edges


def find_cycle(edges: dict[int, set[int]]) -> list[int] | None:
    """Return the unit indices of one dependency cycle, or None.

    One Kahn pass over the in-degrees settles the common, acyclic case.
    Only when it leaves units unsorted does :mod:`graphlib` run, to name
    the cycle it has always named.
    """
    indegree = Counter(chain.from_iterable(edges.values()))
    ready = [node for node in edges if node not in indegree]
    done = 0
    while ready:
        done += 1
        for dest in edges.get(ready.pop(), ()):
            indegree[dest] -= 1
            if not indegree[dest]:
                ready.append(dest)
    if done == len(edges.keys() | indegree.keys()):
        return None
    sorter: TopologicalSorter = TopologicalSorter()
    for src, dests in edges.items():
        sorter.add(src)
        for dest in dests:
            sorter.add(dest, src)
    try:
        sorter.prepare()
    except CycleError as exc:
        return [i for i in exc.args[1] if isinstance(i, int)]
    return None


def validate_graph(graph: FoonGraph, goal: ObjectNode | None = None) -> ValidationReport:
    """Check every structural rule and report all violations found.

    Plain-graph rules: bipartiteness of the derived edge set, unit arity,
    and the no-op rule (a unit must change something, so no identity may
    appear on both sides). Given a ``goal``, the graph is checked as a
    task tree for it: the acyclicity, goal, and connectivity rules run
    as well.
    """
    violations: list[Violation] = []

    for i, (inputs, motion, outputs, input_keys, output_keys) in enumerate(graph.units):
        if (
            type(motion) is MotionNode
            and inputs
            and outputs
            and input_keys.isdisjoint(output_keys)
            and only_object_nodes(map(type, inputs))
            and only_object_nodes(map(type, outputs))
        ):
            continue  # a well-formed unit breaks no plain-graph rule
        for node in (*inputs, *outputs):
            if not isinstance(node, ObjectNode):
                violations.append(
                    Violation(
                        RULE_BIPARTITE,
                        f"unit {i} connects a motion to a non-object node",
                        unit_index=i,
                    )
                )
        if not isinstance(motion, MotionNode):
            violations.append(
                Violation(RULE_BIPARTITE, f"unit {i} has a non-motion action node", unit_index=i)
            )
        if not inputs or not outputs:
            missing = "inputs" if not inputs else "outputs"
            violations.append(
                Violation(RULE_EMPTY_UNIT, f"unit {i} has no {missing}", unit_index=i)
            )
        for key in sorted(input_keys & output_keys):
            node = graph.node_index[key]
            violations.append(
                Violation(
                    RULE_NOOP_UNIT,
                    f"unit {i} leaves {node.describe()!r} unchanged",
                    unit_index=i,
                )
            )

    if goal is not None:
        violations.extend(_task_tree_violations(graph, goal))

    return ValidationReport(tuple(violations))


def _task_tree_violations(graph: FoonGraph, goal: ObjectNode) -> list[Violation]:
    violations: list[Violation] = []
    units = graph.units

    # one pass finds the goal's producers and consumers, and whether the
    # units are in dependency order: no unit makes an input of itself or
    # of a unit listed before it, so every edge runs forward
    goal_key = goal.key
    producers: list[int] = []
    consumers: list[int] = []
    consumed: set[NodeKey] = set()
    ordered = True
    for i, unit in enumerate(units):
        # a unit's key sets are its items 3 and 4; two reads by index cost
        # less than unpacking all five items of a tuple subclass
        input_keys = unit[3]
        output_keys = unit[4]
        if goal_key in input_keys:
            consumers.append(i)
        if goal_key in output_keys:
            producers.append(i)
        if ordered:
            consumed |= input_keys
            ordered = consumed.isdisjoint(output_keys)

    if not producers:
        violations.append(
            Violation(
                RULE_GOAL,
                f"goal {goal.describe()!r} is not produced by any unit",
            )
        )
    for i in consumers:
        violations.append(
            Violation(
                RULE_GOAL,
                f"goal {goal.describe()!r} is consumed by unit {i}",
                unit_index=i,
            )
        )

    if ordered:
        connected = _connected_in_order(units, goal_key)
    else:
        index = UnitIndex.build(graph)
        cycle = find_cycle(unit_dependency_edges(index))
        if cycle:
            listed = ", ".join(str(i) for i in sorted(set(cycle)))
            violations.append(
                Violation(
                    RULE_CYCLE,
                    f"dependency cycle through units {listed}",
                    unit_index=min(cycle) if cycle else None,
                )
            )
        connected = _connected(index, producers)

    for i in range(len(units)):
        if i not in connected:
            violations.append(
                Violation(
                    RULE_DISCONNECTED,
                    f"unit {i} lies on no path to the goal",
                    unit_index=i,
                )
            )
    return violations


def _connected(index: UnitIndex, producers: list[int]) -> set[int]:
    """The units from which some chain of dependency edges leads to one of
    the goal's ``producers``: a walk of those edges backwards from there."""
    connected = set(producers)
    frontier = list(producers)
    while frontier:
        for key in index.inputs[frontier.pop()]:
            for i in index.producers.get(key, ()):
                if i not in connected:
                    connected.add(i)
                    frontier.append(i)
    return connected


def _connected_in_order(units: tuple[FunctionalUnit, ...], goal_key: NodeKey) -> set[int]:
    """:func:`_connected` for units in dependency order, in one backward
    pass: every unit a unit feeds comes after it, so it is connected when
    it makes the goal or an input of a connected unit after it."""
    connected: set[int] = set()
    needed: set[NodeKey] = set()
    for i in range(len(units) - 1, -1, -1):
        unit = units[i]
        output_keys = unit[4]
        if goal_key in output_keys or not needed.isdisjoint(output_keys):
            connected.add(i)
            needed |= unit[3]
    return connected


def validate_task_tree(tree: TaskTree) -> ValidationReport:
    """Full-rule report of a task tree, computed once and cached on the tree."""
    return tree.validation
