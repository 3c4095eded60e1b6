"""Structural validation of graphs and task trees.

Violations are data, not exceptions: callers decide whether a broken
graph is an error. Rule identifiers are stable strings so reports can be
matched programmatically.

Cost: every check is linear in the number of units and their nodes.
``validate_graph`` builds one :class:`UnitIndex` per call; the plain
rules read each unit's key sets once, the goal rules look the goal up in
the producer and consumer maps, the cycle check runs one Kahn pass over
the in-degrees of the dependency edges (built once), and connectivity is
a backward walk from the goal's producers that visits each unit once.
Only a graph the Kahn pass finds cyclic goes on to :mod:`graphlib`,
which names the cycle; a valid tree never pays for it. Retrieval checks
each candidate selection with the same :func:`find_cycle`. The key sets
the index reads are built once per unit, when the unit is built.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from graphlib import CycleError, TopologicalSorter
from itertools import chain

from .model import FoonGraph, MotionNode, ObjectNode, TaskTree, UnitIndex

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
    node: str | None = None


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
    for i, keys in enumerate(index.outputs):
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


def validate_graph(
    graph: FoonGraph,
    *,
    as_task_tree: bool = False,
    goal: ObjectNode | None = None,
) -> ValidationReport:
    """Check every structural rule and report all violations found.

    Plain-graph rules: bipartiteness of the derived edge set, unit arity,
    and the no-op rule (a unit must change something, so no identity may
    appear on both sides). With ``as_task_tree`` the acyclicity, goal, and
    connectivity rules are checked as well; ``goal`` is then required.
    """
    if as_task_tree and goal is None:
        raise ValueError("as_task_tree validation requires a goal")

    index = UnitIndex.build(graph)
    violations: list[Violation] = []

    for i, unit in enumerate(graph.units):
        for node in (*unit.inputs, *unit.outputs):
            if not isinstance(node, ObjectNode):
                violations.append(
                    Violation(
                        RULE_BIPARTITE,
                        f"unit {i} connects a motion to a non-object node",
                        unit_index=i,
                    )
                )
        if not isinstance(unit.motion, MotionNode):
            violations.append(
                Violation(RULE_BIPARTITE, f"unit {i} has a non-motion action node", unit_index=i)
            )
        if not unit.inputs or not unit.outputs:
            missing = "inputs" if not unit.inputs else "outputs"
            violations.append(
                Violation(RULE_EMPTY_UNIT, f"unit {i} has no {missing}", unit_index=i)
            )
        for key in sorted(index.inputs[i] & index.outputs[i]):
            node = graph.node_index[key]
            violations.append(
                Violation(
                    RULE_NOOP_UNIT,
                    f"unit {i} leaves {node.describe()!r} unchanged",
                    unit_index=i,
                    node=node.describe(),
                )
            )

    if as_task_tree:
        assert goal is not None
        violations.extend(_task_tree_violations(index, goal))

    return ValidationReport(tuple(violations))


def _task_tree_violations(index: UnitIndex, goal: ObjectNode) -> list[Violation]:
    violations: list[Violation] = []

    producers = index.producers.get(goal.key, [])
    if not producers:
        violations.append(
            Violation(
                RULE_GOAL,
                f"goal {goal.describe()!r} is not produced by any unit",
                node=goal.describe(),
            )
        )
    for i in sorted(index.consumers.get(goal.key, ())):
        violations.append(
            Violation(
                RULE_GOAL,
                f"goal {goal.describe()!r} is consumed by unit {i}",
                unit_index=i,
                node=goal.describe(),
            )
        )

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

    # a unit is connected when some chain of dependency edges leads from
    # it to a goal-producing unit: walk those edges backwards from there
    connected = set(producers)
    frontier = list(producers)
    while frontier:
        for key in index.inputs[frontier.pop()]:
            for i in index.producers.get(key, ()):
                if i not in connected:
                    connected.add(i)
                    frontier.append(i)
    for i in range(len(index.inputs)):
        if i not in connected:
            violations.append(
                Violation(
                    RULE_DISCONNECTED,
                    f"unit {i} lies on no path to the goal",
                    unit_index=i,
                )
            )
    return violations


def validate_task_tree(tree: TaskTree) -> ValidationReport:
    """Full-rule report of a task tree, computed once and cached on the tree."""
    return tree.validation
