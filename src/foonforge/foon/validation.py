"""Structural validation of graphs and task trees.

Violations are data, not exceptions: callers decide whether a broken
graph is an error. Rule identifiers are stable strings so reports can be
matched programmatically.
"""

from __future__ import annotations

from dataclasses import dataclass
from graphlib import CycleError, TopologicalSorter

from .model import FoonGraph, MotionNode, NodeKey, ObjectNode, TaskTree

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


def unit_dependency_edges(graph: FoonGraph) -> dict[int, set[int]]:
    """Map each unit index to the indices of units it feeds.

    Unit ``a`` feeds unit ``b`` when some output identity of ``a`` is an
    input identity of ``b``.
    """
    consumers: dict[NodeKey, set[int]] = {}
    for j, unit in enumerate(graph.units):
        for key in unit.input_keys:
            consumers.setdefault(key, set()).add(j)
    edges: dict[int, set[int]] = {i: set() for i in range(len(graph.units))}
    for i, unit in enumerate(graph.units):
        for key in unit.output_keys:
            edges[i] |= consumers.get(key, set())
    return edges


def find_cycle(graph: FoonGraph) -> list[int] | None:
    """Return the unit indices of one dependency cycle, or None."""
    edges = unit_dependency_edges(graph)
    sorter: TopologicalSorter = TopologicalSorter()
    for src, dests in edges.items():
        sorter.add(src)
        for dest in dests:
            sorter.add(dest, src)
    try:
        sorter.prepare()
    except CycleError as exc:
        cycle = [i for i in exc.args[1] if isinstance(i, int)]
        return cycle
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
        for key in sorted(unit.input_keys & unit.output_keys):
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
        violations.extend(_task_tree_violations(graph, goal))

    return ValidationReport(tuple(violations))


def _task_tree_violations(graph: FoonGraph, goal: ObjectNode) -> list[Violation]:
    violations: list[Violation] = []

    producers = [i for i, u in enumerate(graph.units) if goal.key in u.output_keys]
    if not producers:
        violations.append(
            Violation(
                RULE_GOAL,
                f"goal {goal.describe()!r} is not produced by any unit",
                node=goal.describe(),
            )
        )
    for i, unit in enumerate(graph.units):
        if goal.key in unit.input_keys:
            violations.append(
                Violation(
                    RULE_GOAL,
                    f"goal {goal.describe()!r} is consumed by unit {i}",
                    unit_index=i,
                    node=goal.describe(),
                )
            )

    cycle = find_cycle(graph)
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
    # it to a goal-producing unit
    edges = unit_dependency_edges(graph)
    connected = set(producers)
    changed = True
    while changed:
        changed = False
        for i in range(len(graph.units)):
            if i in connected:
                continue
            if edges[i] & connected:
                connected.add(i)
                changed = True
    for i in range(len(graph.units)):
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
