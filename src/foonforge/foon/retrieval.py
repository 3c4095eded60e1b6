"""Goal-directed task-tree retrieval.

Searches a graph for the smallest set of units that produces a goal
object from a pantry of available raw items. ``available`` holds object
names; a name provisions exactly those object variants that no unit in
the graph produces, so cooked or otherwise derived intermediates must
always come from a selected unit even when their base name is on hand.

The selected set must admit an execution order (every input either comes
from the pantry or from another selected unit), must not consume the
goal, and must be acyclic at the unit level. Among all feasible sets the
smallest wins, with ties broken by the lexicographically lowest tuple of
unit indices.

The search is an exact branch-and-bound over producer choices (an AND/OR
search). Starting from the goal, every object that a selected unit needs
and no selected unit makes is open, and one of its producers must join
the selection. An open object with a single usable producer takes it
without branching, so a recipe without alternatives is retrieved in time
linear in its size. Only objects with several usable producers branch,
and a branch is cut when a lower bound on its size exceeds the size of
the best selection found so far. Finding a minimum selection is hard in
general, so the cost still grows with the number of alternative
producers along the way; it no longer grows with the size of the goal's
backward cone as such.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..errors import RetrievalError
from .model import FoonGraph, NodeKey, ObjectNode, TaskTree, UnitIndex
from .validation import find_cycle


@dataclass(frozen=True)
class RetrievalFailure:
    """Why no task tree could be assembled for the goal."""

    missing: str
    message: str


def retrieve_task_tree(
    graph: FoonGraph,
    goal: ObjectNode,
    available: Iterable[str],
) -> TaskTree | RetrievalFailure:
    """Find a minimal task tree for ``goal``, or explain the failure.

    Raises :class:`RetrievalError` when the goal identity is not a node
    of the graph at all; an unreachable goal that exists in the graph is
    a :class:`RetrievalFailure`, not an error.
    """
    if goal.key not in graph.node_index:
        raise RetrievalError(f"goal {goal.describe()!r} is not a node of the graph")
    goal = graph.node_index[goal.key]
    pantry_names = {name.strip().lower() for name in available}
    index = UnitIndex.build(graph)

    if goal.key not in index.producers:
        return RetrievalFailure(goal.describe(), f"goal {goal.describe()!r} is not producible")

    # a pantry name provisions exactly the variants no unit produces
    pantry = {
        key for key in graph.node_index if key[0] in pantry_names and key not in index.producers
    }
    satisfiable = _saturate(index, pantry)
    if goal.key not in satisfiable:
        missing = _first_unsatisfiable(graph, index, goal.key, satisfiable)
        node = graph.node_index[missing]
        return RetrievalFailure(
            node.describe(), f"no way to obtain {node.describe()!r}"
        )

    best = _search(index, goal.key, satisfiable, pantry)
    if best is None:
        return RetrievalFailure(
            goal.describe(), f"no acyclic unit selection produces {goal.describe()!r}"
        )
    return TaskTree(FoonGraph(tuple(graph.units[i] for i in best)), goal)


def _saturate(index: UnitIndex, pantry: set[NodeKey]) -> set[NodeKey]:
    """Forward closure: every identity obtainable using any units at all.

    A worklist of units whose inputs are all obtainable; each unit fires
    once and each identity wakes its consumers once.
    """
    have = set(pantry)
    waiting = [len(keys - have) for keys in index.inputs]
    ready = [i for i, count in enumerate(waiting) if count == 0]
    while ready:
        for key in index.outputs[ready.pop()]:
            if key not in have:
                have.add(key)
                for j in index.consumers.get(key, ()):
                    waiting[j] -= 1
                    if waiting[j] == 0:
                        ready.append(j)
    return have


def _first_unsatisfiable(
    graph: FoonGraph, index: UnitIndex, goal_key: NodeKey, satisfiable: set[NodeKey]
) -> NodeKey:
    """Deterministic backward walk to the first root-cause object.

    Follows producers in unit-index order and their inputs in listed
    order, descending into the first unsatisfiable input not yet visited;
    the walk stops at an object with no producers, or at one none of
    whose unsatisfiable inputs is left to visit, and blames it.
    """
    visited = {goal_key}
    key = goal_key
    while True:
        below = (
            node.key
            for i in index.producers.get(key, ())
            for node in graph.units[i].inputs
            if node.key not in satisfiable and node.key not in visited
        )
        step = next(below, None)
        if step is None:
            return key
        visited.add(step)
        key = step


@dataclass
class _Branch:
    """One node of the search: the units chosen so far and the open objects."""

    chosen: list[int]
    excluded: set[int]
    made: set[NodeKey]
    # open object -> its usable producers outside ``excluded``, ascending
    open: dict[NodeKey, list[int]]


def _search(
    index: UnitIndex, goal_key: NodeKey, satisfiable: set[NodeKey], pantry: set[NodeKey]
) -> tuple[int, ...] | None:
    """Smallest, then lowest, acyclic selection of units making the goal.

    A unit is usable when all its inputs are obtainable, it does not
    consume the goal, and it lies in the goal's backward cone through
    such units. Branching on an open object with producers
    ``p1 < p2 < ...`` makes child ``j`` take ``pj`` and exclude
    ``p1 .. pj-1``, so the children split the selections between them
    and none is visited twice.
    """
    usable: set[int] = set()
    seen, frontier = {goal_key}, [goal_key]
    while frontier:
        for i in index.producers.get(frontier.pop(), ()):
            keys = index.inputs[i]
            if i not in usable and keys <= satisfiable and goal_key not in keys:
                usable.add(i)
                frontier.extend(keys - seen)
                seen |= keys

    def producers(key: NodeKey, excluded: set[int]) -> list[int]:
        return [i for i in index.producers[key] if i in usable and i not in excluded]

    best: tuple[int, ...] | None = None

    def settle(branch: _Branch) -> int | None:
        """Take the forced moves; return a lower bound on the size of any
        selection in the branch, or None once nothing is left to search."""
        nonlocal best
        if not _take_forced(branch, index, producers):
            return None
        if not branch.open:
            selection = tuple(sorted(branch.chosen))
            if (best is None or (len(selection), selection) < (len(best), best)) and (
                _acyclic(index, selection)
            ):
                best = selection
            return None
        height = _height(branch, index, usable, pantry)
        if height is None:
            return None
        return len(branch.chosen) + height

    root = _Branch([], set(), set(), {goal_key: producers(goal_key, set())})
    bound = settle(root)
    stack = [] if bound is None else [(bound, root)]
    while stack:
        bound, branch = stack.pop()
        if best is not None and bound > len(best):
            continue
        key = min(branch.open, key=lambda k: branch.open[k][0])
        children = []
        for j, unit in enumerate(branch.open[key]):
            excluded = branch.excluded | set(branch.open[key][:j])
            child = _Branch(
                list(branch.chosen),
                excluded,
                set(branch.made),
                {k: [i for i in units if i not in excluded] for k, units in branch.open.items()},
            )
            _choose(child, unit, index, producers)
            bound = settle(child)
            if bound is not None:
                children.append((bound, j, child))
        # the child with the lowest bound, then the lowest producer, goes first
        children.sort(key=lambda c: c[:2], reverse=True)
        stack.extend((bound, child) for bound, _, child in children)
    return best


def _choose(branch: _Branch, unit: int, index: UnitIndex, producers) -> None:
    """Add ``unit`` to the selection and open the inputs nobody makes yet."""
    branch.chosen.append(unit)
    branch.made |= index.outputs[unit]
    for key in index.outputs[unit]:
        branch.open.pop(key, None)
    for key in index.inputs[unit]:
        # obtainable inputs without producers come from the pantry
        if key in index.producers and key not in branch.made and key not in branch.open:
            branch.open[key] = producers(key, branch.excluded)


def _take_forced(branch: _Branch, index: UnitIndex, producers) -> bool:
    """Take every open object's only producer; False at a dead end."""
    while True:
        forced = []
        for key, units in branch.open.items():
            if not units:
                return False
            if len(units) == 1:
                forced.append(key)
        if not forced:
            return True
        for key in forced:
            if key in branch.open:  # unless an earlier forced unit made it
                _choose(branch, branch.open[key][0], index, producers)


def _height(branch: _Branch, index: UnitIndex, usable: set[int], pantry: set[NodeKey]) -> int | None:
    """Lower bound on the units still needed, or None when some open
    object cannot be made at all.

    Layer by layer from what the chosen units and the pantry provide:
    layer ``n`` holds the objects whose shortest chain of further units
    has ``n`` steps. Any completion holds a chain as long as the deepest
    open object's layer.
    """
    waiting = {
        i: sum(1 for key in index.inputs[i] if key not in branch.made and key not in pantry)
        for i in usable
        if i not in branch.excluded
    }
    ready = [i for i, count in waiting.items() if count == 0]
    todo, reached, layer = set(branch.open), set(branch.made), 0
    while todo and ready:
        layer += 1
        fresh = [key for i in ready for key in index.outputs[i] if key not in reached]
        reached.update(fresh)
        todo.difference_update(fresh)
        ready = []
        for key in set(fresh):
            for j in index.consumers.get(key, ()):
                if j in waiting:
                    waiting[j] -= 1
                    if waiting[j] == 0:
                        ready.append(j)
    return None if todo else layer


def _acyclic(index: UnitIndex, selection: tuple[int, ...]) -> bool:
    members = set(selection)
    edges = {
        i: {j for key in index.outputs[i] for j in index.consumers.get(key, ()) if j in members}
        for i in selection
    }
    return find_cycle(edges) is None
