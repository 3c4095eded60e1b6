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
the best selection found so far. When a branch passes that test and its
open objects fall into parts whose usable cones share no unit, each part
is searched on its own, within the size that the best selection so far
and the parts before it leave, and the branch takes the union of their
answers; only a union with a cycle, which can run through units of
several parts and the units already chosen, sends the parts back to one
joint search. A part's answer is kept for the rest of the call, so
alternatives above a part share it, and parts nest on a stack of their
own, not on Python's. So independent equal-cost choices cost the sum of
their parts, not their product, whether side by side or nested, and a
costlier alternative above the parts is cut before its own parts are
searched. Finding a minimum selection is hard in general, so the cost
still grows with the number of alternative producers that depend on
each other.

Cost: one pass over the units maps each identity to its producers, and
the goal is found by a scan that stops at the first unit mentioning it;
neither builds :attr:`FoonGraph.node_index`. Only the goal's backward
cone is then indexed, saturated and searched. Every producer of an
object in the cone is in it, so the pantry, the saturation and the
search read the same facts about each such object as they would over
the whole graph, and unit indices stay those of the graph. On the
1,120-unit retrieval graph of a ``big-graphs`` benchmark workload (seed
4242), whose five queries have cones of 8-14 units, a call took 1.01 ms
of CPU, where indexing the whole graph took 1.62 ms and the rest of the
call 1.05 ms (medians over five passes of the queries, on a shared
2-vCPU VM). On a goal that needs k parts, each made by either of two
one-step units, the search took 0.98 s at k = 14 and 2.0 s at k = 15,
doubling with each part; it now takes 2.2 ms at k = 15 and 9.6 ms at
k = 40.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, Iterable

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
    goal_key = goal.key
    first = graph.first_node(goal_key)
    if first is None:
        raise RetrievalError(f"goal {goal.describe()!r} is not a node of the graph")
    goal = first
    pantry_names = {name.strip().lower() for name in available}
    units = graph.units
    producers: dict[NodeKey, list[int]] = {}
    for i, unit in enumerate(units):
        for key in unit[4]:
            producers.setdefault(key, []).append(i)

    if goal_key not in producers:
        return RetrievalFailure(goal.describe(), f"goal {goal.describe()!r} is not producible")

    # the goal's backward cone: every producer of an object in it is in
    # it, so an index of these units alone answers every question the
    # search asks about such an object as one of the whole graph does
    cone = _walk_back(goal_key, lambda key: producers.get(key, ()), lambda i: units[i][3])
    index = UnitIndex.build(graph, sorted(cone))
    # a pantry name provisions exactly the variants no unit produces
    pantry = {
        key
        for keys in index.inputs.values()
        for key in keys
        if key[0] in pantry_names and key not in index.producers
    }
    satisfiable = _saturate(index, pantry)
    if goal_key not in satisfiable:
        node = _first_unsatisfiable(graph, index, goal, satisfiable)
        return RetrievalFailure(node.describe(), f"no way to obtain {node.describe()!r}")

    best = _search(index, goal_key, satisfiable, pantry)
    if best is None:
        return RetrievalFailure(
            goal.describe(), f"no acyclic unit selection produces {goal.describe()!r}"
        )
    return TaskTree(FoonGraph(tuple(units[i] for i in best)), goal)


def _walk_back(
    start: NodeKey,
    producers_of: Callable[[NodeKey], Iterable[int]],
    inputs_of: Callable[[int], frozenset[NodeKey]],
    skip: frozenset[NodeKey] | set[NodeKey] = frozenset(),
) -> set[int]:
    """The units that ``start`` reaches backwards: its producers, the
    producers of their inputs outside ``skip``, and so on."""
    found: set[int] = set()
    seen, frontier = {start}, [start]
    while frontier:
        for i in producers_of(frontier.pop()):
            if i not in found:
                found.add(i)
                keys = inputs_of(i) - seen - skip
                seen |= keys
                frontier.extend(keys)
    return found


def _saturate(index: UnitIndex, pantry: set[NodeKey]) -> set[NodeKey]:
    """Forward closure: every identity obtainable using the indexed units.

    A worklist of units whose inputs are all obtainable; each unit fires
    once and each identity wakes its consumers once.
    """
    have = set(pantry)
    waiting = {i: len(keys - have) for i, keys in index.inputs.items()}
    ready = [i for i, count in waiting.items() if count == 0]
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
    graph: FoonGraph, index: UnitIndex, goal: ObjectNode, satisfiable: set[NodeKey]
) -> ObjectNode:
    """Deterministic backward walk to the first root-cause object.

    Follows producers in unit-index order and their inputs in listed
    order, descending into the first unsatisfiable input not yet visited;
    the walk stops at an object with no producers, or at one none of
    whose unsatisfiable inputs is left to visit, and blames it.
    """
    visited = {goal.key}
    node = goal
    while True:
        below = (
            child
            for i in index.producers.get(node.key, ())
            for child in graph.units[i].inputs
            if child.key not in satisfiable and child.key not in visited
        )
        step = next(below, None)
        if step is None:
            return node
        visited.add(step.key)
        node = step


@dataclass
class _Branch:
    """One node of the search: the units chosen so far and the open objects."""

    chosen: list[int]
    excluded: set[int]
    made: set[NodeKey]
    # open object -> its usable producers outside ``excluded``, ascending
    open: dict[NodeKey, list[int]]


@dataclass
class _Search:
    """What every search of one retrieval shares, parts included."""

    index: UnitIndex
    # (object, excluded units) -> its usable producers outside them, ascending
    producers: Callable[[NodeKey, set[int]], list[int]]
    usable: set[int]
    pantry: set[NodeKey]
    # a part's search problem -> (the size it was searched within, its answer)
    memo: dict[tuple, tuple[int, tuple[int, ...] | None]]


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
    inputs = index.inputs
    usable = _walk_back(
        goal_key,
        lambda key: [
            i
            for i in index.producers.get(key, ())
            if inputs[i] <= satisfiable and goal_key not in inputs[i]
        ],
        inputs.__getitem__,
    )

    def producers(key: NodeKey, excluded: set[int]) -> list[int]:
        return [i for i in index.producers.get(key, ()) if i in usable and i not in excluded]

    root = _Branch([], set(), set(), {goal_key: producers(goal_key, set())})
    search = _Search(index, producers, usable, pantry, {})
    # each search of a part runs on this stack, not on Python's, so parts
    # may nest to any depth
    searches = [_solve(root, search, len(usable))]
    answer = None
    while True:
        try:
            part, budget = searches[-1].send(answer)
        except StopIteration as done:
            searches.pop()
            if not searches:
                return done.value
            answer = done.value
        else:
            searches.append(_solve(part, search, budget))
            answer = None


def _solve(
    root: _Branch, search: _Search, limit: int
) -> Generator[tuple[_Branch, int], tuple[int, ...] | None, tuple[int, ...] | None]:
    """The smallest, then lowest, acyclic selection in the branch ``root``
    that has at most ``limit`` units, or None.

    A branch is cut when its lower bound exceeds the size of the best
    selection found so far. A branch that passes, and whose open objects
    fall into parts (see :func:`_parts`), is solved part by part: the
    search yields each part's root and size limit, and is sent back the
    part's answer.
    """
    index, producers = search.index, search.producers
    best: tuple[int, ...] | None = None

    def better(selection: tuple[int, ...]) -> bool:
        return len(selection) <= limit and (
            best is None or (len(selection), selection) < (len(best), best)
        )

    def settle(branch: _Branch) -> int | None:
        """Take the forced moves; return a lower bound on the size of
        any selection in the branch, or None once nothing is left to
        search in it."""
        nonlocal best, limit
        if not _take_forced(branch, index, producers):
            return None
        if not branch.open:
            selection = tuple(sorted(branch.chosen))
            if better(selection) and _acyclic(index, selection):
                best, limit = selection, len(selection)
            return None
        height = _height(branch, index, search.usable, search.pantry)
        if height is None:
            return None
        return len(branch.chosen) + height

    bound = settle(root)
    stack = [] if bound is None else [(bound, root)]
    while stack:
        bound, branch = stack.pop()
        if bound > limit:
            continue
        parts = _parts(branch, index, producers) if len(branch.open) > 1 else ()
        if len(parts) > 1:
            selection = yield from _solve_parts(branch, parts, search, limit)
            if selection is None:
                continue
            # a cycle may run through units of several parts and the
            # chosen ones; then the parts are searched together
            if _acyclic(index, selection):
                if better(selection):
                    best, limit = selection, len(selection)
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


def _solve_parts(
    branch: _Branch, parts: list[tuple[list[NodeKey], set[int]]], search: _Search, limit: int
) -> Generator[tuple[_Branch, int], tuple[int, ...] | None, tuple[int, ...] | None]:
    """The chosen units and each part's smallest, then lowest, selection,
    or None when some part has none within what the others leave of
    ``limit``.

    The parts' units are disjoint, so their sizes add, and the union of
    each part's lowest selection is the lowest union. A part is searched
    without the chosen units, which only the union's cycle test needs,
    so its answer depends only on its open objects, its cone and what
    the chosen units make of its cone's inputs. ``search.memo`` keeps it
    under those for the rest of the call: alternatives above a part,
    such as two units that make the same object from the same inputs,
    share the part's answer instead of searching it once each.
    """
    selection = set(branch.chosen)
    for part, cone in parts:
        made = {key for i in cone for key in search.index.inputs[i] if key in branch.made}
        problem = (frozenset(part), frozenset(cone), frozenset(made))
        budget = limit - len(selection)
        searched, found = search.memo.get(problem, (-1, None))
        if found is None and searched < budget:
            root = _Branch([], branch.excluded, made, {key: branch.open[key] for key in part})
            found = yield root, budget
            search.memo[problem] = budget, found
        if found is None or len(found) > budget:
            return None
        selection.update(found)
    return tuple(sorted(selection))


def _parts(
    branch: _Branch, index: UnitIndex, producers
) -> list[tuple[list[NodeKey], set[int]]]:
    """The open objects, grouped so that no two groups' usable cones share
    a unit, each group with its cone.

    A cone here runs from an open object through its usable producers
    outside ``excluded`` and their inputs that no chosen unit makes.
    Objects that no unit makes, such as pantry items, may be shared:
    they tie no choice to another.
    """
    groups: list[tuple[list[NodeKey], set[int]]] = []
    for key in branch.open:
        cone = _walk_back(
            key, lambda k: producers(k, branch.excluded), index.inputs.__getitem__, branch.made
        )
        members = [key]
        for group in [group for group in groups if not cone.isdisjoint(group[1])]:
            groups.remove(group)
            members += group[0]
            cone |= group[1]
        groups.append((members, cone))
    return groups


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
    # as in validation: when no unit of the ascending selection makes an
    # input of itself or of a unit before it, every edge runs forward
    consumed: set[NodeKey] = set()
    for i in selection:
        consumed |= index.inputs[i]
        if not consumed.isdisjoint(index.outputs[i]):
            break
    else:
        return True
    members = set(selection)
    edges = {
        i: {j for key in index.outputs[i] for j in index.consumers.get(key, ()) if j in members}
        for i in selection
    }
    return find_cycle(edges) is None
