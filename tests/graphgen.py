"""Seeded random builders and mutators shared by the test modules.

Everything here is driven by an explicit ``random.Random`` so suites can
pin exact case counts.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from graphlib import CycleError, TopologicalSorter
from itertools import combinations

from foonforge import resources
from foonforge.errors import (
    FoonSyntaxError,
    InvalidNodeError,
    TaskTreeJsonError,
    TaskTreeSchemaError,
    TaskTreeStructureError,
)
from foonforge.foon.model import (
    FoonGraph,
    FunctionalUnit,
    MotionNode,
    ObjectNode,
    TaskTree,
    make_unit,
    normalize_token,
    require_unicode,
)
from foonforge.foon.validation import (
    RULE_BIPARTITE,
    RULE_CYCLE,
    RULE_DISCONNECTED,
    RULE_EMPTY_UNIT,
    RULE_GOAL,
    RULE_NOOP_UNIT,
    ValidationReport,
    Violation,
    validate_task_tree,
)

NAMES = [
    "egg",
    "salt",
    "flour",
    "milk",
    "butter",
    "cheese",
    "macaroni",
    "water",
    "onion",
    "garlic",
    "tomato",
    "basil",
    "olive oil",
    "rice",
    "sugar",
    "lemon",
    "cream",
    "pepper",
    "spinach",
    "mushroom",
]
STATES = ["raw", "chopped", "cooked", "grated", "whipped", "warm", "cooled", "mixed"]
MOTIONS = ["mix", "pour", "chop", "boil", "grate", "fold", "bake", "serve", "stir"]


def random_object(rng: random.Random) -> ObjectNode:
    name = rng.choice(NAMES)
    states = tuple(rng.sample(STATES, rng.randint(0, 2)))
    ingredients = ()
    if rng.random() < 0.25:
        ingredients = tuple(rng.sample(NAMES, rng.randint(1, 2)))
    return ObjectNode(name, states, ingredients)


def random_graph(rng: random.Random, max_units: int = 10) -> FoonGraph:
    """A well-formed (parseable) graph; not necessarily a valid task tree."""
    units = []
    for _ in range(rng.randint(1, max_units)):
        inputs = _dedupe(random_object(rng) for _ in range(rng.randint(1, 3)))
        outputs = _dedupe(random_object(rng) for _ in range(rng.randint(1, 3)))
        units.append(FunctionalUnit(inputs, MotionNode(rng.choice(MOTIONS)), outputs))
    return FoonGraph(tuple(units))


def _dedupe(nodes) -> tuple[ObjectNode, ...]:
    return tuple({node.key: node for node in nodes}.values())


def random_task_tree(rng: random.Random, max_units: int = 6) -> TaskTree:
    """A structurally valid task tree: a linear chain plus leaf inputs.

    Stage products use a dedicated namespace so leaves can never collide
    with produced identities, which keeps the chain acyclic and connected
    by construction.
    """
    n = rng.randint(1, max_units)
    units = []
    for i in range(n):
        inputs: list[ObjectNode] = []
        if i > 0:
            inputs.append(ObjectNode(f"stage {i - 1}", ("done",)))
        for _ in range(rng.randint(0 if i > 0 else 1, 2)):
            inputs.append(ObjectNode(rng.choice(NAMES), ("fresh",)))
        if i < n - 1:
            output = ObjectNode(f"stage {i}", ("done",))
        else:
            output = ObjectNode("final dish")
        units.append(
            FunctionalUnit(_dedupe(inputs), MotionNode(rng.choice(MOTIONS)), (output,))
        )
    return TaskTree(FoonGraph(tuple(units)), ObjectNode("final dish"))


def random_retrieval_case(
    rng: random.Random, max_units: int = 6, *, alternatives: bool = False, outside: bool = False
):
    """(graph, goal, available) with a healthy mix of feasible and not.

    Inputs often reuse earlier outputs so executable selections actually
    exist; stray states, junk units, and short pantries keep a good share
    of cases infeasible.

    With ``alternatives``, some units get a twin that makes the same
    outputs at the same cost, from the same inputs or from pantry items,
    or one that also makes the outputs of another unit.
    With ``outside``, units that can never help make the goal are added:
    an unsatisfiable unit, a two-unit cycle, a unit that consumes the
    goal, and a second recipe that shares pantry items. Either flag
    draws only after the draws of the plain case, and the added units go
    at drawn places among the others.
    """
    pool = rng.sample(NAMES, 6)
    units: list[FunctionalUnit] = []
    produced: list[ObjectNode] = []
    for _ in range(rng.randint(1, max_units)):
        inputs = []
        for _ in range(rng.randint(1, 2)):
            if produced and rng.random() < 0.45:
                inputs.append(rng.choice(produced))
            else:
                states = (rng.choice(STATES),) if rng.random() < 0.3 else ()
                inputs.append(ObjectNode(rng.choice(pool), states))
        outputs = []
        for _ in range(rng.randint(1, 2)):
            states = (rng.choice(STATES),) if rng.random() < 0.6 else ()
            outputs.append(ObjectNode(rng.choice(pool), states))
        unit = FunctionalUnit(
            _dedupe(inputs), MotionNode(rng.choice(MOTIONS)), _dedupe(outputs)
        )
        units.append(unit)
        produced.extend(unit.outputs)
    graph = FoonGraph(tuple(units))

    if rng.random() < 0.7:
        keys = sorted(graph.produced_keys)
    else:
        keys = sorted(graph.node_index)
    goal = graph.node_index[keys[rng.randrange(len(keys))]]
    available = set(rng.sample(pool, rng.randint(1, 5)))
    if not (alternatives or outside):
        return graph, goal, available

    added: list[FunctionalUnit] = []
    if alternatives:
        for unit in rng.sample(units, rng.randint(1, min(2, len(units)))):
            inputs, outputs = unit.inputs, unit.outputs
            draw = rng.random()
            if draw < 0.4:
                inputs = tuple(ObjectNode(name) for name in rng.sample(sorted(available), 1))
            elif draw < 0.6:  # one unit for the work of two
                outputs = _dedupe((*outputs, *rng.choice(units).outputs))
            added.append(FunctionalUnit(inputs, MotionNode(rng.choice(MOTIONS)), outputs))
    if outside:
        stray = [ObjectNode("stray", (f"s{j}",)) for j in range(4)]
        if rng.random() < 0.6:
            added.append(make_unit([ObjectNode("ghost", ("missing",))], "sift", [stray[0]]))
        if rng.random() < 0.6:
            added.append(make_unit([stray[1]], "fold", [stray[2]]))
            added.append(make_unit([stray[2]], "roll", [stray[1]]))
        if rng.random() < 0.6:
            added.append(make_unit([goal, ObjectNode(rng.choice(pool))], "serve", [stray[3]]))
        if rng.random() < 0.6:
            side = ObjectNode("side dish", ("mixed",))
            shared = [ObjectNode(name) for name in rng.sample(sorted(available), 1)]
            added.append(make_unit(shared, "mix", [side]))
            added.append(make_unit([side], "plate", [ObjectNode("side plate")]))
    for unit in added:
        units.insert(rng.randint(0, len(units)), unit)
    return FoonGraph(tuple(units)), goal, available


def chain_tree(steps: int, *, goal_first: bool = False) -> TaskTree:
    """A valid linear task tree of ``steps`` units.

    Step ``i`` turns stage ``i - 1`` (raw flour for the first step) into
    stage ``i``; the last step makes the goal. Listed leaf first, or goal
    first with ``goal_first``.
    """
    goal = ObjectNode("loaf")
    units = [
        make_unit(
            [ObjectNode("stage", (f"s{i - 1}",)) if i else ObjectNode("flour")],
            MOTIONS[i % len(MOTIONS)],
            [ObjectNode("stage", (f"s{i}",)) if i < steps - 1 else goal],
        )
        for i in range(steps)
    ]
    if goal_first:
        units.reverse()
    return TaskTree(FoonGraph(tuple(units)), goal)


def recipe_chain(steps: int, *, alternatives: bool = False):
    """(graph, goal, available, expected units) of a linear recipe.

    Each step also takes water. With ``alternatives`` every step gets a
    second way to make its product, listed before the recipe: an
    alternative that needs an extra grinding step, and one that needs
    saffron, which the pantry lacks. The recipe itself is then still the
    unique smallest selection.
    """
    recipe, extra = [], []
    for i in range(steps):
        previous = ObjectNode("stage", (f"s{i - 1}",)) if i else ObjectNode("flour")
        product = ObjectNode("stage", (f"s{i}",)) if i < steps - 1 else ObjectNode("loaf")
        recipe.append(make_unit([previous, ObjectNode("water")], "mix", [product]))
        if alternatives:
            paste = ObjectNode("paste", (f"p{i}",))
            extra.append(make_unit([ObjectNode("salt")], "grind", [paste]))
            extra.append(make_unit([previous, paste], "fold", [product]))
            extra.append(make_unit([previous, ObjectNode("saffron")], "steep", [product]))
    graph = FoonGraph(tuple(extra + recipe))
    return graph, ObjectNode("loaf"), {"flour", "water", "salt"}, tuple(recipe)


# --- reference validator ------------------------------------------------

def reference_validate_graph(graph: FoonGraph, goal: ObjectNode | None = None) -> ValidationReport:
    """The original validator, kept as an oracle for the indexed one.

    It rescans every unit for each question and finds connected units by
    a fixpoint over all units, so it is quadratic on long chains.
    """
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
                )
            )
    if goal is not None:
        violations.extend(_reference_task_tree_violations(graph, goal))
    return ValidationReport(tuple(violations))


def reference_find_cycle(edges: dict[int, set[int]]) -> list[int] | None:
    """The original cycle finder: graphlib on every call, cycle or not."""
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


def _reference_edges(graph: FoonGraph) -> dict[int, set[int]]:
    consumers: dict = {}
    for j, unit in enumerate(graph.units):
        for key in unit.input_keys:
            consumers.setdefault(key, set()).add(j)
    edges: dict[int, set[int]] = {i: set() for i in range(len(graph.units))}
    for i, unit in enumerate(graph.units):
        for key in unit.output_keys:
            edges[i] |= consumers.get(key, set())
    return edges


def _reference_task_tree_violations(graph: FoonGraph, goal: ObjectNode) -> list[Violation]:
    violations: list[Violation] = []
    producers = [i for i, u in enumerate(graph.units) if goal.key in u.output_keys]
    if not producers:
        violations.append(
            Violation(
                RULE_GOAL,
                f"goal {goal.describe()!r} is not produced by any unit",
            )
        )
    for i, unit in enumerate(graph.units):
        if goal.key in unit.input_keys:
            violations.append(
                Violation(
                    RULE_GOAL,
                    f"goal {goal.describe()!r} is consumed by unit {i}",
                    unit_index=i,
                )
            )

    cycle = reference_find_cycle(_reference_edges(graph))
    if cycle:
        listed = ", ".join(str(i) for i in sorted(set(cycle)))
        violations.append(
            Violation(
                RULE_CYCLE,
                f"dependency cycle through units {listed}",
                unit_index=min(cycle) if cycle else None,
            )
        )

    edges = _reference_edges(graph)
    connected = set(producers)
    changed = True
    while changed:
        changed = False
        for i in range(len(graph.units)):
            if i not in connected and edges[i] & connected:
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


# --- reference parsers --------------------------------------------------

def _reference_token(value, what: str) -> str:
    if not isinstance(value, str):
        raise InvalidNodeError(f"{what} must be a string, got {type(value).__name__}")
    token = value.strip().lower()
    if not token:
        raise InvalidNodeError(f"{what} must not be empty")
    # a tab, or a line break anywhere inside: str.splitlines breaks at each
    if "\t" in token or len(token.splitlines()) > 1:
        raise InvalidNodeError(f"{what} must not contain tabs or newlines: {token!r}")
    if not token.isascii():
        try:
            token.encode("utf-8")
        except UnicodeEncodeError:
            raise InvalidNodeError(f"{what} must be valid Unicode text: {token!r}") from None
    return token


def reference_object(name, states, ingredients) -> ObjectNode:
    """The original node checks: every token on its own, each in turn."""
    name = _reference_token(name, "object name")
    states = tuple(_reference_token(s, "state") for s in states)
    if len(set(states)) != len(states):
        raise InvalidNodeError(f"duplicate states on object {name!r}")
    seen: list[str] = []
    for raw in ingredients:
        token = _reference_token(raw, "contained ingredient")
        if "," in token:
            raise InvalidNodeError(f"contained ingredient must not contain commas: {token!r}")
        if token not in seen:
            seen.append(token)
    return ObjectNode(name, tuple(sorted(states)), tuple(sorted(seen)))


@dataclass(frozen=True)
class ReferenceDish:
    """The original dish checks: the generated ``__init__`` sets each
    field, then ``__post_init__`` checks every text field by field and
    sets each field again, normalized."""

    category: str
    name: str
    ingredients: tuple[str, ...]
    tools: tuple[str, ...] = ()

    def __post_init__(self):
        texts = (self.category, self.name, *self.ingredients, *self.tools)
        if not "".join(texts).isascii():  # one pass over ASCII text, the common case
            fields = ["/category", "/name"]
            fields += (f"/ingredients/{i}" for i in range(len(self.ingredients)))
            fields += (f"/tools/{i}" for i in range(len(self.tools)))
            for where, text in zip(fields, texts):
                require_unicode(text, "dish text", where)
        object.__setattr__(self, "category", normalize_token(self.category))
        name = normalize_token(self.name)
        if not name:
            raise InvalidNodeError("dish name must not be empty", "/name")
        object.__setattr__(self, "name", name)
        ingredients = tuple(normalize_token(i) for i in self.ingredients)
        if not ingredients or "" in ingredients:
            where = f"/ingredients/{ingredients.index('')}" if ingredients else "/ingredients"
            raise InvalidNodeError(f"dish {name!r} needs a non-empty ingredients list", where)
        if len(set(ingredients)) != len(ingredients):
            repeat = next(i for i, item in enumerate(ingredients) if item in ingredients[:i])
            raise InvalidNodeError(
                f"dish {name!r} has duplicate ingredients", f"/ingredients/{repeat}"
            )
        object.__setattr__(self, "ingredients", ingredients)
        tools = dict.fromkeys(normalize_token(raw) for raw in self.tools)  # first-seen order
        tools.pop("", None)
        object.__setattr__(self, "tools", tuple(tools))


def _reference_motion(name) -> MotionNode:
    return MotionNode(_reference_token(name, "motion name"))


def reference_parse_task_tree_json(source: str) -> TaskTree:
    """The original JSON parser, kept as an oracle for the one-pass one:
    it builds every node mention anew, checks each token on its own and
    builds every pointer as it goes."""
    try:
        payload = json.loads(source)
    except ValueError as exc:
        raise TaskTreeJsonError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise TaskTreeJsonError("not valid JSON: nested too deeply") from exc

    if not isinstance(payload, dict):
        raise TaskTreeSchemaError(f"expected a JSON object, got {type(payload).__name__}")
    units_raw = payload.get("functional_units")
    if units_raw is None:
        raise TaskTreeSchemaError("missing required field 'functional_units'")
    if not isinstance(units_raw, list):
        raise TaskTreeSchemaError("must be an array", "/functional_units")
    if not units_raw:
        raise TaskTreeSchemaError("empty task tree", "/functional_units")

    goal_raw = payload.get("goal")
    if goal_raw is None:
        raise TaskTreeSchemaError("missing required field 'goal'")
    goal = _reference_json_node(goal_raw, "/goal")

    units = tuple(
        _reference_json_unit(unit_raw, f"/functional_units/{i}")
        for i, unit_raw in enumerate(units_raw)
    )
    tree = TaskTree(FoonGraph(units), goal)

    report = validate_task_tree(tree)
    if not report.ok:
        first = report.violations[0]
        raise TaskTreeStructureError(
            f"invalid task tree: {first.message}"
            + (f" (+{len(report.violations) - 1} more)" if len(report.violations) > 1 else ""),
            report.violations,
        )
    return tree


def _reference_json_unit(raw, pointer: str) -> FunctionalUnit:
    if not isinstance(raw, dict):
        raise TaskTreeSchemaError("functional unit must be an object", pointer)
    inputs = _reference_json_nodes(raw.get("inputs"), pointer + "/inputs")
    outputs = _reference_json_nodes(raw.get("outputs"), pointer + "/outputs")
    motion_raw = raw.get("motion")
    if not isinstance(motion_raw, str):
        raise TaskTreeSchemaError("motion must be a string", pointer + "/motion")
    try:
        motion = _reference_motion(motion_raw)
    except InvalidNodeError as exc:
        raise TaskTreeSchemaError(str(exc), pointer + "/motion") from exc
    return FunctionalUnit(inputs, motion, outputs)


def _reference_json_nodes(raw, pointer: str) -> tuple[ObjectNode, ...]:
    if not isinstance(raw, list):
        raise TaskTreeSchemaError("must be an array of object nodes", pointer)
    if not raw:
        raise TaskTreeSchemaError("must not be empty", pointer)
    return tuple(_reference_json_node(node, f"{pointer}/{i}") for i, node in enumerate(raw))


def _reference_json_node(raw, pointer: str) -> ObjectNode:
    if not isinstance(raw, dict):
        raise TaskTreeSchemaError("object node must be an object", pointer)
    name = raw.get("name")
    if not isinstance(name, str):
        raise TaskTreeSchemaError("missing or non-string 'name'", pointer)
    states = raw.get("states", [])
    if not isinstance(states, list) or any(not isinstance(s, str) for s in states):
        raise TaskTreeSchemaError("'states' must be an array of strings", pointer)
    ingredients = raw.get("ingredients", [])
    if not isinstance(ingredients, list) or any(not isinstance(s, str) for s in ingredients):
        raise TaskTreeSchemaError("'ingredients' must be an array of strings", pointer)
    try:
        return reference_object(name, tuple(states), tuple(ingredients))
    except InvalidNodeError as exc:
        raise TaskTreeSchemaError(str(exc), pointer) from exc


def reference_parse_foon_text(source: str) -> FoonGraph:
    """The original text-format parser, kept as an oracle for the
    one-pass one: it splits the text into units first, then builds every
    object mention anew."""
    chunks: list[list[tuple[int, str]]] = []
    current: list[tuple[int, str]] = []
    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.rstrip("\r")
        if not line.strip():
            continue
        if line == "//":
            if current:
                chunks.append(current)
                current = []
            continue
        current.append((lineno, line))
    if current:
        chunks.append(current)
    if not chunks:
        raise FoonSyntaxError("no functional units found")
    return FoonGraph(tuple(_reference_text_unit(chunk) for chunk in chunks))


def _reference_text_unit(chunk: list[tuple[int, str]]) -> FunctionalUnit:
    inputs: list[ObjectNode] = []
    outputs: list[ObjectNode] = []
    motion = None
    motion_line = 0
    pending = None  # [name, line, states, ingredients]
    section = inputs

    def flush():
        nonlocal pending
        if pending is not None:
            name, line, states, ingredients = pending
            try:
                node = reference_object(name, tuple(states), tuple(ingredients or ()))
            except InvalidNodeError as exc:
                raise FoonSyntaxError(str(exc), line=line) from exc
            section.append(node)
            pending = None

    for lineno, line in chunk:
        tag, sep, value = line.partition("\t")
        if not sep or not value:
            raise FoonSyntaxError(f"expected '<tag>\\t<value>', got {line!r}", line=lineno)
        if tag == "O":
            flush()
            pending = [value, lineno, [], None]
        elif tag == "S":
            if pending is None:
                raise FoonSyntaxError("state line without a preceding object line", line=lineno)
            pending[2].append(value)
        elif tag == "I":
            if pending is None:
                raise FoonSyntaxError(
                    "ingredients line without a preceding object line", line=lineno
                )
            if pending[3] is not None:
                raise FoonSyntaxError("duplicate ingredients line for one object", line=lineno)
            pending[3] = value.split(",")
        elif tag == "M":
            if motion is not None:
                raise FoonSyntaxError("duplicate motion line in unit", line=lineno)
            flush()
            section = outputs
            try:
                motion = _reference_motion(value)
            except InvalidNodeError as exc:
                raise FoonSyntaxError(str(exc), line=lineno) from exc
            motion_line = lineno
        else:
            raise FoonSyntaxError(
                f"unknown record tag {tag!r}, expected O, S, I, or M", line=lineno
            )
    flush()

    if motion is None:
        raise FoonSyntaxError("unit has no motion line", line=chunk[0][0])
    if not inputs:
        raise FoonSyntaxError("unit has no input objects", line=motion_line)
    if not outputs:
        raise FoonSyntaxError("unit has no output objects", line=motion_line)
    return FunctionalUnit(tuple(inputs), motion, tuple(outputs))


# --- reference scores ---------------------------------------------------

def reference_accuracy_rules(tree: TaskTree, dish) -> list[bool]:
    """The original accuracy rules, kept as an oracle for the one-walk
    scorer: each rule walks the tree on its own."""
    graph = tree.graph
    produced = graph.produced_keys

    goal_matches = tree.goal.name == dish.name

    motions_present = all(unit.motion.name for unit in graph.units)

    allowed = set(dish.ingredients) | set(dish.tools)
    leaf_names: set[str] = set()
    for unit in graph.units:
        for node in unit.inputs:
            if node.key not in produced:
                leaf_names.add(node.name)
                leaf_names.update(node.ingredients)
    no_hallucination = leaf_names <= allowed

    structurally_valid = validate_task_tree(tree).ok

    consumed = frozenset().union(*(unit.input_keys for unit in graph.units))
    no_dangling = all(
        unit.output_keys <= consumed
        for unit in graph.units
        if tree.goal.key not in unit.output_keys
    )

    return [goal_matches, motions_present, no_hallucination, structurally_valid, no_dangling]


def reference_score_completeness(tree: TaskTree, dish) -> float:
    """The original completeness score, kept as an oracle."""
    covered_names = {node.name for unit in tree.units for node in unit.inputs}
    covered_names |= {
        ing
        for unit in tree.units
        for node in (*unit.inputs, *unit.outputs)
        for ing in node.ingredients
    }
    ingredient_part = sum(1 for i in dish.ingredients if i in covered_names) / len(
        dish.ingredients
    )
    if not dish.tools:
        return ingredient_part
    all_names = {node.name for unit in tree.units for node in (*unit.inputs, *unit.outputs)}
    tool_part = sum(1 for t in dish.tools if t in all_names) / len(dish.tools)
    return (ingredient_part + tool_part) / 2


# --- reference serializers ----------------------------------------------

def reference_tree_json(tree: TaskTree) -> str:
    """The original serializer, kept as an oracle for the direct writer:
    ``json.dumps`` with ``indent=2`` of the tree as a plain dict."""

    def node(n: ObjectNode) -> dict:
        obj = {"name": n.name, "states": list(n.states)}
        if n.ingredients:
            obj["ingredients"] = list(n.ingredients)
        return obj

    payload = {
        "goal": node(tree.goal),
        "functional_units": [
            {
                "inputs": [node(n) for n in unit.inputs],
                "motion": unit.motion.name,
                "outputs": [node(n) for n in unit.outputs],
            }
            for unit in tree.units
        ],
    }
    return json.dumps(payload, indent=2, ensure_ascii=False)


def reference_report_json(report) -> str:
    """The original run-report renderer, kept as an oracle for the direct
    writer."""
    payload = {
        "strategy": report.strategy.value,
        "total": report.total,
        "json_ok": report.json_ok,
        "text_fallback": report.text_fallback,
        "started": report.started,
        "finished": report.finished,
        "records": [
            {
                "dish": {
                    "category": r.dish.category,
                    "name": r.dish.name,
                    "ingredients": list(r.dish.ingredients),
                    "tools": list(r.dish.tools),
                },
                "outcome": r.outcome.value,
                "fallback_reason": r.fallback_reason.value if r.fallback_reason else None,
                "output_path": r.output_path,
                "raw_text": r.raw_text,
            }
            for r in report.records
        ],
    }
    return json.dumps(payload, indent=2, ensure_ascii=False)


def record_report_writes(monkeypatch, fail_after: int | None = None) -> list[str]:
    """Record the text of each write into the run report's temp file, the
    one file :mod:`foonforge.resources` opens; the write after the first
    ``fail_after`` of them raises ``OSError("disk full")``."""
    writes: list[str] = []

    class RecordingFile:
        def __init__(self, handle):
            self.handle = handle

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            self.handle.close()

        def write(self, text: str) -> int:
            if len(writes) == fail_after:
                raise OSError("disk full")
            writes.append(text)
            return self.handle.write(text)

    def recording_open(*args, **kwargs):
        return RecordingFile(open(*args, **kwargs))

    monkeypatch.setattr(resources, "open", recording_open, raising=False)
    return writes


# --- mutation suite -----------------------------------------------------

def mutate_add_cycle(tree: TaskTree):
    unit = tree.units[0]
    rework = make_unit([unit.outputs[0]], "rework", [unit.inputs[0]])
    return TaskTree(FoonGraph((*tree.units, rework)), tree.goal), "cycle"


def mutate_empty_inputs(tree: TaskTree):
    conjure = FunctionalUnit((), MotionNode("conjure"), (tree.units[0].inputs[0],))
    return TaskTree(FoonGraph((*tree.units, conjure)), tree.goal), "empty-unit"


def mutate_empty_outputs(tree: TaskTree):
    discard = FunctionalUnit((tree.units[0].outputs[0],), MotionNode("discard"), ())
    return TaskTree(FoonGraph((*tree.units, discard)), tree.goal), "empty-unit"


def mutate_noop(tree: TaskTree):
    leaf = tree.units[0].inputs[0]
    inspect = make_unit([leaf], "inspect", [leaf])
    return TaskTree(FoonGraph((*tree.units, inspect)), tree.goal), "no-op-unit"


def mutate_disconnected(tree: TaskTree):
    waste = make_unit(
        [tree.units[0].inputs[0]], "waste", [ObjectNode("orphan byproduct", ("odd",))]
    )
    return TaskTree(FoonGraph((*tree.units, waste)), tree.goal), "disconnected"


def mutate_goal_consumed(tree: TaskTree):
    devour = make_unit([tree.goal], "devour", [ObjectNode("crumbs", ("sad",))])
    return TaskTree(FoonGraph((*tree.units, devour)), tree.goal), "goal"


def mutate_goal_not_produced(tree: TaskTree):
    return TaskTree(tree.graph, ObjectNode("phantom goal")), "goal"


MUTATORS = [
    mutate_add_cycle,
    mutate_empty_inputs,
    mutate_empty_outputs,
    mutate_noop,
    mutate_disconnected,
    mutate_goal_consumed,
    mutate_goal_not_produced,
]


# --- brute-force retrieval oracle ---------------------------------------

def brute_force_retrieve(graph: FoonGraph, goal: ObjectNode, available) -> tuple[int, ...] | None:
    """Reference search: enumerate every unit subset by (size, indices).

    A subset is feasible when the goal is produced and never consumed,
    and some execution order works: each unit's inputs come from the
    pantry or from units earlier in the order, and no unit's outputs feed
    a unit at or before its own position. The pantry provisions a name
    only for object variants no unit in the whole graph produces.
    """
    pantry = _pantry(graph, available)
    n = len(graph.units)
    for size in range(1, n + 1):
        for combo in combinations(range(n), size):
            if _combo_feasible(graph, combo, goal, pantry):
                return combo
    return None


def selection_feasible(graph: FoonGraph, combo, goal: ObjectNode, available) -> bool:
    """Whether the units at ``combo`` are a feasible subset, as
    :func:`brute_force_retrieve` decides it."""
    return _combo_feasible(graph, combo, goal, _pantry(graph, available))


def obtainable_keys(graph: FoonGraph, available) -> set:
    """Reference of what can be had at all, order aside: the pantry's
    variants (as :func:`brute_force_retrieve` provisions them), then the
    outputs of every unit whose inputs can all be had, until none is added."""
    pantry = _pantry(graph, available)
    have = {key for u in graph.units for key in u.input_keys if pantry(key)}
    grown = True
    while grown:
        grown = False
        for u in graph.units:
            if u.input_keys <= have and not u.output_keys <= have:
                have |= u.output_keys
                grown = True
    return have


def _pantry(graph: FoonGraph, available):
    names = {n.strip().lower() for n in available}
    produced_anywhere = {k for u in graph.units for k in u.output_keys}

    def pantry(key):
        return key[0] in names and key not in produced_anywhere

    return pantry


def _combo_feasible(graph, combo, goal, pantry) -> bool:
    units = [graph.units[i] for i in combo]
    produced = set()
    for u in units:
        produced |= u.output_keys
    if goal.key not in produced:
        return False
    if any(goal.key in u.input_keys for u in units):
        return False
    return _order_exists(units, pantry, frozenset(), set(), set())


def _order_exists(units, pantry, placed, have, dead) -> bool:
    """Whether the units not in ``placed`` can follow the ones in it in
    some order: each unit's inputs come from the pantry or from units
    before it, and its outputs feed no unit before it nor itself.

    Whether a unit may come next depends only on which units come before
    it, not on their order, so a set of placed units from which no order
    works is recorded in ``dead`` and not walked again. This visits each
    set once, where trying every permutation would visit each order.
    """
    if len(placed) == len(units):
        return True
    if placed in dead:
        return False
    for k, unit in enumerate(units):
        if k in placed or not all(pantry(key) or key in have for key in unit.input_keys):
            continue
        if any(unit.output_keys & units[j].input_keys for j in (*placed, k)):
            continue
        if _order_exists(units, pantry, placed | {k}, have | unit.output_keys, dead):
            return True
    dead.add(placed)
    return False
