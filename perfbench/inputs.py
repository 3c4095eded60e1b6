"""Seeded input generators for the benchmark's workloads.

Everything here is built from the stdlib and the shipped data files, and
written in the documented file formats by this module's own writers, so
the program under test receives only generated files. The same seed gives
byte-identical inputs.
"""

from __future__ import annotations

import json
import random
import re
from pathlib import Path

STYLES = ("rustic", "quick", "spiced", "creamy", "smoky", "baked", "herbed", "crispy",
          "golden", "simple", "stuffed", "glazed", "roasted", "fresh", "sunday", "country")
FORMS = ("bake", "bowl", "stew", "skillet", "tart", "gratin", "salad", "soup", "pie",
         "hash", "wrap", "pot", "plate", "roll", "casserole", "toast")
MOTIONS = ("mix", "chop", "boil", "fry", "bake", "stir", "whisk", "grate", "slice",
           "simmer", "roast", "fold", "knead", "pour", "season", "blend")
PRODUCTS = ("dough", "batter", "sauce", "filling", "base", "mixture", "broth", "paste",
            "crumb", "glaze", "stock", "puree")

_NON_ALNUM = re.compile(r"[^a-z0-9]+")


def rng_for(workload: str, seed: int) -> random.Random:
    # a str seed is hashed with SHA-512, so it is stable across processes
    return random.Random(f"{workload}/{seed}")


def write_json(path: Path, payload, *, indent: int | None = 2) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=indent, ensure_ascii=False)
                    + "\n", encoding="utf-8")


def sanitize(name: str) -> str:
    """The output-stem rule the README documents for dish and category names."""
    text = name.lower().replace("&", " and ")
    text = _NON_ALNUM.sub("_", text).strip("_")
    return text[:120].rstrip("_") or "unnamed"


# --- task-tree JSON and graph text, written independently of the program ---

def node(name: str, states=()) -> dict:
    return {"name": name, "states": sorted(states)}


def unit(inputs: list, motion: str, outputs: list) -> dict:
    return {"inputs": inputs, "motion": motion, "outputs": outputs}


def tree(goal: dict, units: list) -> dict:
    return {"goal": goal, "functional_units": units}


def key(obj: dict) -> tuple:
    return (obj["name"], tuple(obj["states"]))


def foon_text(units: list) -> str:
    """Canonical graph text: O, then I, then S lines per object; units split by //."""
    blocks = []
    for u in units:
        lines = []
        for obj in u["inputs"]:
            _emit(obj, lines)
        lines.append(f"M\t{u['motion']}")
        for obj in u["outputs"]:
            _emit(obj, lines)
        blocks.append("\n".join(lines))
    return "\n//\n".join(blocks) + "\n"


def _emit(obj: dict, lines: list) -> None:
    lines.append(f"O\t{obj['name']}")
    if obj.get("ingredients"):
        lines.append("I\t" + ",".join(obj["ingredients"]))
    for state in obj["states"]:
        lines.append(f"S\t{state}")


def leaf_names(units: list) -> list:
    produced = {key(o) for u in units for o in u["outputs"]}
    names = []
    for u in units:
        for o in u["inputs"]:
            if key(o) not in produced and o["name"] not in names:
                names.append(o["name"])
    return names


def backward_cone(units: list, goal_key: tuple) -> int:
    """Number of units that can transitively contribute to the goal."""
    producers: dict = {}
    for i, u in enumerate(units):
        for o in u["outputs"]:
            producers.setdefault(key(o), []).append(i)
    seen_keys, cone, frontier = {goal_key}, set(), [goal_key]
    while frontier:
        for i in producers.get(frontier.pop(), ()):
            if i not in cone:
                cone.add(i)
                for o in units[i]["inputs"]:
                    if key(o) not in seen_keys:
                        seen_keys.add(key(o))
                        frontier.append(key(o))
    return len(cone)


# --- shipped vocabulary -----------------------------------------------------

def shipped_vocabulary(manifest: dict) -> tuple[list, list, list]:
    categories, ingredients, tools = [], [], []
    for cat in manifest["categories"]:
        categories.append(cat["name"])
        for dish in cat["dishes"]:
            ingredients += [i for i in dish["ingredients"] if i not in ingredients]
            tools += [t for t in dish.get("tools", []) if t not in tools]
    return categories, ingredients, tools


# --- replay-34 --------------------------------------------------------------

def shuffled_manifest(manifest: dict, rng: random.Random) -> dict:
    """The shipped manifest with categories and dishes in a seeded order."""
    cats = [dict(c, dishes=list(c["dishes"])) for c in manifest["categories"]]
    rng.shuffle(cats)
    for c in cats:
        rng.shuffle(c["dishes"])
    return {"categories": cats}


# --- manifest-2k ------------------------------------------------------------

def synthetic_manifest(shipped: dict, rng: random.Random, dishes: int,
                       twin_share: float) -> tuple[dict, int]:
    """``dishes`` dishes over the shipped vocabulary.

    A ``twin_share`` of them come in pairs such as "Ham & Leek Bake" and
    "ham and leek bake": distinct dish names whose file stems collide, so
    the pipeline has to suffix the second one. Returns the manifest and
    the number of such twins.
    """
    categories, ingredients, tools = shipped_vocabulary(shipped)
    by_cat: dict = {c: [] for c in categories}
    names: set = set()
    twins = 0
    made = 0
    while made < dishes:
        cat = rng.choice(categories)
        picked = rng.sample(ingredients, rng.randint(3, 6))
        spec_tools = rng.sample(tools, rng.randint(1, 3))
        if rng.random() < twin_share / 2 and made + 2 <= dishes:
            a, b = picked[0], picked[1]
            form = rng.choice(FORMS)
            base = f"{a} and {b} {form}"
            twin = f"{a.title()} & {b.title()} {form.title()}"
            if base in names or twin.lower() in names:
                continue
            for name in (base, twin):
                names.add(name.lower())
                by_cat[cat].append({"name": name, "ingredients": picked, "tools": spec_tools})
            twins += 1
            made += 2
            continue
        name = f"{rng.choice(STYLES)} {picked[0]} {rng.choice(FORMS)}"
        while name in names:
            name = f"{name} {rng.randint(2, 99)}"
        names.add(name)
        by_cat[cat].append({"name": name, "ingredients": picked, "tools": spec_tools})
        made += 1
    return {"categories": [{"name": c, "dishes": d} for c, d in by_cat.items() if d]}, twins


def expected_stems(manifest: dict) -> list:
    """Collision-free output stems in manifest order: ``_2``, ``_3`` on repeats."""
    stems, used = [], {}
    for cat in manifest["categories"]:
        for dish in cat["dishes"]:
            category, name = cat["name"].strip().lower(), dish["name"].strip().lower()
            stem = f"{sanitize(category)}/{sanitize(name)}"
            used[stem] = used.get(stem, 0) + 1
            stems.append(stem if used[stem] == 1 else f"{stem}_{used[stem]}")
    return stems


# --- big-graphs -------------------------------------------------------------

def log_sizes(low: int, high: int, count: int) -> list:
    return [round(low * (high / low) ** (i / (count - 1))) for i in range(count)]


class Namer:
    """Hands out graph-unique object names drawn from a vocabulary."""

    def __init__(self, rng: random.Random, words: list):
        self.rng, self.words, self.count = rng, words, 0

    def __call__(self, words=None) -> str:
        self.count += 1
        return f"{self.rng.choice(words or self.words)} {self.count}"


def recipe(rng: random.Random, namer: Namer, goal: dict, size: int, shape: str,
           raw_state: bool = True) -> list:
    """A task tree of ``size`` units for ``goal``, listed inputs before consumers.

    ``chain`` feeds each step into the next; ``fan-in`` is a binary tree,
    about log2(size) deep. The shape depends on the size only; the seed
    picks names, motions and raw-item states.
    """
    parent = [None] + [i - 1 if shape == "chain" else (i - 1) // 2 for i in range(1, size)]
    outputs = [goal] + [node(namer(list(PRODUCTS)), (f"stage {i}",)) for i in range(1, size)]
    children: dict = {}
    for i in range(1, size):
        children.setdefault(parent[i], []).append(i)
    units = []
    for i in range(size):
        inputs = [outputs[c] for c in children.get(i, [])]
        for _ in range(1 if inputs else 2):
            states = rng.sample(("chopped", "washed", "cold"), rng.choice((1, 2)))
            inputs.append(node(namer(), states if raw_state and rng.random() < 0.3 else ()))
        units.append(unit(inputs, rng.choice(MOTIONS), [outputs[i]]))
    units.reverse()
    return units


def mutant(rng: random.Random, namer: Namer, base: list, goal: dict, kind: str) -> tuple:
    """A copy of a valid chain that breaks one rule; returns units and rule ids."""
    units = json.loads(json.dumps(base))
    if kind == "cycle":
        # the first step also consumes the last intermediate, which needs it
        units[0]["inputs"].append(units[-2]["outputs"][0])
        return units, ["cycle"]
    if kind == "disconnected":
        spare = node(namer(list(PRODUCTS)), ("spare",))
        stray = unit([node(namer())], rng.choice(MOTIONS), [spare])
        units.insert(rng.randrange(len(units)), stray)
        return units, ["disconnected"]
    # the goal is eaten by a step whose product feeds nothing
    units.append(unit([goal, node(namer())], rng.choice(MOTIONS),
                      [node(namer(list(PRODUCTS)), ("leftover",))]))
    return units, ["disconnected", "goal"]


# (units in the intended tree, units in its backward cone) of successive recipes
RETRIEVAL_SPECS = ((2, 8), (3, 10), (4, 11), (4, 13), (5, 14))


def retrieval_graph(rng: random.Random, namer: Namer, recipes: int, queries: int,
                    dish_words: list) -> tuple[list, list]:
    """A graph of independent recipes with alternative producers.

    Each recipe's intended units are the unique smallest feasible set:
    every alternative producer either needs an item no pantry holds, or,
    for a step that uses raw items only, needs an extra preparation step.
    Alternatives come first in the file, so an exhaustive search in index
    order meets the answer last among the sets of its size; the search's
    work then depends on the specs above and not on the seed. The first
    ``queries`` recipes are returned as queries with their pantry,
    expected tree and backward-cone size.
    """
    units, queries_out = [], []
    for r in range(recipes):
        size, cone = RETRIEVAL_SPECS[r % len(RETRIEVAL_SPECS)]
        goal = node(f"{rng.choice(dish_words)} {rng.choice(FORMS)} {namer.count + 1}")
        namer.count += 1
        main = recipe(rng, namer, goal, size, ("chain", "fan-in")[r % 2], raw_state=False)
        produced = {key(o) for u in main for o in u["outputs"]}
        decoys, budget = [], cone - size
        while budget > 0:
            target = rng.choice(main)
            out = target["outputs"][0]
            leaf_step = all(key(o) not in produced for o in target["inputs"])
            if leaf_step and budget >= 2 and rng.random() < 0.5:
                mid = node(namer(list(PRODUCTS)), ("prepped",))
                decoys.append(unit([node(namer())], rng.choice(MOTIONS), [mid]))
                decoys.append(unit([mid, node(namer())], rng.choice(MOTIONS), [out]))
                budget -= 2
            else:
                decoys.append(unit([node(namer(), ("missing",)), node(namer())],
                                   rng.choice(MOTIONS), [out]))
                budget -= 1
        units += decoys + main
        if r < queries:
            missing = {o["name"] for d in decoys for o in d["inputs"] if o["states"] == ["missing"]}
            queries_out.append({
                "goal": goal["name"],
                "available": [n for n in leaf_names(main + decoys) if n not in missing],
                "expected": tree(goal, main),
            })
    for q in queries_out:
        q["cone"] = backward_cone(units, key(q["expected"]["goal"]))
    return units, queries_out


def fenced(text: str, rng: random.Random) -> str:
    return f"```json\n{text}\n```" if rng.random() < 0.5 else text
