#!/usr/bin/env python3
"""Regenerate every packaged data file: manifests, example trees, and
replay fixtures.

The replay fixtures are tuned so that scoring the three strategies lands
in distinct quality bands (example-based High/High/Consistent, then
user-guided, then contextual), and the first example-based run yields
exactly 34 attempted / 27 JSON / 7 text-fallback outputs. The script
verifies all of that by actually running the pipeline against the built
fixtures before writing anything, so a failed tuning assertion leaves the
repo untouched: every file is built in a temp directory first.

Run from the repo root after changing templates, the dish table, or the
tree builders::

    python3 scripts/build_fixtures.py

Output is deterministic: reruns produce byte-identical files. With
``--check`` nothing is written: the built files are compared byte for
byte with the packaged ones, and any that differ are named on stderr
with exit code 1. A writer change that alters one serialized byte shows
up here instead of as fixture misses.
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

from foonforge.client import ReplayClient
from foonforge.foon.model import FoonGraph, ObjectNode, TaskTree, make_unit
from foonforge.foon.tree_json import serialize_task_tree_json
from foonforge.foon.validation import validate_task_tree
from foonforge.metrics import compare_strategies, run_mean_scores
from foonforge.pipeline import InputManifest, read_manifest, run_generation
from foonforge.prompts import DishSpec, Strategy, load_examples, render_for_dish

DATA_DIR = Path(__file__).resolve().parent.parent / "src" / "foonforge" / "data"

EVAL_INSTRUCTIONS = (
    "Prefer simple stovetop methods, spell out resting and cooling times, "
    "and never deep-fry anything."
)

# category -> [(dish, ingredients, tools)]
DISH_TABLE = {
    "pasta": [
        ("mac and cheese", ["macaroni", "cheese", "butter", "milk"], ["pot", "grater"]),
        ("spaghetti aglio e olio", ["spaghetti", "garlic", "olive oil", "parsley"], ["pot", "pan"]),
        ("fettuccine alfredo", ["fettuccine", "cream", "parmesan", "butter"], ["pot", "pan"]),
        ("penne arrabbiata", ["penne", "tomato", "chili flakes", "garlic"], ["pot", "pan"]),
        ("lasagna", ["lasagna sheets", "beef", "tomato", "cheese", "onion"], ["oven", "baking dish"]),
        ("pesto linguine", ["linguine", "basil", "pine nuts", "parmesan", "olive oil"], ["pot", "blender"]),
        ("carbonara", ["spaghetti", "egg", "pancetta", "parmesan"], ["pot", "pan"]),
    ],
    "breakfast": [
        ("omelette", ["egg", "butter", "salt", "chives"], ["pan", "whisk"]),
        ("pancakes", ["flour", "egg", "milk", "sugar", "baking powder"], ["pan", "whisk"]),
        ("french toast", ["bread", "egg", "milk", "cinnamon"], ["pan", "whisk"]),
        ("scrambled eggs", ["egg", "butter", "salt"], ["pan", "spatula"]),
        ("breakfast burrito", ["tortilla", "egg", "cheese", "beans", "salsa"], ["pan", "spatula"]),
        ("granola bowl", ["granola", "yogurt", "honey", "berries"], ["bowl", "spoon"]),
        ("shakshuka", ["egg", "tomato", "onion", "paprika", "feta"], ["pan", "lid"]),
    ],
    "soup": [
        ("tomato soup", ["tomato", "onion", "garlic", "cream"], ["pot", "blender"]),
        ("chicken noodle soup", ["chicken", "noodles", "carrot", "celery", "onion"], ["pot", "ladle"]),
        ("minestrone", ["beans", "pasta", "tomato", "zucchini", "carrot"], ["pot", "ladle"]),
        ("lentil soup", ["lentils", "onion", "carrot", "cumin"], ["pot", "ladle"]),
        ("miso soup", ["miso paste", "tofu", "seaweed", "scallion"], ["pot", "ladle"]),
        ("butternut squash soup", ["butternut squash", "onion", "stock", "cream"], ["pot", "blender"]),
        ("beef stew", ["beef", "potato", "carrot", "onion", "stock"], ["pot", "knife"]),
    ],
    "salad": [
        ("caesar salad", ["romaine", "croutons", "parmesan", "caesar dressing"], ["bowl", "tongs"]),
        ("greek salad", ["cucumber", "tomato", "feta", "olives", "red onion"], ["bowl", "knife"]),
        ("caprese salad", ["tomato", "mozzarella", "basil", "olive oil"], ["plate", "knife"]),
        ("coleslaw", ["cabbage", "carrot", "mayonnaise", "vinegar"], ["bowl", "grater"]),
        ("tabbouleh", ["bulgur", "parsley", "tomato", "lemon", "mint"], ["bowl", "knife"]),
        ("potato salad", ["potato", "mayonnaise", "mustard", "celery", "dill"], ["pot", "bowl"]),
    ],
    "dessert": [
        ("chocolate chip cookies", ["flour", "butter", "sugar", "chocolate chips", "egg"], ["oven", "baking sheet"]),
        ("brownies", ["chocolate", "butter", "sugar", "flour", "egg"], ["oven", "baking pan"]),
        ("apple pie", ["apples", "flour", "butter", "sugar", "cinnamon"], ["oven", "pie dish"]),
        ("banana bread", ["banana", "flour", "sugar", "butter", "egg"], ["oven", "loaf pan"]),
        ("rice pudding", ["rice", "milk", "sugar", "vanilla"], ["pot", "spoon"]),
        ("crème brûlée", ["cream", "egg yolk", "sugar", "vanilla"], ["oven", "torch", "ramekin"]),
        ("tiramisu", ["ladyfingers", "mascarpone", "coffee", "cocoa", "egg"], ["bowl", "whisk"]),
    ],
}

SAMPLE_GRAPH = """O\twater
O\tmacaroni
S\traw
M\tpour+boil
O\tmacaroni
S\tcooked
//
O\tcheese
M\tgrate
O\tcheese
S\tgrated
//
O\tmacaroni
S\tcooked
O\tcheese
S\tgrated
M\tmix
O\tmac and cheese
"""


def build_tree(
    dish: DishSpec,
    *,
    goal_suffix: str = "",
    hallucinated: tuple[str, ...] = (),
    dangling: bool = False,
    ingredient_frac: float = 1.0,
    tool_frac: float = 1.0,
) -> TaskTree:
    """Three-step tree (combine, cook, serve) with quality knobs.

    Knobs map one-to-one onto scoring rules: ``goal_suffix`` breaks the
    goal-name rule, ``hallucinated`` adds off-spec raw inputs,
    ``dangling`` leaves a side product unconsumed, and the fractions
    shrink ingredient and tool coverage.
    """
    used_ing = list(dish.ingredients[: max(1, int(len(dish.ingredients) * ingredient_frac))])
    used_tools = list(dish.tools[: int(len(dish.tools) * tool_frac)])

    base = ObjectNode(f"{dish.name} base", ("combined",), tuple(used_ing))
    inputs = [ObjectNode(i, ("fresh",)) for i in used_ing]
    inputs += [ObjectNode(t) for t in used_tools]
    inputs += [ObjectNode(h) for h in hallucinated]
    outputs = [base]
    if dangling:
        outputs.append(ObjectNode("trimmings", ("discarded",)))
    combine = make_unit(inputs, "combine", outputs)

    cooked = ObjectNode(f"{dish.name} base", ("cooked",), tuple(used_ing))
    cook = make_unit([base], "cook", [cooked])

    goal = ObjectNode(dish.name + goal_suffix)
    serve = make_unit([cooked], "serve", [goal])

    tree = TaskTree(FoonGraph((combine, cook, serve)), goal)
    assert validate_task_tree(tree).ok, f"builder produced an invalid tree for {dish.name}"
    return tree


def _tree_text(tree: TaskTree, fenced: bool) -> str:
    text = serialize_task_tree_json(tree)
    if fenced:
        return f"```json\n{text}\n```"
    return text


# --- invalid responses; each must fail even after code-fence stripping ---


def _fail_prose(dish: DishSpec) -> str:
    return (
        f"Sure! Here is a lovely way to make {dish.name}. Start by gathering "
        f"{', '.join(dish.ingredients)}, then work through the steps with care. Enjoy!"
    )


def _fail_truncated(dish: DishSpec) -> str:
    text = serialize_task_tree_json(build_tree(dish))
    cut = text[: int(len(text) * 0.6)]
    json_ok = True
    try:
        json.loads(cut)
    except json.JSONDecodeError:
        json_ok = False
    assert not json_ok, "truncated response accidentally stayed valid JSON"
    return cut


def _fail_fenced_prose(dish: DishSpec) -> str:
    return f"```\nRecipe notes for {dish.name}: whisk, season, taste, repeat.\n```"


def _fail_wrong_shape(dish: DishSpec) -> str:
    return "[1, 2, 3]"


def _fail_empty_units(dish: DishSpec) -> str:
    return json.dumps({"goal": {"name": dish.name, "states": []}, "functional_units": []})


def _fail_cycle(dish: DishSpec) -> str:
    a = ObjectNode(f"{dish.name} base", ("combined",))
    b = ObjectNode(f"{dish.name} base", ("kneaded",))
    goal = ObjectNode(dish.name)
    tree = TaskTree(
        FoonGraph(
            (
                make_unit([a], "knead", [b]),
                make_unit([b], "rest", [a]),
                make_unit([b], "serve", [goal]),
            )
        ),
        goal,
    )
    return serialize_task_tree_json(tree)


def _fail_goal_missing(dish: DishSpec) -> str:
    start = ObjectNode(dish.ingredients[0], ("fresh",))
    mid = ObjectNode("mystery base", ("combined",))
    end = ObjectNode("mystery dish")
    tree = TaskTree(
        FoonGraph(
            (
                make_unit([start], "combine", [mid]),
                make_unit([mid], "serve", [end]),
            )
        ),
        ObjectNode(dish.name),
    )
    return serialize_task_tree_json(tree)


FAILURE_VARIANTS = [
    _fail_prose,
    _fail_truncated,
    _fail_fenced_prose,
    _fail_wrong_shape,
    _fail_empty_units,
    _fail_cycle,
    _fail_goal_missing,
]


# Per-run tuning: how many dishes fail, and the knobs applied to the
# trees that succeed (index into the run's OK sequence -> knobs).
RUN_CONFIGS: dict[Strategy, list[dict]] = {
    Strategy.EXAMPLE_BASED: [
        {"fails": 7, "knobs": lambda k: {}},
        {"fails": 6, "knobs": lambda k: {}},
        {"fails": 7, "knobs": lambda k: {"hallucinated": ("truffle",)} if k == 0 else {}},
    ],
    Strategy.USER_GUIDED: [
        {
            "fails": 11,
            "knobs": lambda k: {
                "goal_suffix": " plate",
                "ingredient_frac": 0.5,
                "tool_frac": 0.5,
            },
        },
        {
            "fails": 8,
            "knobs": lambda k: {
                "goal_suffix": " plate",
                "ingredient_frac": 0.5,
                "tool_frac": 0.5,
            },
        },
        {
            "fails": 3,
            "knobs": lambda k: {
                "goal_suffix": " plate",
                "ingredient_frac": 0.5,
                "tool_frac": 0.5,
            },
        },
    ],
    Strategy.CONTEXTUAL: [
        {
            "fails": 24,
            "knobs": lambda k: {
                "goal_suffix": " surprise",
                "hallucinated": ("truffle",),
                "dangling": True,
                "ingredient_frac": 0.34,
                "tool_frac": 0.0,
            },
        },
        {
            "fails": 8,
            "knobs": lambda k: {
                "goal_suffix": " surprise",
                "hallucinated": ("truffle",),
                "ingredient_frac": 0.5,
                "tool_frac": 0.0,
            },
        },
        {
            "fails": 22,
            "knobs": lambda k: {
                "goal_suffix": " surprise",
                "hallucinated": ("truffle",),
                "dangling": True,
                "ingredient_frac": 0.34,
                "tool_frac": 0.0,
            },
        },
    ],
}


def build_manifest_payload() -> dict:
    return {
        "categories": [
            {
                "name": category,
                "dishes": [
                    {"name": name, "ingredients": ingredients, "tools": tools}
                    for name, ingredients, tools in dishes
                ],
            }
            for category, dishes in DISH_TABLE.items()
        ]
    }


def build_sample_manifest_payload() -> dict:
    return {
        "categories": [
            {
                "name": "pasta",
                "dishes": [
                    {
                        "name": "mac and cheese",
                        "ingredients": ["macaroni", "cheese", "water"],
                        "tools": ["pot", "grater"],
                    },
                    {
                        "name": "spaghetti aglio e olio",
                        "ingredients": ["spaghetti", "garlic", "olive oil"],
                        "tools": ["pot", "pan"],
                    },
                ],
            },
            {
                "name": "breakfast",
                "dishes": [
                    {
                        "name": "omelette",
                        "ingredients": ["egg", "butter", "salt"],
                        "tools": ["pan", "whisk"],
                    }
                ],
            },
        ]
    }


def build_example_trees() -> dict[str, TaskTree]:
    grated = ObjectNode("cheese", ("grated",))
    cooked = ObjectNode("macaroni", ("cooked",))
    mac_tree = TaskTree(
        FoonGraph(
            (
                make_unit([ObjectNode("cheese")], "grate", [grated]),
                make_unit([cooked, grated], "mix", [ObjectNode("mac and cheese")]),
            )
        ),
        ObjectNode("mac and cheese"),
    )
    omelette = DishSpec("breakfast", "omelette", ("egg", "butter", "salt", "chives"), ("pan", "whisk"))
    return {"mac_and_cheese": mac_tree, "omelette": build_tree(omelette)}


def build_fixture(
    strategy: Strategy,
    run_index: int,
    manifest: InputManifest,
    examples,
) -> tuple[dict[str, dict], dict]:
    """One replay fixture plus its expected counts."""
    config = RUN_CONFIGS[strategy][run_index]
    dishes = list(manifest.dishes())
    rng = random.Random(1000 + 10 * list(Strategy).index(strategy) + run_index)
    fail_indices = sorted(rng.sample(range(len(dishes)), config["fails"]))

    fixture: dict[str, dict] = {}
    ok_seen = 0
    for i, dish in enumerate(dishes):
        bundle = render_for_dish(
            strategy, dish, examples=examples, instructions=EVAL_INSTRUCTIONS
        )
        if i in fail_indices:
            variant = FAILURE_VARIANTS[fail_indices.index(i) % len(FAILURE_VARIANTS)]
            text = variant(dish)
        else:
            knobs = config["knobs"](ok_seen)
            text = _tree_text(build_tree(dish, **knobs), fenced=(ok_seen % 4 == 0))
            ok_seen += 1
        fixture[bundle.context_hash] = {"text": text, "finish_reason": "complete"}

    expected = {"total": len(dishes), "json_ok": len(dishes) - config["fails"]}
    return fixture, expected


def verify(manifest: InputManifest, examples, fixtures) -> dict[Strategy, list]:
    """Run the pipeline against every fixture and check the tuning."""
    reports: dict[Strategy, list] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for strategy, runs in fixtures.items():
            reports[strategy] = []
            for run_index, (fixture, expected) in enumerate(runs):
                out = Path(tmp) / strategy.value / str(run_index)
                report = run_generation(
                    manifest,
                    strategy,
                    ReplayClient(fixture),
                    out,
                    examples=examples,
                    instructions=EVAL_INSTRUCTIONS,
                )
                assert report.total == expected["total"], (strategy, run_index, report.total)
                assert report.json_ok == expected["json_ok"], (
                    strategy,
                    run_index,
                    report.json_ok,
                )
                reports[strategy].append(report)

    comparison = compare_strategies(reports)
    eb = comparison.entry(Strategy.EXAMPLE_BASED)
    ug = comparison.entry(Strategy.USER_GUIDED)
    ctx = comparison.entry(Strategy.CONTEXTUAL)

    assert (eb.accuracy_band, eb.completeness_band, eb.reliability) == (
        "High",
        "High",
        "Consistent",
    ), eb
    assert (ug.accuracy_band, ug.completeness_band, ug.reliability) == (
        "Medium",
        "Low",
        "Variable",
    ), ug
    assert (ctx.accuracy_band, ctx.completeness_band, ctx.reliability) == (
        "Low",
        "Low",
        "Inconsistent",
    ), ctx

    for strategy, runs in reports.items():
        accs = [run_mean_scores(r).accuracy for r in runs]
        spread = statistics.stdev(accs)
        print(
            f"{strategy.value}: per-run accuracy means "
            f"{[f'{a:.3f}' for a in accs]} (stdev {spread:.3f})"
        )
    return reports


def write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, ensure_ascii=False, sort_keys=True) + "\n",
                    encoding="utf-8")


def build(out_dir: Path) -> list[Path]:
    """Build and verify every data file under ``out_dir``; returns their
    paths relative to it."""
    manifest_payload = build_manifest_payload()
    examples_trees = build_example_trees()

    # examples must hit disk before rendering so fixture hashes key on
    # exactly what the pipeline will load
    examples_dir = out_dir / "examples"
    examples_dir.mkdir(parents=True, exist_ok=True)
    for name, tree in examples_trees.items():
        (examples_dir / f"{name}.json").write_text(
            serialize_task_tree_json(tree) + "\n", encoding="utf-8"
        )

    write_json(out_dir / "manifest_34.json", manifest_payload)
    write_json(out_dir / "manifest_sample.json", build_sample_manifest_payload())
    (out_dir / "macaroni.foon").write_text(SAMPLE_GRAPH, encoding="utf-8")

    manifest = read_manifest(out_dir / "manifest_34.json")
    examples = load_examples(examples_dir)
    assert len(examples.trees) == len(examples_trees)

    fixtures = {
        strategy: [
            build_fixture(strategy, run_index, manifest, examples)
            for run_index in range(len(RUN_CONFIGS[strategy]))
        ]
        for strategy in Strategy
    }

    verify(manifest, examples, fixtures)

    strategy_files: dict[str, list[str]] = {}
    for strategy, runs in fixtures.items():
        slug = strategy.value.replace("-", "_")
        files = []
        for run_index, (fixture, _) in enumerate(runs):
            rel = f"fixtures/replay_{slug}_run{run_index + 1}.json"
            write_json(out_dir / rel, fixture)
            files.append(rel)
        strategy_files[strategy.value] = files

    write_json(
        out_dir / "fixtures" / "runs.json",
        {
            "manifest": "manifest_34.json",
            "examples_dir": "examples",
            "instructions": EVAL_INSTRUCTIONS,
            "strategies": strategy_files,
        },
    )
    return sorted(p.relative_to(out_dir) for p in out_dir.rglob("*") if p.is_file())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare the built files with the packaged ones and write nothing; "
        "exit 1 naming every file that differs",
    )
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        built = build(Path(tmp))
        if args.check:
            drifted = [
                str(rel)
                for rel in built
                if not (DATA_DIR / rel).is_file()
                or (DATA_DIR / rel).read_bytes() != (Path(tmp) / rel).read_bytes()
            ]
            if drifted:
                print(f"drift from {DATA_DIR}: {', '.join(drifted)}", file=sys.stderr)
                return 1
            print(f"all {len(built)} data files under {DATA_DIR} are up to date")
            return 0
        for rel in built:
            (DATA_DIR / rel).parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(Path(tmp) / rel, DATA_DIR / rel)
    print(f"wrote data files under {DATA_DIR}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
