"""The benchmark's workloads: seeded inputs, the CLI calls, and their oracles.

Each workload builds its inputs in ``setup`` and then runs ``iteration``
again and again. An iteration is a fixed sequence of ``foonforge``
command lines, called in-process one at a time with the CLI's defaults
(a closed loop with one caller). Every call's output is checked against
an answer known from the inputs.
"""

from __future__ import annotations

import json
import os
import re
import shutil
from pathlib import Path

import inputs as gen
from foonforge.client import load_fixture
from foonforge.pipeline import read_manifest
from foonforge.prompts import Strategy, load_examples, render_for_dish

EXPECTED_REPLAY = Path(__file__).resolve().parent / "expected_replay34.json"


def _report_body(path: Path) -> str:
    """A run report without its two timestamp fields."""
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload.pop("started", None)
    payload.pop("finished", None)
    return json.dumps(payload, sort_keys=True)


def _rules(stdout: str) -> list:
    lines = stdout.splitlines()
    if lines and lines[0] == "valid":
        return []
    found = {m.group(1) for m in re.finditer(r"^  ([\w-]+): ", stdout, re.MULTILINE)}
    return sorted(found) or ["?"]


class Workload:
    name = ""

    def __init__(self, root: Path, seed: int):
        self.data = root / "src" / "foonforge" / "data"
        self.seed = seed
        self.reference: dict = {}
        self.cones: list = []
        self.it_dir = root
        self.replay = json.loads(EXPECTED_REPLAY.read_text(encoding="utf-8"))

    # helpers shared by the workloads

    def check_report(self, report: Path, expected: dict, stems: list | None = None) -> str | None:
        """Outcome per dish, optional output stems, and byte identity across passes."""
        payload = json.loads(report.read_text(encoding="utf-8"))
        got = {r["dish"]["name"]: (r["fallback_reason"] or "json_ok") for r in payload["records"]}
        if got != expected:
            wrong = sorted(d for d in expected if got.get(d) != expected[d])[:3]
            return f"{report}: wrong outcomes for {wrong}"
        for record in payload["records"]:
            ext = ".json" if record["outcome"] == "JSON_OK" else ".txt"
            if not record["output_path"].endswith(ext):
                return f"{report}: {record['output_path']} does not end in {ext}"
        if stems is not None:
            paths = [r["output_path"].rsplit(".", 1)[0] for r in payload["records"]]
            if paths != stems:
                return f"{report}: output stems differ from the expected collision-free stems"
        body = _report_body(report)
        ref = self.reference.setdefault(str(report.relative_to(self.it_dir)), body)
        if ref != body:
            return f"{report}: report differs from the first pass apart from its timestamps"
        return None

    def evaluate_single(self, run, report: Path, strategy: str) -> None:
        """``evaluate --compare`` on one run: a single-run row, the same on every pass."""
        def check(rc, stdout):
            row = re.search(rf"^{re.escape(strategy)}\s+\S+ \(single run\)\s.*, 1 run\(s\)$",
                            stdout, re.MULTILINE)
            if not row:
                return f"evaluate: no single-run row for {strategy}"
            if self.reference.setdefault("evaluate", stdout) != stdout:
                return "evaluate: output differs from the first pass"
            return None

        run.op("evaluate", ["evaluate", "--compare", str(report)], check)

    def small_graph_ops(self, run, outputs: list, it_dir: Path) -> None:
        """validate, convert and retrieve on generated JSON trees (2-6 units each)."""
        for path in outputs:
            run.op("validate", ["validate", str(path)],
                   lambda rc, out, p=path: None if out.startswith("valid\n")
                   else f"{p}: {out[:80]!r}")
        for path in outputs:
            try:
                obj = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, ValueError) as exc:
                run.unreadable(path, exc)
                continue
            dest = it_dir / "converted" / (path.stem + ".foon")
            dest.parent.mkdir(parents=True, exist_ok=True)
            want = gen.foon_text(obj["functional_units"])
            run.op("convert", ["convert", str(path), str(dest), "--to", "foon"],
                   lambda rc, out, d=dest, w=want: None if d.read_text(encoding="utf-8") == w
                   else f"{d}: converted text differs")
            units = obj["functional_units"]
            self.cones.append(gen.backward_cone(units, gen.key(obj["goal"])))
            run.op("retrieve", ["retrieve", "--graph", str(dest), "--goal", obj["goal"]["name"],
                                "--available", ",".join(gen.leaf_names(units))],
                   lambda rc, out, u=units, d=dest: None
                   if json.loads(out)["functional_units"] == u else f"{d}: wrong retrieved units")

    def shipped_answers(self) -> list:
        """Every shipped fixture text with its finish reason and expected category.

        Renders the prompts of the shipped 34-dish manifest under each
        strategy, so this also proves the nine fixtures cover every dish.
        """
        runs = json.loads((self.data / "fixtures" / "runs.json").read_text(encoding="utf-8"))
        manifest = read_manifest(self.data / runs["manifest"])
        examples = load_examples(self.data / runs["examples_dir"])
        answers = []
        for strategy, fixtures in runs["strategies"].items():
            bundles = [(d.name, render_for_dish(Strategy(strategy), d, examples=examples,
                                                instructions=runs["instructions"]))
                       for d in manifest.dishes()]
            for rel in fixtures:
                entries = load_fixture(self.data / rel)
                outcomes = self.replay["runs"][rel]["outcomes"]
                for dish, bundle in bundles:
                    entry = entries[bundle.context_hash]
                    answers.append((entry["text"], entry.get("finish_reason", "complete"),
                                    outcomes[dish]))
        return answers


class Replay34(Workload):
    """The paper's run: the shipped manifest through all nine shipped fixtures."""

    name = "replay-34"

    def setup(self, work: Path) -> None:
        rng = gen.rng_for(self.name, self.seed)
        runs = json.loads((self.data / "fixtures" / "runs.json").read_text(encoding="utf-8"))
        shipped = json.loads((self.data / runs["manifest"]).read_text(encoding="utf-8"))
        self.manifest = work / "manifest.json"
        gen.write_json(self.manifest, gen.shuffled_manifest(shipped, rng))
        self.instructions = runs["instructions"]
        self.runs = [(s, rel) for s, rels in runs["strategies"].items() for rel in rels]
        rng.shuffle(self.runs)
        self.sizes = {"dishes": 34, "generate_runs": len(self.runs),
                      "fixture_texts": len(self.shipped_answers())}

    def iteration(self, run, it_dir: Path) -> None:
        reports = []
        for strategy, rel in self.runs:
            expected = self.replay["runs"][rel]
            out = it_dir / strategy / Path(rel).stem
            argv = ["generate", "--manifest", str(self.manifest), "--strategy", strategy,
                    "--fixture", str(self.data / rel), "--out", str(out)]
            if strategy == "user-guided":
                argv += ["--instructions", self.instructions]
            line = (f"total={expected['total']} json_ok={expected['json_ok']} "
                    f"text_fallback={expected['text_fallback']}")
            report = out / "run_report.json"
            run.op("generate", argv,
                   lambda rc, stdout, r=report, e=expected, ln=line: (
                       None if ln in stdout else f"{r}: expected {ln!r}")
                   or self.check_report(r, e["outcomes"]),
                   dishes=expected["total"], out_dir=out)
            reports.append(report)

        def labels(rc, stdout):
            for strategy, label in self.replay["comparison"].items():
                if not re.search(rf"^{re.escape(strategy)}\s+{re.escape(label)}\s", stdout,
                                 re.MULTILINE):
                    return f"comparison: {strategy} is not {label}"
            return None

        run.op("evaluate", ["evaluate", "--compare", *map(str, reports)], labels)
        first_runs = [r for r in reports if r.parent.name.endswith("_run1")]
        outputs = []
        for report in first_runs:
            try:
                payload = json.loads(report.read_text(encoding="utf-8"))
            except (OSError, ValueError) as exc:
                run.unreadable(report, exc)
                continue
            outputs += [report.parent / r["output_path"] for r in payload["records"]
                        if r["outcome"] == "JSON_OK"]
        self.small_graph_ops(run, outputs, it_dir)


class Manifest2k(Workload):
    """2,000 seeded example-based dishes, each answered by one shipped text."""

    name = "manifest-2k"
    DISHES = 2000
    SAMPLE = 40

    def setup(self, work: Path) -> None:
        rng = gen.rng_for(self.name, self.seed)
        shipped = json.loads((self.data / "manifest_34.json").read_text(encoding="utf-8"))
        manifest, twins = gen.synthetic_manifest(shipped, rng, self.DISHES, twin_share=0.03)
        self.manifest = work / "manifest.json"
        gen.write_json(self.manifest, manifest)
        self.stems = gen.expected_stems(manifest)
        answers = self.shipped_answers()
        # the small-graph calls use the same trees under every seed; only the dishes differ
        chosen = list(dict.fromkeys(t for t, _, c in answers if c == "json_ok"))[:self.SAMPLE]
        rng.shuffle(answers)
        examples = load_examples(self.data / "examples")
        fixture, self.expected, first_use = {}, {}, {}
        for i, dish in enumerate(read_manifest(self.manifest).dishes()):
            # classification depends on the text only, so the source's category carries over
            text, finish, category = answers[i % len(answers)]
            bundle = render_for_dish(Strategy.EXAMPLE_BASED, dish, examples=examples)
            fixture[bundle.context_hash] = {"text": text, "finish_reason": finish}
            self.expected[dish.name] = category
            first_use.setdefault(text, i)
        self.fixture = work / "fixture.json"
        gen.write_json(self.fixture, fixture, indent=None)
        self.sample = sorted(first_use[t] for t in chosen)
        self.json_ok = sum(1 for c in self.expected.values() if c == "json_ok")
        self.sizes = {"dishes": len(self.expected), "stem_twins": twins,
                      "json_ok_expected": self.json_ok, "small_graph_sample": self.SAMPLE}

    def iteration(self, run, it_dir: Path) -> None:
        out = it_dir / "run"
        report = out / "run_report.json"
        total = len(self.expected)
        line = f"total={total} json_ok={self.json_ok} text_fallback={total - self.json_ok}"
        run.op("generate", ["generate", "--manifest", str(self.manifest), "--strategy",
                            "example-based", "--fixture", str(self.fixture), "--out", str(out)],
               lambda rc, stdout: (None if line in stdout else f"expected {line!r}")
               or self.check_report(report, self.expected, self.stems),
               dishes=total, out_dir=out)
        self.evaluate_single(run, report, "example-based")
        outputs = [out / f"{self.stems[i]}.json" for i in self.sample]
        self.small_graph_ops(run, outputs, it_dir)


class BigGraphs(Workload):
    """Seeded large task trees, rule-breaking mutants and retrieval graphs."""

    name = "big-graphs"
    # Chains stop at 1,000 units: validating a 2,000-unit chain took about 0.45 s when this
    # benchmark was written, and an iteration validates each tree six times, which left two
    # or three iterations in a run.
    # An iteration validates 25 trees and makes 15 queries. With a count of 5 modulo 10,
    # the median and the 90th percentile of the calls each fall inside one input's
    # samples rather than between two inputs' samples.
    SIZES = {"chain": gen.log_sizes(10, 1000, 8), "fan-in": gen.log_sizes(10, 2000, 9)}
    MUTANTS = (("cycle", 3), ("disconnected", 4), ("goal", 5), ("disconnected", 2),
               ("cycle", 5), ("goal", 2), ("disconnected", 6), ("cycle", 1))
    RETRIEVAL = ((5, 5), (25, 5), (100, 5))  # recipes in the graph, recipes queried

    def setup(self, work: Path) -> None:
        rng = gen.rng_for(self.name, self.seed)
        shipped = json.loads((self.data / "manifest_34.json").read_text(encoding="utf-8"))
        _, ingredients, tools = gen.shipped_vocabulary(shipped)
        namer = gen.Namer(rng, ingredients)
        self.trees = []  # (category, tree object, violated rule ids)
        for shape, sizes in self.SIZES.items():
            for size in sizes:
                goal = gen.node(f"{rng.choice(gen.STYLES)} {rng.choice(gen.FORMS)} {shape} {size}")
                units = gen.recipe(rng, namer, goal, size, shape)
                self.trees.append((shape, gen.tree(goal, units), []))
        for kind, index in self.MUTANTS:
            size = self.SIZES["chain"][index]
            style = f"{rng.choice(gen.STYLES)} {rng.choice(gen.FORMS)}"
            goal = gen.node(f"{style} {kind} mutant {size}")
            base = gen.recipe(rng, namer, goal, size, "chain")
            units, rules = gen.mutant(rng, namer, base, goal, kind)
            self.trees.append(("mutant", gen.tree(goal, units), rules))

        categories: dict = {}
        self.files = []
        for category, obj, rules in self.trees:
            path = work / "graphs" / (gen.sanitize(obj["goal"]["name"]) + ".foon")
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(gen.foon_text(obj["functional_units"]), encoding="utf-8")
            self.files.append((path, obj, rules))
            leaves = gen.leaf_names(obj["functional_units"])
            categories.setdefault(category, []).append(
                {"name": obj["goal"]["name"], "ingredients": leaves[:5],
                 "tools": rng.sample(tools, 2)})
        self.manifest = work / "manifest.json"
        gen.write_json(self.manifest, {"categories": [{"name": c, "dishes": d}
                                                      for c, d in categories.items()]})
        self.by_name = {obj["goal"]["name"]: (obj, rules) for _, obj, rules in self.trees}
        examples = load_examples(self.data / "examples")
        fixture, self.expected = {}, {}
        for dish in read_manifest(self.manifest).dishes():
            obj, rules = self.by_name[dish.name]
            bundle = render_for_dish(Strategy.EXAMPLE_BASED, dish, examples=examples)
            fixture[bundle.context_hash] = {"text": gen.fenced(json.dumps(obj), rng),
                                            "finish_reason": "complete"}
            self.expected[dish.name] = "structural" if rules else "json_ok"
        self.fixture = work / "fixture.json"
        gen.write_json(self.fixture, fixture, indent=None)

        self.queries = []
        graph_units = []
        for recipes, queried in self.RETRIEVAL:
            units, queries = gen.retrieval_graph(rng, namer, recipes, queried, ingredients)
            path = work / "retrieval" / f"graph_{len(units)}.foon"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(gen.foon_text(units), encoding="utf-8")
            self.queries += [(path, q) for q in queries]
            graph_units.append(len(units))
        self.sizes = {"tree_units": [len(o["functional_units"]) for _, o, _ in self.trees],
                      "retrieval_graph_units": graph_units,
                      "retrieval_cones": [q["cone"] for _, q in self.queries]}

    def iteration(self, run, it_dir: Path) -> None:
        out = it_dir / "run"
        report = out / "run_report.json"
        total = len(self.expected)
        ok = sum(1 for v in self.expected.values() if v == "json_ok")
        line = f"total={total} json_ok={ok} text_fallback={total - ok}"

        def generated(rc, stdout):
            problem = (None if line in stdout else f"expected {line!r}") \
                or self.check_report(report, self.expected)
            if problem:
                return problem
            payload = json.loads(report.read_text(encoding="utf-8"))
            for record in payload["records"]:
                if record["outcome"] == "JSON_OK":
                    obj, _ = self.by_name[record["dish"]["name"]]
                    written = json.loads((out / record["output_path"]).read_text(encoding="utf-8"))
                    if written != obj:
                        return f"{record['output_path']}: written tree differs from the answer"
            return None

        run.op("generate", ["generate", "--manifest", str(self.manifest), "--strategy",
                            "example-based", "--fixture", str(self.fixture), "--out", str(out)],
               generated, dishes=total, out_dir=out)
        self.evaluate_single(run, report, "example-based")
        for path, obj, rules in self.files:
            run.op("validate", ["validate", str(path), "--as-task-tree", "--goal",
                                obj["goal"]["name"]],
                   lambda rc, stdout, p=path, r=rules: None if _rules(stdout) == sorted(r)
                   else f"{p}: rules {_rules(stdout)} != {sorted(r)}")
        for path, obj, rules in self.files:
            if rules:
                continue
            # there and back: the graph text must come back byte for byte
            dest = it_dir / "converted" / (path.stem + ".json")
            back = dest.with_suffix(".foon")
            dest.parent.mkdir(parents=True, exist_ok=True)
            run.op("convert", ["convert", str(path), str(dest), "--to", "json", "--goal",
                               obj["goal"]["name"]],
                   lambda rc, stdout, d=dest, o=obj: None
                   if json.loads(d.read_text(encoding="utf-8")) == o else f"{d}: wrong tree")
            run.op("convert", ["convert", str(dest), str(back), "--to", "foon"],
                   lambda rc, stdout, b=back, p=path: None
                   if b.read_text(encoding="utf-8") == p.read_text(encoding="utf-8")
                   else f"{b}: round trip changed the graph text")
        for path, query in self.queries:
            self.cones.append(query["cone"])
            run.op("retrieve", ["retrieve", "--graph", str(path), "--goal", query["goal"],
                                "--available", ",".join(query["available"])],
                   lambda rc, stdout, q=query: None if json.loads(stdout) == q["expected"]
                   else f"retrieve {q['goal']}: wrong units")


WORKLOADS = {w.name: w for w in (Replay34, Manifest2k, BigGraphs)}


def clear(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


def empty_files(path: Path) -> None:
    """Truncates every file under ``path`` to zero bytes, keeping the files."""
    for folder, _, files in os.walk(path):
        for name in files:
            os.truncate(os.path.join(folder, name), 0)
