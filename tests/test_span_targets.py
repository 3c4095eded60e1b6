"""The benchmark's view of the package holds.

``perfbench/spans.py`` attaches its per-layer spans by module and
attribute name, and skips a name it cannot find. Renaming a traced
function would then drop its span without a word; this test fails
instead. Likewise ``perfbench/inputs.py`` checks each ``manifest-2k``
run's output stems against its own rule, so a change to the package's
stems that the benchmark would count as failed operations fails here
first.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from foonforge.cli import main
from foonforge.foon import tree_json
from foonforge.foon.validation import validate_graph, validate_task_tree
from foonforge.pipeline import _resolve_stems, read_manifest
from foonforge.resources import data_path

from .graphgen import chain_tree

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _bench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave the benchmark's directory as it is
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_every_span_target_resolves_to_a_package_function():
    targets = _bench_module("spans").TARGETS
    assert targets
    missing = []
    for name, modname, attr in targets:
        assert modname == "foonforge" or modname.startswith("foonforge."), name
        owner = importlib.import_module(modname)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{name}: {modname}.{attr}")
    assert missing == []


def test_a_parse_validates_once_and_its_span_sees_it():
    source = tree_json.serialize_task_tree_json(chain_tree(4))
    tree = tree_json.parse_task_tree_json(source)
    # the parser's report is the tree's, in place before the first read
    assert "validation" in vars(tree)
    report = tree.validation
    assert report.ok and report == validate_graph(tree.graph, tree.goal)
    assert tree.validation is report and validate_task_tree(tree) is report
    spans = _bench_module("spans")
    tracer = spans.Tracer()
    tracer.install()
    try:
        tree_json.parse_task_tree_json(source)  # through the module, as the package calls it
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    names = [span[1] for span in tracer.spans]
    assert names.count("validation.validate") == 1
    assert names.count("tree_json.parse") == 1
    assert spans.layer_metrics(tracer.spans)["calls"]["validation.validate"] == 1


def test_a_traced_evaluate_records_one_score_span_per_pair(shipped_runs, capsys):
    spans = _bench_module("spans")
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert main(["evaluate", "--compare", *map(str, shipped_runs)]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert tracer.missing == []
    # the nine shipped runs hold 172 distinct (tree, dish) pairs, 138 of them successes
    assert spans.layer_metrics(tracer.spans)["calls"]["metrics.score"] == 172


@pytest.fixture(scope="module")
def bench_inputs():
    return _bench_module("inputs")


@pytest.mark.parametrize("seed", range(1, 21))
def test_output_stems_match_the_benchmarks_rule(tmp_path, bench_inputs, seed):
    # the manifest-2k workload's manifest: 2,000 dishes, 3% of them stem twins
    shipped = json.loads(data_path("manifest_34.json").read_text(encoding="utf-8"))
    rng = bench_inputs.rng_for("manifest-2k", seed)
    manifest, twins = bench_inputs.synthetic_manifest(shipped, rng, 2000, twin_share=0.03)
    path = tmp_path / "manifest.json"
    bench_inputs.write_json(path, manifest)
    stems = _resolve_stems(read_manifest(path))
    assert twins and len(set(stems)) == len(stems) == 2000
    assert stems == bench_inputs.expected_stems(manifest)
