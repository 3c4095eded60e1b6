"""Each fact of a run is computed once.

A tree is validated when it is parsed and never again, and an answer
text that several records of an ``evaluate`` hold is parsed once in
that command, as a dish that several records hold is built once, a
(tree, dish) pair scored once and a tree's score facts gathered once; a prompt's template is read once and its example block
serialized once per loaded example set, so once per command, and a
``generate`` compiles its template and hashes the prompts' shared prefix
once, not once per dish; an output
directory is made once, and an output file opened once. A run report
is rendered once per ``generate`` and written piece by piece, no write
longer than its head and its longest record. The counts are
taken on the shipped example-based run1 (34 dishes, 27 JSON outputs) by
wrapping the counted function wherever the package holds a reference to
it. A plain command line builds no argument parser, and help or a usage
error builds the full one, counted by wrapping
``ArgumentParser.__init__``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import sys
import types
import weakref
from collections import Counter

import pytest

from foonforge import cli, metrics, pipeline, prompts
from foonforge.cli import main
from foonforge.foon import tree_json, validation
from foonforge.pipeline import FallbackReason, RunReport, load_run_report
from foonforge.prompts import DishSpec, load_examples
from foonforge.resources import data_path

from .graphgen import record_report_writes


def _count_calls(monkeypatch, module, name: str) -> list:
    """Record the arguments of every call to ``module.name`` made by the package."""
    fn = getattr(module, name)
    calls: list = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for modname, mod in list(sys.modules.items()):
        if mod is not None and (modname == "foonforge" or modname.startswith("foonforge.")):
            for key, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, key, counted)
    return calls


@pytest.fixture()
def counts(monkeypatch):
    # start from a cold template cache, as a fresh process does
    prompts.default_template.cache_clear()
    return {
        "validate": _count_calls(monkeypatch, validation, "validate_graph"),
        "parse": _count_calls(monkeypatch, tree_json, "parse_task_tree_json"),
        "serialize": _count_calls(monkeypatch, tree_json, "serialize_task_tree_json"),
        "read": _count_calls(monkeypatch, prompts, "read_data_text"),
    }


def _generate_run1(out, capsys, manifest_path):
    code = main(
        [
            "generate",
            "--manifest",
            str(manifest_path),
            "--strategy",
            "example-based",
            "--fixture",
            str(data_path("fixtures", "replay_example_based_run1.json")),
            "--out",
            str(out),
            "--strict-replay",
        ]
    )
    assert code == 0
    assert "total=34 json_ok=27 text_fallback=7" in capsys.readouterr().out
    return out / "run_report.json"


@pytest.fixture()
def run1(tmp_path, capsys, counts, acceptance_manifest_path):
    return _generate_run1(tmp_path / "run1", capsys, acceptance_manifest_path)


def test_generate_call_counts(run1, counts):
    validated, serialized = len(counts["validate"]), len(counts["serialize"])
    templates_read = sum(1 for args in counts["read"] if args[0] == "templates")
    report = load_run_report(run1)
    structural = sum(1 for r in report.records if r.fallback_reason is FallbackReason.STRUCTURAL)
    assert (report.json_ok, structural) == (27, 2)
    # once per response that passes the schema, plus once per example tree
    assert validated == report.json_ok + structural + 2 == 31
    # once per JSON output, plus once per example tree
    assert serialized == report.json_ok + 2 == 29
    assert templates_read == 1


def test_generate_compiles_its_template_and_hashes_its_prefix_once(
    tmp_path, capsys, monkeypatch, acceptance_manifest_path
):
    compiled: list = []
    init = prompts.CompiledTemplate.__init__

    def counted_init(self, *args, **kwargs):
        compiled.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(prompts.CompiledTemplate, "__init__", counted_init)
    hashed: list = []
    sha256 = hashlib.sha256

    def counted_sha256(data):
        hashed.append(data)
        return sha256(data)

    monkeypatch.setattr(prompts, "hashlib", types.SimpleNamespace(sha256=counted_sha256))
    one_off = _count_calls(monkeypatch, prompts, "render_for_dish")
    whole = _count_calls(monkeypatch, prompts, "context_hash")
    report = load_run_report(_generate_run1(tmp_path / "run1", capsys, acceptance_manifest_path))
    assert report.total == 34
    assert len(compiled) == 1
    # one hash, of the part every prompt shares: each dish finishes a copy of it
    assert len(hashed) == 1
    prefix = hashed[0].decode("utf-8").removeprefix("example-based\n")
    example_block = load_examples(data_path("examples")).block
    assert example_block in prefix and "{{" not in prefix
    assert (one_off, whole) == ([], [])


def test_each_command_serializes_its_examples_once(
    tmp_path, capsys, counts, acceptance_manifest_path
):
    # no cache is cleared between the runs: the second command in this
    # process builds its example block from its own loaded set, as the first did
    for run in ("first", "second"):
        counts["serialize"].clear()
        report = load_run_report(_generate_run1(tmp_path / run, capsys, acceptance_manifest_path))
        assert len(counts["serialize"]) == report.json_ok + 2 == 29


def test_evaluate_reuses_the_validation_of_parsing(run1, counts, capsys):
    counts["validate"].clear()
    assert main(["evaluate", str(run1)]) == 0
    assert "Successful JSON outputs" in capsys.readouterr().out
    assert len(counts["validate"]) == 27  # one per JSON_OK record


# evaluate --compare over the nine shipped runs, as it printed when every
# record's text was parsed on its own
_COMPARE_NINE = (
    "Metric         Value                 Notes\n"
    "example-based  High/High/Consistent  accuracy 0.802, completeness 0.804, 3 run(s)\n"
    "user-guided    Medium/Low/Variable   accuracy 0.627, completeness 0.370, 3 run(s)\n"
    "contextual     Low/Low/Inconsistent  accuracy 0.239, completeness 0.083, 3 run(s)\n"
)


def _json_ok_texts(reports) -> list:
    texts = []
    for path in reports:
        payload = json.loads(path.read_text(encoding="utf-8"))
        texts += [r["raw_text"] for r in payload["records"] if r["outcome"] == "JSON_OK"]
    return texts


def test_evaluate_compare_parses_each_distinct_answer_once(shipped_runs, counts, capsys):
    texts = _json_ok_texts(shipped_runs)
    # runs of the same dishes repeat answers word for word
    assert (len(texts), len(set(texts))) == (210, 138)
    counts["validate"].clear()
    assert main(["evaluate", "--compare", *map(str, shipped_runs)]) == 0
    assert capsys.readouterr().out == _COMPARE_NINE
    assert len(counts["validate"]) == len(set(texts))


def test_each_evaluate_command_parses_its_own_answers(shipped_runs, counts, capsys):
    reports = shipped_runs[:2]
    distinct = len(set(_json_ok_texts(reports)))
    outputs = []
    for _ in range(2):
        counts["parse"].clear()
        assert main(["evaluate", *map(str, reports)]) == 0
        outputs.append(capsys.readouterr().out)
        # no parse is carried from one command to the next
        assert len(counts["parse"]) == distinct
    assert outputs[0] == outputs[1]


def _count_dish_builds(monkeypatch) -> list:
    built: list = []
    init = DishSpec.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(DishSpec, "__init__", counted)
    return built


def test_evaluate_compare_builds_each_dish_and_scores_each_pair_once(
    shipped_runs, monkeypatch, capsys
):
    built = _count_dish_builds(monkeypatch)
    scored = _count_calls(monkeypatch, metrics, "score_record")
    assert main(["evaluate", "--compare", *map(str, shipped_runs)]) == 0
    assert capsys.readouterr().out == _COMPARE_NINE
    # nine runs of the same 34 dishes: 306 records
    assert len(built) == len({args for args in built}) == 34
    records = [args[0] for args in scored]
    pairs = {(id(r.tree), id(r.dish)) for r in records}
    assert len(records) == len(pairs)
    # the 210 successes hold 138 distinct (answer, dish) pairs; a fallback scores
    # 0 whatever its text, so the fallbacks of one dish are one pair
    assert sum(r.tree is not None for r in records) == 138
    assert len(records) == 138 + len({r.dish for r in records if r.tree is None})


def test_each_evaluate_command_builds_its_own_dishes(shipped_runs, monkeypatch, capsys):
    built = _count_dish_builds(monkeypatch)
    scored = _count_calls(monkeypatch, metrics, "score_record")
    outputs = []
    for _ in range(2):
        built.clear()
        scored.clear()
        assert main(["evaluate", *map(str, shipped_runs)]) == 0
        outputs.append(capsys.readouterr().out)
        # nothing is carried from one command to the next
        assert len(built) == 34
        # one report after another, only the successes score
        assert len(scored) == 138
    assert outputs[0] == outputs[1]


# evaluate --compare over the shared-texts report and the run1 report it
# was made from, as the parent of the per-tree scoring split printed it
_COMPARE_SHARED = (
    "Metric         Value                    Notes\n"
    "example-based  Medium/Low/Inconsistent  accuracy 0.653, completeness 0.491, 2 run(s)\n"
)


def test_evaluate_compare_gathers_each_trees_facts_once(
    shipped_runs, shared_texts_report, monkeypatch, capsys
):
    reports = [shared_texts_report, shipped_runs[3]]
    texts = _json_ok_texts(reports)
    # three texts meet 27 dishes in the shared report; run1 holds 27 texts
    assert (len(texts), len(set(texts))) == (54, 27)
    facts = _count_calls(monkeypatch, metrics, "_tree_facts")
    scored = _count_calls(monkeypatch, metrics, "score_record")
    assert main(["evaluate", "--compare", *map(str, reports)]) == 0
    assert capsys.readouterr().out == _COMPARE_SHARED
    trees = [args[0] for args in facts]
    assert len(trees) == len({id(tree) for tree in trees}) == len(set(texts))
    records = [args[0] for args in scored]
    pairs = {(id(r.tree), id(r.dish)) for r in records}
    assert len(records) == len(pairs)
    # a tree meets the dishes of every record that holds its text
    assert sum(r.tree is not None for r in records) == 27 + 24
    assert {id(r.tree) for r in records if r.tree is not None} == {id(tree) for tree in trees}


def test_each_evaluate_command_gathers_its_own_facts(
    shipped_runs, shared_texts_report, monkeypatch, capsys
):
    # weak references to the trees whose facts were gathered, so the
    # count holds none of them alive
    gathered: list = []
    tree_facts = metrics._tree_facts

    def counted(tree, *args):
        gathered.append(weakref.ref(tree))
        return tree_facts(tree, *args)

    monkeypatch.setattr(metrics, "_tree_facts", counted)
    outputs = []
    for _ in range(2):
        gathered.clear()
        assert main(["evaluate", str(shared_texts_report), str(shipped_runs[3])]) == 0
        outputs.append(capsys.readouterr().out)
        assert len(gathered) == 27
        # no fact, and no tree, is carried from one command to the next
        gc.collect()
        assert [ref for ref in gathered if ref() is not None] == []
    assert outputs[0] == outputs[1]


def test_report_is_rendered_once_and_written_in_pieces(
    tmp_path, capsys, monkeypatch, acceptance_manifest_path
):
    rendered = _count_calls(monkeypatch, pipeline, "report_to_json")
    writes = record_report_writes(monkeypatch)
    path = _generate_run1(tmp_path / "run1", capsys, acceptance_manifest_path)
    assert len(rendered) == 1
    text = path.read_text(encoding="utf-8")
    assert "".join(writes) == text
    # each record as the report holds it, two levels in
    records = [
        json.dumps(record, indent=2, ensure_ascii=False).replace("\n", "\n    ")
        for record in json.loads(text)["records"]
    ]
    head = text[: text.index(records[0])]
    assert len(records) == 34
    # no write carries the whole report
    assert max(map(len, writes)) <= len(head) + max(map(len, records))


class _CountedRecords(tuple):
    """A record tuple that counts the scans made over it."""

    scans = 0

    def __iter__(self):
        self.scans += 1
        return super().__iter__()


def test_report_counts_are_computed_once(run1):
    loaded = load_run_report(run1)
    report = RunReport(loaded.strategy, _CountedRecords(loaded.records), "", "")
    for _ in range(9):
        assert (report.total, report.json_ok, report.text_fallback) == (34, 27, 7)
    assert report.records.scans == 1


def test_output_directories_are_made_once_and_files_opened_once(run1, monkeypatch, capsys):
    report = load_run_report(run1)
    categories = {record.output_path.split("/")[0] for record in report.records}
    assert len(report.records) == 34 and len(categories) == 5
    fresh = run1.parent.parent / "fresh"
    made: list = []
    opened: list = []
    real_makedirs, real_open = os.makedirs, os.open
    depth = [0]

    def makedirs(name, *args, **kwargs):
        # os.makedirs makes a missing parent by calling itself: count the outer call
        if depth[0] == 0:
            made.append(os.fspath(name))
        depth[0] += 1
        try:
            return real_makedirs(name, *args, **kwargs)
        finally:
            depth[0] -= 1

    def open_(path, *args, **kwargs):
        fd = real_open(path, *args, **kwargs)
        opened.append(os.fspath(path))
        return fd

    monkeypatch.setattr(os, "makedirs", makedirs)
    monkeypatch.setattr(os, "open", open_)
    outputs = Counter(f"{fresh}/{record.output_path}" for record in report.records)
    assert outputs.total() == len(outputs) == 34
    argv = [
        "generate",
        "--manifest",
        str(data_path("manifest_34.json")),
        "--strategy",
        "example-based",
        "--fixture",
        str(data_path("fixtures", "replay_example_based_run1.json")),
        "--out",
        str(fresh),
    ]
    for rerun in (False, True):
        made.clear()
        opened.clear()
        assert main(argv) == 0
        capsys.readouterr()
        assert sorted(made) == ([] if rerun else sorted(f"{fresh}/{c}" for c in categories))
        assert Counter(path for path in opened if path in outputs) == outputs


_GENERATE = ["generate", "--manifest", "m.json", "--strategy", "user-guided", "--out", "o"]
# the command shapes the benchmark runs
_PLAIN_SHAPES = [
    ["validate", "g.foon", "--as-task-tree", "--goal", "g"],
    ["convert", "a.json", "b.foon", "--to", "foon"],
    ["convert", "a.foon", "b.json", "--to", "json", "--goal", "g"],
    ["retrieve", "--graph", "g.foon", "--goal", "g", "--available", "a,b"],
    ["evaluate", "--compare", "a.json", "b.json"],
    [*_GENERATE, "--fixture", "f.json", "--instructions", "use the oven"],
]


def test_only_help_and_errors_build_an_argument_parser(monkeypatch, capsys):
    built: list = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert main(["validate", str(data_path("macaroni.foon"))]) == 0
    assert capsys.readouterr().out == "valid\n"
    handled = []
    for name, command in cli._COMMANDS.items():
        monkeypatch.setitem(
            cli._COMMANDS, name, command._replace(handler=lambda args: handled.append(args) or 0)
        )
    assert [main(argv) for argv in _PLAIN_SHAPES] == [0] * len(_PLAIN_SHAPES)
    assert ([args.command for args in handled], built) == ([a[0] for a in _PLAIN_SHAPES], [])
    assert handled[-1].instructions == "use the oven" and not handled[-1].live

    assert main(["validate", "g.foon", "-h"]) == 0
    assert capsys.readouterr().out.startswith("usage: foonforge validate [-h]")
    assert main(["convert", "a.json", "b.xml", "--to", "xml"]) == 1
    assert "invalid choice: 'xml'" in capsys.readouterr().err
    assert len(handled) == len(_PLAIN_SHAPES)
    # each time the full parser: the top level and one per command
    assert len(built) == 2 * (1 + len(cli._COMMANDS))
