from __future__ import annotations

import json
import random

import pytest

from foonforge.cli import main
from foonforge.client import API_KEY_ENV, API_URL_ENV
from foonforge.foon.tree_json import parse_task_tree_json, serialize_task_tree_json
from foonforge.pipeline import (
    REPORT_FILENAME,
    FallbackReason,
    Outcome,
    OutputRecord,
    RunReport,
    read_manifest,
    report_to_json,
)
from foonforge.prompts import DishSpec, Strategy, load_examples, render_for_dish
from foonforge.resources import data_path

from .graphgen import random_task_tree


@pytest.fixture()
def sample_fixture_path(tmp_path, sample_manifest_path):
    """A replay fixture answering the sample manifest, example-based."""
    manifest = read_manifest(sample_manifest_path)
    examples = load_examples(data_path("examples"))
    rng = random.Random(42)
    fixture = {}
    for dish in manifest.dishes():
        bundle = render_for_dish(Strategy.EXAMPLE_BASED, dish, examples=examples)
        tree = random_task_tree(rng)
        fixture[bundle.context_hash] = {
            "text": serialize_task_tree_json(tree),
            "finish_reason": "complete",
        }
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps(fixture), encoding="utf-8")
    return path


def test_generate_sample_run(tmp_path, capsys, sample_manifest_path, sample_fixture_path):
    code = main(
        [
            "generate",
            "--manifest",
            str(sample_manifest_path),
            "--strategy",
            "example-based",
            "--fixture",
            str(sample_fixture_path),
            "--out",
            str(tmp_path / "out"),
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "total=3 json_ok=3 text_fallback=0" in captured.out
    assert (tmp_path / "out" / "run_report.json").is_file()
    assert captured.err == ""


def test_generate_missing_manifest_is_io_error(tmp_path, capsys):
    code = main(
        [
            "generate",
            "--manifest",
            str(tmp_path / "nope.json"),
            "--strategy",
            "contextual",
            "--fixture",
            str(tmp_path / "also-nope.json"),
            "--out",
            str(tmp_path / "out"),
        ]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err
    assert "error" in captured.err


def test_generate_live_without_key_fails_fast(tmp_path, monkeypatch, capsys, sample_manifest_path):
    monkeypatch.delenv(API_KEY_ENV, raising=False)
    monkeypatch.setenv(API_URL_ENV, "https://example.invalid")
    code = main(
        [
            "generate",
            "--manifest",
            str(sample_manifest_path),
            "--strategy",
            "contextual",
            "--live",
            "--out",
            str(tmp_path / "out"),
        ]
    )
    assert code == 1
    assert "API key" in capsys.readouterr().err


def test_generate_fixture_and_live_conflict(tmp_path, capsys, sample_manifest_path):
    code = main(
        [
            "generate",
            "--manifest",
            str(sample_manifest_path),
            "--strategy",
            "contextual",
            "--live",
            "--fixture",
            "f.json",
            "--out",
            str(tmp_path / "out"),
        ]
    )
    assert code == 1
    assert capsys.readouterr().err


def test_generate_user_guided_requires_instructions(tmp_path, capsys, sample_manifest_path, sample_fixture_path):
    code = main(
        [
            "generate",
            "--manifest",
            str(sample_manifest_path),
            "--strategy",
            "user-guided",
            "--fixture",
            str(sample_fixture_path),
            "--out",
            str(tmp_path / "out"),
        ]
    )
    assert code == 1
    assert "instructions" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_generate_strict_replay_miss_exits_3(tmp_path, capsys, sample_manifest_path):
    empty = tmp_path / "empty.json"
    empty.write_text("{}", encoding="utf-8")
    code = main(
        [
            "generate",
            "--manifest",
            str(sample_manifest_path),
            "--strategy",
            "contextual",
            "--fixture",
            str(empty),
            "--out",
            str(tmp_path / "out"),
            "--strict-replay",
        ]
    )
    assert code == 3
    assert "fixture miss" in capsys.readouterr().err


def test_validate_sample_graph(capsys):
    code = main(["validate", str(data_path("macaroni.foon"))])
    assert code == 0
    assert capsys.readouterr().out.strip() == "valid"


def test_validate_as_task_tree_with_goal(capsys):
    code = main(
        [
            "validate",
            str(data_path("macaroni.foon")),
            "--as-task-tree",
            "--goal",
            "mac and cheese",
        ]
    )
    assert code == 0
    assert "valid" in capsys.readouterr().out


def test_validate_reports_violations_without_failing(tmp_path, capsys):
    payload = {
        "goal": {"name": "phantom"},
        "functional_units": [
            {"inputs": [{"name": "a"}], "motion": "mix", "outputs": [{"name": "b"}]}
        ],
    }
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    code = main(["validate", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "invalid" in out
    assert "goal" in out


def test_convert_round_trip(tmp_path, capsys):
    tree_path = tmp_path / "tree.json"
    code = main(
        [
            "convert",
            str(data_path("macaroni.foon")),
            str(tree_path),
            "--to",
            "json",
            "--goal",
            "mac and cheese",
        ]
    )
    assert code == 0
    tree = parse_task_tree_json(tree_path.read_text(encoding="utf-8"))
    assert tree.goal.name == "mac and cheese"

    back_path = tmp_path / "back.foon"
    assert main(["convert", str(tree_path), str(back_path), "--to", "foon"]) == 0
    assert back_path.read_text(encoding="utf-8") == data_path("macaroni.foon").read_text(
        encoding="utf-8"
    )


def test_convert_to_json_requires_goal(tmp_path, capsys):
    code = main(
        ["convert", str(data_path("macaroni.foon")), str(tmp_path / "t.json"), "--to", "json"]
    )
    assert code == 1
    assert "--goal" in capsys.readouterr().err


def test_retrieve_outputs_tree_json(capsys):
    code = main(
        [
            "retrieve",
            "--graph",
            str(data_path("macaroni.foon")),
            "--goal",
            "mac and cheese",
            "--available",
            "water,macaroni,cheese",
        ]
    )
    assert code == 0
    tree = parse_task_tree_json(capsys.readouterr().out)
    assert len(tree.units) == 3


def test_retrieve_reports_failure_as_data(capsys):
    code = main(
        [
            "retrieve",
            "--graph",
            str(data_path("macaroni.foon")),
            "--goal",
            "mac and cheese",
            "--available",
            "water",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert "failure" in payload


def test_evaluate_summary_and_csv(tmp_path, capsys, sample_manifest_path, sample_fixture_path):
    out = tmp_path / "out"
    assert (
        main(
            [
                "generate",
                "--manifest",
                str(sample_manifest_path),
                "--strategy",
                "example-based",
                "--fixture",
                str(sample_fixture_path),
                "--out",
                str(out),
            ]
        )
        == 0
    )
    capsys.readouterr()
    csv_path = tmp_path / "table.csv"
    code = main(["evaluate", str(out / "run_report.json"), "--csv", str(csv_path)])
    assert code == 0
    assert "Total recipes generated" in capsys.readouterr().out
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "metric,value,notes"


@pytest.mark.parametrize(
    "content",
    [b'{"records": [', b"{}", b'\xff\xfe{"records": []}'],
    ids=["truncated", "empty", "not-utf8"],
)
def test_evaluate_malformed_report_exits_2(tmp_path, capsys, content):
    path = tmp_path / "run_report.json"
    path.write_bytes(content)
    assert main(["evaluate", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_no_lenient_json_turns_fenced_output_into_fallback(
    tmp_path, capsys, sample_manifest_path
):
    manifest = read_manifest(sample_manifest_path)
    examples = load_examples(data_path("examples"))
    rng = random.Random(5)
    fixture = {}
    for dish in manifest.dishes():
        bundle = render_for_dish(Strategy.EXAMPLE_BASED, dish, examples=examples)
        fenced = f"```json\n{serialize_task_tree_json(random_task_tree(rng))}\n```"
        fixture[bundle.context_hash] = {"text": fenced, "finish_reason": "complete"}
    path = tmp_path / "fenced.json"
    path.write_text(json.dumps(fixture), encoding="utf-8")

    args = [
        "generate",
        "--manifest",
        str(sample_manifest_path),
        "--strategy",
        "example-based",
        "--fixture",
        str(path),
    ]
    assert main([*args, "--out", str(tmp_path / "lenient")]) == 0
    assert "json_ok=3" in capsys.readouterr().out
    assert main([*args, "--out", str(tmp_path / "strict"), "--no-lenient-json"]) == 0
    assert "text_fallback=3" in capsys.readouterr().out


def test_unknown_subcommand_exits_1(capsys):
    assert main(["frobnicate"]) == 1
    assert capsys.readouterr().err


_MALFORMED_JSON = [b"[" * 100_000, b'{"a": [', b"\xff\xfe{}"]
_MALFORMED_IDS = ["nested", "truncated", "not-utf8"]


@pytest.mark.parametrize("content", _MALFORMED_JSON, ids=_MALFORMED_IDS)
def test_generate_malformed_manifest_exits_2(tmp_path, capsys, content, sample_fixture_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_bytes(content)
    code = main(
        [
            "generate",
            "--manifest",
            str(manifest),
            "--strategy",
            "example-based",
            "--fixture",
            str(sample_fixture_path),
            "--out",
            str(tmp_path / "out"),
        ]
    )
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "content, expected",
    [
        *[(content, 1) for content in _MALFORMED_JSON],
        (json.dumps({"abc": {"text": "oops \ud800"}}).encode(), 1),
        (json.dumps({"abc": {"text": "x", "finish_reason": "odd"}}).encode(), 1),
        (None, 2),
    ],
    ids=[*_MALFORMED_IDS, "lone-surrogate", "unknown-finish-reason", "missing"],
)
def test_generate_bad_fixture_exits_before_any_dish(
    tmp_path, capsys, sample_manifest_path, content, expected
):
    fixture = tmp_path / "fixture.json"
    if content is not None:
        fixture.write_bytes(content)
    code = main(
        [
            "generate",
            "--manifest",
            str(sample_manifest_path),
            "--strategy",
            "contextual",
            "--fixture",
            str(fixture),
            "--out",
            str(tmp_path / "out"),
        ]
    )
    assert code == expected
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["validate", "convert", "retrieve", "template"])
def test_non_utf8_input_file_exits_2(tmp_path, capsys, command, sample_manifest_path):
    bad = tmp_path / "bad.foon"
    bad.write_bytes(b"O\t\xff\xfe pan\n")
    argv = {
        "validate": ["validate", str(bad)],
        "convert": ["convert", str(bad), str(tmp_path / "t.json"), "--to", "json", "--goal", "x"],
        "retrieve": ["retrieve", "--graph", str(bad), "--goal", "x"],
        "template": [
            "generate",
            "--manifest",
            str(sample_manifest_path),
            "--strategy",
            "contextual",
            "--fixture",
            str(data_path("fixtures", "replay_contextual_run1.json")),
            "--template",
            str(bad),
            "--out",
            str(tmp_path / "out"),
        ],
    }[command]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("where", ["parent", "absolute"])
def test_evaluate_rejects_output_paths_outside_the_report_directory(tmp_path, capsys, where):
    outside = tmp_path / "outside.json"
    tree = random_task_tree(random.Random(4))
    outside.write_text(serialize_task_tree_json(tree), encoding="utf-8")
    dish = DishSpec("pasta", "mac and cheese", ("macaroni",))
    rel = "../outside.json" if where == "parent" else str(outside)
    record = OutputRecord(dish, Strategy.CONTEXTUAL, Outcome.JSON_OK, "", rel, tree=tree)
    report = tmp_path / "run" / REPORT_FILENAME
    report.parent.mkdir()
    report.write_text(
        report_to_json(RunReport(Strategy.CONTEXTUAL, (record,), "", "")), encoding="utf-8"
    )
    assert main(["evaluate", str(report)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: /records/0/output_path: ")
    assert "leaves the report directory" in err


@pytest.mark.parametrize("link", ["file", "category"])
def test_evaluate_refuses_symlinks_out_of_the_report_directory(tmp_path, capsys, link):
    outside = tmp_path / "outside" / "pasta"
    outside.mkdir(parents=True)
    tree = random_task_tree(random.Random(4))
    (outside / "outside.json").write_text(serialize_task_tree_json(tree), encoding="utf-8")
    run = tmp_path / "run"
    if link == "file":
        (run / "pasta").mkdir(parents=True)
        (run / "pasta" / "mac_and_cheese.json").symlink_to(outside / "outside.json")
        rel = "pasta/mac_and_cheese.json"
    else:
        run.mkdir()
        (run / "pasta").symlink_to(outside, target_is_directory=True)
        rel = "pasta/outside.json"
    dish = DishSpec("pasta", "mac and cheese", ("macaroni",))
    good = OutputRecord(dish, Strategy.CONTEXTUAL, Outcome.TEXT_FALLBACK, "x", "pasta/x.txt",
                        fallback_reason=FallbackReason.SCHEMA)
    linked = OutputRecord(dish, Strategy.CONTEXTUAL, Outcome.JSON_OK, "", rel, tree=tree)
    report = run / REPORT_FILENAME
    report.write_text(
        report_to_json(RunReport(Strategy.CONTEXTUAL, (good, linked), "", "")), encoding="utf-8"
    )
    assert main(["evaluate", str(report)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: /records/1/output_path: ")
    assert "through a symbolic link" in err


def test_evaluate_reads_a_report_reached_through_a_symlink(tmp_path, capsys):
    out = tmp_path / "out"
    tree = random_task_tree(random.Random(4))
    (out / "pasta").mkdir(parents=True)
    (out / "pasta" / "dish.json").write_text(serialize_task_tree_json(tree), encoding="utf-8")
    dish = DishSpec("pasta", "dish", ("macaroni",))
    record = OutputRecord(dish, Strategy.CONTEXTUAL, Outcome.JSON_OK, "", "pasta/dish.json",
                          tree=tree)
    (out / REPORT_FILENAME).write_text(
        report_to_json(RunReport(Strategy.CONTEXTUAL, (record,), "", "")), encoding="utf-8"
    )
    (tmp_path / "alias").symlink_to(out, target_is_directory=True)
    assert main(["evaluate", str(out / REPORT_FILENAME)]) == 0
    direct = capsys.readouterr().out
    assert main(["evaluate", str(tmp_path / "alias" / REPORT_FILENAME)]) == 0
    assert capsys.readouterr().out == direct


@pytest.mark.parametrize("output_path", ["", ".", "./"])
def test_evaluate_rejects_an_output_path_naming_no_file(tmp_path, capsys, output_path):
    tree = random_task_tree(random.Random(4))
    dish = DishSpec("pasta", "dish", ("macaroni",))
    record = OutputRecord(dish, Strategy.CONTEXTUAL, Outcome.JSON_OK, "", output_path, tree=tree)
    report = tmp_path / REPORT_FILENAME
    report.write_text(
        report_to_json(RunReport(Strategy.CONTEXTUAL, (record,), "", "")), encoding="utf-8"
    )
    assert main(["evaluate", str(report)]) == 2
    assert capsys.readouterr().err.startswith("error: /records/0/output_path: ")


def test_evaluate_names_a_missing_output_file_by_its_path(tmp_path, capsys):
    tree = random_task_tree(random.Random(4))
    dish = DishSpec("pasta", "dish", ("macaroni",))
    record = OutputRecord(dish, Strategy.CONTEXTUAL, Outcome.JSON_OK, "", "pasta/gone.json",
                          tree=tree)
    report = tmp_path / REPORT_FILENAME
    report.write_text(
        report_to_json(RunReport(Strategy.CONTEXTUAL, (record,), "", "")), encoding="utf-8"
    )
    assert main(["evaluate", str(report)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(tmp_path / "pasta" / "gone.json") in err


def _generate(tmp_path, manifest, strategy, *extra):
    return main(
        [
            "generate",
            "--manifest",
            str(manifest),
            "--strategy",
            strategy,
            "--fixture",
            str(data_path("fixtures", "replay_contextual_run1.json")),
            "--out",
            str(tmp_path / "out"),
            *extra,
        ]
    )


@pytest.mark.parametrize("field", ["name", "ingredients", "tools"])
def test_generate_lone_surrogate_in_manifest_exits_2(tmp_path, capsys, field):
    dish = {"name": "soup", "ingredients": ["water"], "tools": ["pot"]}
    dish[field] = "soup \ud800" if field == "name" else ["water", "salt \udfff"]
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"categories": [{"name": "s", "dishes": [dish]}]}))
    assert _generate(tmp_path, manifest, "contextual") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: /categories/0/dishes/0: ")
    assert "valid Unicode" in err
    assert not (tmp_path / "out").exists()


def test_generate_lone_surrogate_in_instructions_exits_1(tmp_path, capsys, sample_manifest_path):
    # a non-UTF-8 argv byte reaches Python as a lone surrogate: b"\xff" -> "\udcff"
    code = _generate(
        tmp_path, sample_manifest_path, "user-guided", "--instructions", "stir \udcff well"
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: instructions must be valid Unicode text")
    assert not (tmp_path / "out").exists()
