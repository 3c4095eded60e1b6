from __future__ import annotations

import functools
import gc
import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foonforge import cli
from foonforge.cli import _print_report, main
from foonforge.client import API_KEY_ENV, API_URL_ENV, FinishReason, LiveClient, ModelResponse
from foonforge.foon.tree_json import parse_task_tree_json, serialize_task_tree_json
from foonforge.foon.validation import validate_graph
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

from .graphgen import MUTATORS, random_task_tree


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
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize(
    "path, extra, fragment",
    [
        ("macaroni.foon", [], "--goal needs --as-task-tree"),
        ("examples/mac_and_cheese.json", [], "--goal applies to foon input only"),
        ("examples/mac_and_cheese.json", ["--as-task-tree"], "--goal applies to foon input only"),
        ("macaroni.foon", ["--format", "json"], "--goal applies to foon input only"),
    ],
    ids=["foon-without-as-task-tree", "json", "json-as-task-tree", "format-json"],
)
def test_validate_rejects_a_goal_it_would_ignore(capsys, path, extra, fragment):
    code = main(["validate", str(data_path(*path.split("/"))), "--goal", "nonexistent", *extra])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {fragment}")


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--goal", "pizza"], "goal 'pizza' names no object in the graph"),
        (
            ["--goal", "macaroni"],
            "goal 'macaroni' is ambiguous, variants: macaroni (raw); macaroni (cooked)",
        ),
        ([], "--as-task-tree on a foon file requires --goal"),
    ],
    ids=["unknown-goal", "ambiguous-goal", "no-goal"],
)
def test_validate_as_task_tree_refuses_a_goal_it_cannot_resolve(capsys, extra, message):
    code = main(["validate", str(data_path("macaroni.foon")), "--as-task-tree", *extra])
    assert code == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


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


@pytest.mark.parametrize(
    "mutate", [None, *MUTATORS], ids=lambda m: m.__name__ if m else "unmutated"
)
def test_validate_prints_a_json_tree_report_byte_for_byte(tmp_path, capsys, mutate):
    for seed in range(6):
        tree = random_task_tree(random.Random(seed))
        if mutate is not None:
            tree, _ = mutate(tree)
        path = tmp_path / f"{seed}.json"
        path.write_text(serialize_task_tree_json(tree), encoding="utf-8")
        code = main(["validate", str(path)])
        out = capsys.readouterr().out
        if any(not unit.inputs or not unit.outputs for unit in tree.units):
            # task-tree JSON has no empty units: the schema stops the parse first
            assert (code, out) == (2, "")
            continue
        _print_report(validate_graph(tree.graph, tree.goal))
        assert (code, out) == (0, capsys.readouterr().out)


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


def test_convert_to_foon_refuses_a_goal_it_would_ignore(tmp_path, capsys):
    source = tmp_path / "tree.json"
    assert main(["convert", str(data_path("macaroni.foon")), str(source), "--to", "json",
                 "--goal", "mac and cheese"]) == 0
    capsys.readouterr()
    dest = tmp_path / "back.foon"
    code = main(["convert", str(source), str(dest), "--to", "foon", "--goal", "mac and cheese"])
    assert code == 1
    assert capsys.readouterr() == (
        "", "error: --goal applies to --to json only; a JSON tree names its goal\n"
    )
    assert not dest.exists()


def test_convert_prints_the_violations_validate_prints(tmp_path, capsys):
    graph = str(data_path("macaroni.foon"))
    dest = tmp_path / "out.json"
    assert main(["convert", graph, str(dest), "--to", "json", "--goal", "cheese"]) == 2
    converted = capsys.readouterr()
    assert main(["validate", graph, "--as-task-tree", "--goal", "cheese"]) == 0
    head, *violations = capsys.readouterr().out.splitlines()
    assert head == f"invalid ({len(violations)} violation(s))"
    assert "  goal: goal 'cheese' is consumed by unit 1 [unit 1]" in violations
    assert converted.out == ""
    assert converted.err.splitlines() == [
        "cannot convert: graph is not a valid task tree",
        *violations,
    ]
    assert not dest.exists()


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


def test_retrieve_out_writes_what_stdout_would_print(tmp_path, capsys):
    argv = [
        "retrieve",
        "--graph",
        str(data_path("macaroni.foon")),
        "--goal",
        "mac and cheese",
        "--available",
        "water,macaroni,cheese",
    ]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    dest = tmp_path / "tree.json"
    assert main([*argv, "--out", str(dest)]) == 0
    assert capsys.readouterr() == (f"wrote {dest}\n", "")
    assert dest.read_bytes() == printed.encode("utf-8")


def test_the_goal_is_the_node_first_mentioned(tmp_path, capsys):
    # the bowl is first mentioned holding salt, as an input of a unit that
    # consumes it and so lies outside its backward cone
    graph = tmp_path / "graph.foon"
    graph.write_text(
        "O\tbowl\nI\tsalt\nO\twater\nM\trinse\nO\tslop\n//\n"
        "O\tflour\nM\tmix\nO\tbowl\nI\tflour\n",
        encoding="utf-8",
    )
    assert main(["retrieve", "--graph", str(graph), "--goal", "Bowl", "--available", "flour"]) == 0
    tree = json.loads(capsys.readouterr().out)
    assert tree["goal"] == {"name": "bowl", "states": [], "ingredients": ["salt"]}
    assert [unit["motion"] for unit in tree["functional_units"]] == ["mix"]

    # a valid tree whose two units both make the bowl, the first with salt
    graph.write_text(
        "O\tsalt\nM\tpour\nO\tbowl\nI\tsalt\n//\nO\tflour\nM\tmix\nO\tbowl\nI\tflour\n",
        encoding="utf-8",
    )
    dest = tmp_path / "tree.json"
    assert main(["convert", str(graph), str(dest), "--to", "json", "--goal", "bowl"]) == 0
    tree = json.loads(dest.read_text(encoding="utf-8"))
    assert tree["goal"] == {"name": "bowl", "states": [], "ingredients": ["salt"]}


@pytest.mark.parametrize("command", ["retrieve", "convert", "validate"])
def test_an_ambiguous_goal_lists_its_variants_in_first_mention_order(tmp_path, capsys, command):
    graph = tmp_path / "graph.foon"
    graph.write_text(
        "O\tsoup\nS\thot\nO\tbowl\nM\tserve\nO\tmeal\n//\n"
        "O\tsoup\nS\tcold\nM\theat\nO\tsoup\nS\thot\n//\n"
        "O\tsoup\nS\tcold\nS\tthick\nM\tstir\nO\tsoup\nS\tbland\n",
        encoding="utf-8",
    )
    argv = {
        "retrieve": ["retrieve", "--graph", str(graph), "--goal", "soup"],
        "convert": ["convert", str(graph), str(tmp_path / "t.json"), "--to", "json",
                    "--goal", "soup"],
        "validate": ["validate", str(graph), "--as-task-tree", "--goal", "soup"],
    }[command]
    assert main(argv) == 1
    assert capsys.readouterr() == (
        "",
        "error: goal 'soup' is ambiguous, variants: soup (hot); soup (cold); "
        "soup (cold, thick); soup (bland)\n",
    )


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


def test_generate_always_strips_one_code_fence(tmp_path, capsys, sample_manifest_path):
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
    assert main([*args, "--out", str(tmp_path / "out")]) == 0
    assert "json_ok=3" in capsys.readouterr().out
    for flag in ("--lenient-json", "--no-lenient-json"):
        assert main([*args, "--out", str(tmp_path / "flag"), flag]) == 1
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not (tmp_path / "flag").exists()


def test_unknown_subcommand_exits_1(capsys):
    assert main(["frobnicate"]) == 1
    assert capsys.readouterr().err


_GENERATE = ["generate", "--manifest", "m.json", "--strategy", "contextual", "--out", "o"]
_ARGV_CORPUS = [
    [],
    ["-h"],
    ["--help"],
    ["frobnicate"],
    ["--", "validate", "x"],
    *([name, "--help"] for name in cli._COMMANDS),
    _GENERATE[:3],
    ["validate"],
    ["evaluate"],
    ["convert", "a", "b"],
    ["retrieve", "--goal", "g"],
    ["validate", "x", "--bogus"],
    ["validate", "--", "x"],
    ["validate", "x", "--form", "json"],
    ["validate", "x", "--format", "foon", "--as-task-tree", "--goal", "g"],
    [*_GENERATE, "--fixture", "f.json", "--live"],
    [*_GENERATE, "--live", "--max-in-flight", "0"],
    [*_GENERATE[:4], "nope", *_GENERATE[5:], "--fixture", "f.json"],
    [*_GENERATE, "--fixture", "f.json", "--strict-replay", "--instructions", "-x"],
    [*_GENERATE, "--live", "--max-in-flight", "3", "--template", "t.txt"],
    ["evaluate", "a", "b", "--compare", "--zzz"],
    ["evaluate", "a", "b", "--compare", "--csv", "t.csv"],
    ["convert", "a", "b", "--to", "json", "--goal", "g"],
    ["retrieve", "--graph", "g.foon", "--goal", "g", "--available", "a,b", "--out", "t"],
    # what the plain reader leaves to the full parser, and what it reads itself
    ["validate", "x", "-h"],
    ["validate", "x", "--goal=g", "--as-task-tree"],
    ["validate", "x", "--go", "g", "--as-task-tree"],
    ["validate", "x", "--format", "json", "--format", "foon"],
    ["validate", "x", "--as-task-tree", "--as-task-tree"],
    ["validate", "x", "--format", "JSON"],
    ["validate", "x", "--as-task-tree", "--goal"],
    ["validate", "x", "--as-task-tree", "--goal", "-1"],
    ["validate", "x", "--as-task-tree", "--goal", "-x y"],
    ["validate", "-1"],
    ["validate", ""],
    ["validate", "a b", "--as-task-tree", "--goal", ""],
    ["validate", "x", "y"],
    ["evaluate", "a", "--compare", "b"],
    ["evaluate", "--compare", "a", "b", "--csv", "t.csv"],
    ["convert", "a", "--to", "foon", "b"],
    ["convert", "--to", "foon", "a", "b"],
    ["convert", "a", "b", "c", "--to", "foon"],
    ["retrieve", "--graph", "g", "--goal", "g", "--available", ""],
    ["retrieve", "--graph", "g", "--goal", "g", "--available", "a", "--available", "b"],
    [*_GENERATE, "--fixture", "f.json", "--fixture", "g.json"],
    [*_GENERATE, "--live", "--live"],
    [*_GENERATE, "--fixture", ""],
    [*_GENERATE[:-1], "--fixture", "f.json"],
    [*_GENERATE, "--live", "--max-in-flight", "\u0663"],
    [*_GENERATE, "--live", "--max-in-flight", "-1"],
    [*_GENERATE, "--live", "--max-in-flight", "x"],
]


def _dispatch(argv) -> tuple[int, str, str, list[dict]]:
    """``main``'s exit code, stdout and stderr, and each namespace a handler got."""
    parsed = []

    def capture(args):
        parsed.append(vars(args))
        return 0

    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as patch, redirect_stdout(out), redirect_stderr(err):
        for name, command in cli._COMMANDS.items():
            patch.setitem(cli._COMMANDS, name, command._replace(handler=capture))
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue(), parsed


def _full_parse(argv) -> tuple[int, str, str, list[dict]]:
    """The same, from the full parser alone."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code, parsed = 0, [vars(cli._build_parser().parse_args(list(argv)))]
        except SystemExit as exc:
            code, parsed = int(exc.code or 0), []
    return code, out.getvalue(), err.getvalue(), parsed


@pytest.mark.parametrize("argv", _ARGV_CORPUS, ids=lambda argv: " ".join(argv) or "nothing")
def test_dispatch_parses_as_the_full_parser_does(argv):
    assert _dispatch(argv) == _full_parse(argv)


_NEAR_MISSES = ["--go", "--goal=x", "--", "-h", "--help", "--bogus", "-x", "-1", "a"]


@st.composite
def _command_lines(draw, name: str) -> list[str]:
    """An argv for ``name``, drawn from its own options, choices and
    positionals: a plain one, or one with a single near miss: a stray
    token or flag, a value that starts with ``-``, a repeated option, or
    positionals split around the options."""
    arguments = cli._COMMANDS[name].arguments
    group = [arg for arg in arguments if arg.one_of]
    chosen = draw(st.sampled_from(group)) if group else None
    pieces, words = [], []
    for arg in arguments:
        if not arg.flag.startswith("-"):
            taken = draw(st.sampled_from([["a"], ["a b"], [""], ["a", "b.json"]]))
            words += taken if arg.nargs == "+" else taken[:1]
        elif arg.required or arg is chosen or (not arg.one_of and draw(st.booleans())):
            values = arg.choices or (("1", "3") if arg.type else ("x", "a b", ""))
            pieces.append([arg.flag] if arg.switch else [arg.flag, draw(st.sampled_from(values))])
    pieces = list(draw(st.permutations(pieces)))
    flags = [arg.flag for arg in arguments if arg.flag.startswith("-")]
    miss = draw(st.sampled_from(["none", "token", "value", "repeat", "split"]))
    if miss == "token":
        token = draw(st.sampled_from(_NEAR_MISSES + flags))
        pieces.insert(draw(st.integers(0, len(pieces))), [token])
    elif miss in ("value", "repeat") and pieces:
        piece = draw(st.sampled_from(pieces))
        if miss == "repeat":
            pieces.insert(draw(st.integers(0, len(pieces))), piece)
        elif len(piece) == 2:
            piece[1] = draw(st.sampled_from(["-x", "-1", "-", "--", "-h"]))
    for run in [[word] for word in words] if miss == "split" else [words]:
        pieces.insert(draw(st.integers(0, len(pieces))), run)
    return [name, *(token for piece in pieces for token in piece)]


@pytest.mark.parametrize("name", cli._COMMANDS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_drawn_command_lines_parse_as_the_full_parser_does(name, data):
    argv = data.draw(_command_lines(name))
    assert _dispatch(argv) == _full_parse(argv)


_HELP = Path(__file__).parent / "help"


def test_the_module_entry_point_reads_its_own_argv(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1]), "COLUMNS": "80"}
    runs = [
        (module, argv)
        for module in ("foonforge", "foonforge.cli")
        for argv in (["validate", str(data_path("macaroni.foon"))], ["--help"])
    ]
    done = [
        subprocess.run(
            [sys.executable, "-m", module, *argv],
            env=env,
            cwd=tmp_path,
            capture_output=True,
            timeout=60,
        )
        for module, argv in runs
    ]
    # the pinned help holds none of the docstring's "Cost:" notes
    help_text = (_HELP / "foonforge.txt").read_bytes()
    assert [(run.returncode, run.stdout, run.stderr) for run in done] == [
        (0, b"valid\n", b""),
        (0, help_text, b""),
    ] * 2


@pytest.mark.parametrize("command", [None, *cli._COMMANDS])
def test_help_prints_the_pinned_text(monkeypatch, capsysbinary, command):
    """``--help`` prints, at 80 columns, the bytes in ``tests/help/``."""
    monkeypatch.setenv("COLUMNS", "80")
    assert main([command, "--help"] if command else ["--help"]) == 0
    pinned = _HELP / ("foonforge-" + command if command else "foonforge")
    out, err = capsysbinary.readouterr()
    assert (out, err) == (pinned.with_suffix(".txt").read_bytes(), b"")


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
    words = "is not UTF-8 text" if content.startswith(b"\xff") else "is not valid JSON"
    assert capsys.readouterr().err.startswith(f"error: /: {manifest} {words}: ")
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


@pytest.mark.parametrize(
    "command",
    ["validate", "validate-json", "convert", "convert-to-foon", "retrieve", "template"],
)
def test_non_utf8_input_file_exits_2(tmp_path, capsys, command, sample_manifest_path):
    bad = tmp_path / "bad.foon"
    bad.write_bytes(b"O\t\xff\xfe pan\n")
    argv = {
        "validate": ["validate", str(bad)],
        "validate-json": ["validate", str(bad), "--format", "json"],
        "convert": ["convert", str(bad), str(tmp_path / "t.json"), "--to", "json", "--goal", "x"],
        "convert-to-foon": ["convert", str(bad), str(tmp_path / "t.foon"), "--to", "foon"],
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
    assert capsys.readouterr().err.startswith(f"error: {bad} is not UTF-8 text: ")


def _evaluate(capsys, *args) -> str:
    assert main(["evaluate", *map(str, args)]) == 0
    return capsys.readouterr().out


def _write_report(path, *records) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        "".join(report_to_json(RunReport(Strategy.CONTEXTUAL, records, "", ""))), encoding="utf-8"
    )


def _tree_record(dish, tree, raw_text: str, output_path: str) -> OutputRecord:
    return OutputRecord(dish, raw_text, output_path, tree=tree)


def test_evaluate_scores_shipped_runs_without_their_output_files(tmp_path, capsys, shipped_runs):
    moved = []
    for i, report in enumerate(shipped_runs):
        copy = tmp_path / str(i) / REPORT_FILENAME
        copy.parent.mkdir()
        copy.write_bytes(report.read_bytes())
        moved.append(copy)
    for report, copy in zip(shipped_runs, moved):
        assert _evaluate(capsys, copy) == _evaluate(capsys, report)
    assert _evaluate(capsys, "--compare", *moved) == _evaluate(capsys, "--compare", *shipped_runs)


@pytest.mark.parametrize("where", ["parent", "absolute", "symlink"])
def test_evaluate_scores_from_raw_text_wherever_output_path_points(
    tmp_path, capsys, monkeypatch, where
):
    tree = random_task_tree(random.Random(4))
    raw_text = serialize_task_tree_json(tree)
    dish = DishSpec("pasta", "dish", ("macaroni",))
    reference = tmp_path / "reference" / REPORT_FILENAME
    _write_report(reference, _tree_record(dish, tree, raw_text, "pasta/dish.json"))
    (reference.parent / "pasta").mkdir()
    (reference.parent / "pasta" / "dish.json").write_text(raw_text + "\n", encoding="utf-8")
    expected = _evaluate(capsys, reference)

    outside = tmp_path / "outside.json"
    outside.write_text("not a task tree", encoding="utf-8")
    report = tmp_path / "run" / REPORT_FILENAME
    rel = {"parent": "../outside.json", "absolute": str(outside), "symlink": "pasta/dish.json"}
    _write_report(report, _tree_record(dish, tree, raw_text, rel[where]))
    if where == "symlink":
        (report.parent / "pasta").mkdir()
        (report.parent / "pasta" / "dish.json").symlink_to(outside)

    opened = []
    real_open = io.open

    def spy(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(io, "open", spy)
    assert _evaluate(capsys, report) == expected
    assert opened == [str(report)]


def test_evaluate_reads_a_report_reached_through_a_symlink(tmp_path, capsys):
    out = tmp_path / "out"
    tree = random_task_tree(random.Random(4))
    raw_text = serialize_task_tree_json(tree)
    (out / "pasta").mkdir(parents=True)
    (out / "pasta" / "dish.json").write_text(raw_text + "\n", encoding="utf-8")
    dish = DishSpec("pasta", "dish", ("macaroni",))
    _write_report(out / REPORT_FILENAME, _tree_record(dish, tree, raw_text, "pasta/dish.json"))
    (tmp_path / "alias").symlink_to(out, target_is_directory=True)
    direct = _evaluate(capsys, out / REPORT_FILENAME)
    assert _evaluate(capsys, tmp_path / "alias" / REPORT_FILENAME) == direct


_NOT_A_TREE = {
    "syntax": "Sure! Here is your recipe: boil and enjoy.",
    "schema": '{"functional_units": []}',
    "structure": json.dumps(
        {
            "goal": {"name": "phantom"},
            "functional_units": [
                {"inputs": [{"name": "a"}], "motion": "mix", "outputs": [{"name": "b"}]}
            ],
        }
    ),
}


@pytest.mark.parametrize("error", list(_NOT_A_TREE))
def test_evaluate_rejects_a_json_ok_record_whose_raw_text_is_no_tree(tmp_path, capsys, error):
    tree = random_task_tree(random.Random(4))
    raw_text = serialize_task_tree_json(tree)
    dish = DishSpec("pasta", "dish", ("macaroni",))
    report = tmp_path / REPORT_FILENAME
    # a valid output file does not stand in for the record's own text
    (tmp_path / "b.json").write_text(raw_text + "\n", encoding="utf-8")
    # a repeat of the bad text is not reached: the first record that holds it is named
    _write_report(
        report,
        _tree_record(dish, tree, raw_text, "a.json"),
        _tree_record(dish, tree, _NOT_A_TREE[error], "b.json"),
        _tree_record(dish, tree, _NOT_A_TREE[error], "c.json"),
    )
    assert main(["evaluate", str(report)]) == 2
    assert capsys.readouterr().err.startswith("error: /records/1/raw_text: ")


def _edit_report(path, edit) -> None:
    payload = json.loads(path.read_text(encoding="utf-8"))
    edit(payload)
    path.write_text(json.dumps(payload), encoding="utf-8")


@pytest.mark.parametrize("outcome", list(Outcome))
def test_evaluate_requires_raw_text(tmp_path, capsys, outcome):
    tree = random_task_tree(random.Random(4))
    dish = DishSpec("pasta", "dish", ("macaroni",))
    if outcome is Outcome.JSON_OK:
        record = _tree_record(dish, tree, serialize_task_tree_json(tree), "a.json")
    else:
        record = OutputRecord(dish, "prose", "a.txt", fallback_reason=FallbackReason.JSON_SYNTAX)
    report = tmp_path / REPORT_FILENAME
    _write_report(report, record)
    _edit_report(report, lambda payload: payload["records"][0].pop("raw_text"))
    assert main(["evaluate", str(report)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: /records/0/raw_text: missing field 'raw_text'")


@pytest.mark.parametrize(
    "pointer",
    ["/records/0/dish", "/records/0/outcome", "/records/0/output_path",
     "/records/0/dish/category", "/strategy", "/total", "/json_ok", "/text_fallback"],
)
def test_evaluate_names_a_missing_field(tmp_path, capsys, pointer):
    tree = random_task_tree(random.Random(4))
    dish = DishSpec("pasta", "dish", ("macaroni",))
    report = tmp_path / REPORT_FILENAME
    _write_report(report, _tree_record(dish, tree, serialize_task_tree_json(tree), "a.json"))
    _evaluate(capsys, report)
    *parents, name = pointer.split("/")[1:]

    def edit(payload):
        for key in parents:
            payload = payload[int(key) if key.isdecimal() else key]
        del payload[name]

    _edit_report(report, edit)
    assert main(["evaluate", str(report)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {pointer}: missing field '{name}'")


@pytest.mark.parametrize(
    "field, value",
    [
        ("total", 1.0),
        ("total", True),
        ("json_ok", 1.0),
        ("json_ok", True),
        ("text_fallback", False),
        ("text_fallback", "0"),
        ("started", 5),
        ("finished", None),
        ("strategy", 5),
        ("strategy", "fusion"),
    ],
)
def test_evaluate_rejects_a_bad_top_level_field(tmp_path, capsys, field, value):
    tree = random_task_tree(random.Random(4))
    dish = DishSpec("pasta", "dish", ("macaroni",))
    report = tmp_path / REPORT_FILENAME
    # one JSON_OK record: its counts 1, 1 and 0 equal True, True and False
    _write_report(report, _tree_record(dish, tree, serialize_task_tree_json(tree), "a.json"))
    _evaluate(capsys, report)
    _edit_report(report, lambda payload: payload.update({field: value}))
    assert main(["evaluate", str(report)]) == 2
    assert capsys.readouterr().err.startswith(f"error: /{field}: ")


def test_evaluate_reads_a_report_without_timestamps(tmp_path, capsys, shipped_runs):
    copy = tmp_path / REPORT_FILENAME
    copy.write_bytes(shipped_runs[0].read_bytes())
    _edit_report(copy, lambda payload: [payload.pop("started"), payload.pop("finished")])
    assert _evaluate(capsys, copy) == _evaluate(capsys, shipped_runs[0])


@pytest.mark.parametrize(
    "index, changes, detail",
    [
        (1, {"dish": {"category": 5, "name": "dish", "ingredients": ["macaroni"]}},
         "/records/1/dish/category: "),
        (1, {"outcome": "MAYBE"}, "/records/1/outcome: "),
        (0, {"fallback_reason": "schema"},
         "error: /records/0/fallback_reason: outcome JSON_OK disagrees with "
         'fallback_reason "schema"'),
        (1, {"fallback_reason": None},
         "error: /records/1/fallback_reason: outcome TEXT_FALLBACK disagrees with "
         "fallback_reason null"),
        (0, {"outcome": "TEXT_FALLBACK"}, "error: /records/0/fallback_reason: "),
        (1, {"fallback_reason": None, "raw_text": "{}"}, "error: /records/1/fallback_reason: "),
        (0, {"output_path": 5}, "error: /records/0/output_path: "),
        (1, {"output_path": None}, "error: /records/1/output_path: "),
        (1, {"raw_text": [1, 2]}, "error: /records/1/raw_text: "),
        (0, {"raw_text": 5}, "error: /records/0/raw_text: "),
        (1, {"fallback_reason": "bogus"}, "error: /records/1/fallback_reason: "),
        (1, {"fallback_reason": 0}, "error: /records/1/fallback_reason: "),
        (0, {"fallback_reason": ""}, "error: /records/0/fallback_reason: "),
        (1, 5, "error: /records/1: "),
        (0, {"dish": []}, "error: /records/0/dish: "),
        (1, {"dish": 5}, "error: /records/1/dish: "),
    ],
    ids=["category-not-a-string", "unknown-outcome", "json-ok-with-reason",
         "fallback-without-reason", "tree-marked-fallback", "json-fallback-without-reason",
         "output-path-int", "output-path-null",
         "fallback-raw-text-list", "json-ok-raw-text-int", "unknown-reason", "reason-zero",
         "reason-empty", "record-not-an-object", "dish-a-list", "dish-an-int"],
)
def test_evaluate_rejects_a_bad_record_field(tmp_path, capsys, index, changes, detail):
    tree = random_task_tree(random.Random(4))
    dish = DishSpec("pasta", "dish", ("macaroni",))
    report = tmp_path / REPORT_FILENAME
    _write_report(
        report,
        _tree_record(dish, tree, serialize_task_tree_json(tree), "a.json"),
        OutputRecord(dish, "prose", "b.txt", fallback_reason=FallbackReason.JSON_SYNTAX),
    )
    _evaluate(capsys, report)

    def edit(payload):
        records = payload["records"]
        records[index] = {**records[index], **changes} if isinstance(changes, dict) else changes

    _edit_report(report, edit)
    assert main(["evaluate", str(report)]) == 2
    assert detail in capsys.readouterr().err


@pytest.mark.parametrize("field", ["ingredients", "tools"])
def test_evaluate_rejects_a_dish_list_given_as_a_string(tmp_path, capsys, field):
    tree = random_task_tree(random.Random(4))
    dish = DishSpec("pasta", "dish", ("macaroni",), ("pot",))
    report = tmp_path / REPORT_FILENAME
    _write_report(report, _tree_record(dish, tree, serialize_task_tree_json(tree), "a.json"))
    _evaluate(capsys, report)
    _edit_report(report, lambda payload: payload["records"][0]["dish"].update({field: "salt"}))
    assert main(["evaluate", str(report)]) == 2
    assert capsys.readouterr().err.startswith(f"error: /records/0/dish/{field}: ")


@pytest.mark.parametrize(
    "field, value, pointer",
    [
        ("name", "x\ud800", "name"),
        ("category", "x\ud800", "category"),
        ("ingredients", ["salt", "x\ud800"], "ingredients/1"),
        ("tools", ["x\udfff"], "tools/0"),
    ],
)
def test_evaluate_names_a_lone_surrogate_in_a_dish_at_its_field(
    tmp_path, capsys, field, value, pointer
):
    tree = random_task_tree(random.Random(4))
    dish = DishSpec("pasta", "dish", ("macaroni",), ("pot",))
    report = tmp_path / REPORT_FILENAME
    _write_report(report, _tree_record(dish, tree, serialize_task_tree_json(tree), "a.json"))
    _evaluate(capsys, report)
    _edit_report(report, lambda payload: payload["records"][0]["dish"].update({field: value}))
    assert main(["evaluate", str(report)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: /records/0/dish/{pointer}: ")
    assert "valid Unicode" in err


@pytest.mark.parametrize("field", ["total", "json_ok", "text_fallback"])
def test_evaluate_rejects_counts_that_disagree_with_the_records(tmp_path, capsys, field):
    tree = random_task_tree(random.Random(4))
    dish = DishSpec("pasta", "dish", ("macaroni",))
    report = tmp_path / REPORT_FILENAME
    _write_report(
        report,
        _tree_record(dish, tree, serialize_task_tree_json(tree), "a.json"),
        OutputRecord(dish, "prose", "b.txt", fallback_reason=FallbackReason.JSON_SYNTAX),
    )
    _evaluate(capsys, report)
    _edit_report(report, lambda payload: payload.update({field: payload[field] + 1}))
    assert main(["evaluate", str(report)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: /{field}: ") and "inconsistent with its records" in err


def test_evaluate_reads_reports_that_still_carry_a_strategy_per_record(
    tmp_path, capsys, shipped_runs
):
    older = []
    for i, path in enumerate(shipped_runs):
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert all("strategy" not in record for record in payload["records"])
        for record in payload["records"]:
            record["strategy"] = payload["strategy"]
        copy = tmp_path / str(i) / REPORT_FILENAME
        copy.parent.mkdir()
        copy.write_text(json.dumps(payload, indent=2, ensure_ascii=False), encoding="utf-8")
        older.append(copy)
        assert _evaluate(capsys, copy) == _evaluate(capsys, path)
    assert _evaluate(capsys, "--compare", *older) == _evaluate(capsys, "--compare", *shipped_runs)


def test_evaluate_csv_of_several_reports_needs_compare(tmp_path, capsys, shipped_runs):
    table = tmp_path / "table.csv"
    missing = tmp_path / "missing.json"  # the check comes before any report is read
    assert main(["evaluate", str(missing), str(missing), "--csv", str(table)]) == 1
    assert capsys.readouterr().err == "error: --csv with several reports needs --compare\n"
    assert not table.exists()
    two = [str(report) for report in shipped_runs[:2]]
    assert main(["evaluate", *two, "--compare", "--csv", str(table)]) == 0
    lines = table.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "metric,value,notes"
    assert [line.split(",")[0] for line in lines[1:]] == ["contextual"]


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


@pytest.mark.parametrize(
    "field, pointer",
    [
        ("name", "/categories/0/dishes/0/name"),
        ("ingredients", "/categories/0/dishes/0/ingredients/1"),
        ("tools", "/categories/0/dishes/0/tools/1"),
        ("category", "/categories/0/name"),
    ],
    ids=["name", "ingredients", "tools", "category"],
)
def test_generate_lone_surrogate_in_manifest_exits_2(tmp_path, capsys, field, pointer):
    dish = {"name": "soup", "ingredients": ["water"], "tools": ["pot"]}
    category = {"name": "s", "dishes": [dish]}
    if field == "category":
        category["name"] = "s \ud800"
    elif field == "name":
        dish["name"] = "soup \ud800"
    else:
        dish[field] = ["water", "salt \udfff"]
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"categories": [category]}))
    assert _generate(tmp_path, manifest, "contextual") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {pointer}: ")
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


@pytest.mark.parametrize("dishes", [0, 1], ids=["no-dishes", "one-dish"])
@pytest.mark.parametrize("case", ["template", "examples"])
def test_generate_checks_its_prompt_inputs_only_when_it_renders(tmp_path, capsys, case, dishes):
    manifest = tmp_path / "manifest.json"
    listed = [{"name": "toast", "ingredients": ["bread"]}][:dishes]
    manifest.write_text(json.dumps({"categories": [{"name": "c", "dishes": listed}]}))
    (tmp_path / "no_schema.txt").write_text("{{dish_name}}", encoding="utf-8")
    (tmp_path / "empty").mkdir()
    strategy, extra, message = {
        "template": (
            "contextual",
            ["--template", str(tmp_path / "no_schema.txt")],
            "error: template must contain {{schema}} exactly once\n",
        ),
        "examples": (
            "example-based",
            ["--examples", str(tmp_path / "empty")],
            "error: example-based prompts need at least one example tree\n",
        ),
    }[case]
    code = _generate(tmp_path, manifest, strategy, *extra)
    out, err = capsys.readouterr()
    if dishes:
        assert (code, out, err) == (1, "", message)
        assert not (tmp_path / "out").exists()
    else:
        # a manifest with no dishes renders no prompt, so nothing is refused
        assert (code, err) == (0, "")
        assert out.endswith("total=0 json_ok=0 text_fallback=0\n")
        assert json.loads((tmp_path / "out" / REPORT_FILENAME).read_text())["records"] == []


@pytest.mark.parametrize(
    "extra, fragment",
    [
        (["--max-in-flight", "0"], "at least 1, got '0'"),
        (["--max-in-flight", "-2"], "at least 1, got '-2'"),
        (["--max-in-flight", "two"], "at least 1, got 'two'"),
        (["--max-in-flight", "1"], "--live only"),
        (["--max-in-flight", "4"], "--live only"),
    ],
)
def test_generate_max_in_flight_checked(tmp_path, capsys, sample_manifest_path, extra, fragment):
    code = _generate(tmp_path, sample_manifest_path, "contextual", *extra)
    assert code == 1
    err = capsys.readouterr().err
    assert "error: " in err and fragment in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "flags",
    [["--live", "--strict-replay"], ["--strict-replay", "--live"]],
    ids=["live-first", "strict-first"],
)
def test_generate_strict_replay_applies_to_fixture_only(tmp_path, capsys, flags):
    missing = tmp_path / "missing.json"  # read, it would exit 2
    argv = ["generate", "--manifest", str(missing), "--strategy", "contextual",
            "--out", str(tmp_path / "out"), *flags]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", "error: --strict-replay applies to --fixture only\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("extra, want", [((), 4), (("--max-in-flight", "2"), 2)])
def test_generate_live_passes_max_in_flight_to_the_live_client(
    tmp_path, monkeypatch, sample_manifest_path, extra, want
):
    built = []

    class Recorder:
        def __init__(self, **kwargs):
            built.append(kwargs)

        def generate_all(self, prompts):
            return [ModelResponse("model error: offline", FinishReason.ERROR)] * len(prompts)

    monkeypatch.setattr("foonforge.cli.LiveClient", Recorder)
    argv = ["generate", "--manifest", str(sample_manifest_path), "--strategy", "contextual",
            "--live", "--out", str(tmp_path / "out"), *extra]
    assert main(argv) == 0
    assert built == [{"max_in_flight": want}]


# --- the collector pause ---------------------------------------------------


@pytest.fixture()
def collector_state():
    """Puts the cyclic collector back as the test found it."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


def _exit_cases(tmp_path, manifest) -> dict:
    empty = tmp_path / "empty.json"
    empty.write_text("{}", encoding="utf-8")
    graph = str(data_path("macaroni.foon"))
    return {
        "ok": (["validate", graph], 0),
        "config": (["validate", graph, "--goal", "x"], 1),
        "io": (["validate", str(tmp_path / "missing.foon")], 2),
        "fixture-miss": (["generate", "--manifest", str(manifest), "--strategy", "contextual",
                          "--out", str(tmp_path / "out"), "--fixture", str(empty),
                          "--strict-replay"], 3),
        "usage": (["validate"], 1),
    }


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("case", ["ok", "config", "io", "fixture-miss", "usage"])
def test_main_leaves_the_collector_as_it_found_it(
    tmp_path, capsys, sample_manifest_path, collector_state, enabled, case
):
    argv, code = _exit_cases(tmp_path, sample_manifest_path)[case]
    (gc.enable if enabled else gc.disable)()
    assert main(argv) == code
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_an_escaping_error_leaves_the_collector_as_it_found_it(
    monkeypatch, collector_state, enabled
):
    seen = []

    def crash(args):
        seen.append(gc.isenabled())
        raise RuntimeError("handler bug")

    validate = cli._COMMANDS["validate"]
    monkeypatch.setitem(cli._COMMANDS, "validate", validate._replace(handler=crash))
    (gc.enable if enabled else gc.disable)()
    with pytest.raises(RuntimeError, match="handler bug"):
        main(["validate", "g.foon"])
    assert (seen, gc.isenabled()) == ([False], enabled)


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "g.foon"],
        ["evaluate", "r.json"],
        ["convert", "a", "b", "--to", "foon"],
        ["retrieve", "--graph", "g.foon", "--goal", "g"],
        [*_GENERATE, "--fixture", "f.json"],
    ],
    ids=lambda argv: argv[0],
)
def test_offline_commands_run_with_the_collector_paused(monkeypatch, collector_state, argv):
    seen = []

    def capture(args):
        seen.append(gc.isenabled())
        return 0

    for name, command in cli._COMMANDS.items():
        monkeypatch.setitem(cli._COMMANDS, name, command._replace(handler=capture))
    gc.enable()
    assert main(argv) == 0
    assert (seen, gc.isenabled()) == ([False], True)


def test_live_generation_runs_with_the_collector_on(
    tmp_path, monkeypatch, capsys, sample_manifest_path, collector_state
):
    seen = []

    def post(url, body, headers, timeout):
        seen.append(gc.isenabled())
        return 200, json.dumps({"text": "prose", "finish_reason": "complete"}).encode()

    monkeypatch.setenv(API_URL_ENV, "https://example.invalid/generate")
    monkeypatch.setenv(API_KEY_ENV, "k")
    monkeypatch.setattr("foonforge.cli.LiveClient", functools.partial(LiveClient, post=post))
    gc.enable()
    argv = ["generate", "--manifest", str(sample_manifest_path), "--strategy", "contextual",
            "--live", "--out", str(tmp_path / "out")]
    assert main(argv) == 0
    assert "text_fallback=3" in capsys.readouterr().out
    assert seen == [True] * 3 and gc.isenabled()
