"""Every input file is read, and every one-file output written, as text
mode reads and writes it.

Input files are UTF-8 text with universal newlines: a file whose lines
end in ``\\r\\n`` or a lone ``\\r`` reads as the same file with ``\\n``,
so a template gives the same prompts and context hashes, and a graph or
a tree the same results, whatever its line ends. A missing file, a
directory and a byte that is not UTF-8 each keep their command's
wording and exit code, the position of the bad byte counted from the
start of the file. ``convert``, ``retrieve --out`` and ``--csv`` write
their text as UTF-8 bytes, in place of what the file held, and a new
file gets mode ``0o666`` less the umask.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from foonforge import cli
from foonforge.cli import main
from foonforge.client import ReplayClient
from foonforge.foon.text_format import serialize_foon_text
from foonforge.foon.tree_json import parse_task_tree_json
from foonforge.metrics import format_csv_table, summarize_run
from foonforge.pipeline import REPORT_FILENAME, load_run_report, read_manifest
from foonforge.prompts import CompiledTemplate, Strategy
from foonforge.resources import data_path

NEWLINES = pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])


def _run(capsys, argv: list) -> tuple[int, str, str]:
    code = main([str(arg) for arg in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _with_newline(path: Path, text: str, newline: str) -> Path:
    path.write_bytes(text.replace("\n", newline).encode("utf-8"))
    return path


def _generate_argv(tmp_path, *, manifest=None, fixture=None, template=None) -> list:
    argv = [
        "generate",
        "--manifest",
        manifest or data_path("manifest_34.json"),
        "--strategy",
        "contextual",
        "--fixture",
        fixture or data_path("fixtures", "replay_contextual_run1.json"),
        "--out",
        tmp_path / "out",
    ]
    if template is not None:
        argv += ["--template", template]
    return argv


@NEWLINES
def test_a_template_gives_text_modes_prompts_whatever_its_line_ends(
    tmp_path, capsys, monkeypatch, newline
):
    packaged = data_path("templates", "contextual.txt").read_text(encoding="utf-8")
    assert "\r" not in packaged
    template = _with_newline(tmp_path / "template.txt", packaged, newline)
    with open(template, encoding="utf-8") as file:
        text_mode = file.read()
    assert text_mode == packaged

    seen = []

    class Recording(ReplayClient):
        def generate_all(self, prompts):
            seen.extend((prompt.text, prompt.context_hash) for prompt in prompts)
            return super().generate_all(prompts)

    monkeypatch.setattr(cli, "ReplayClient", Recording)
    argv = [*_generate_argv(tmp_path, template=template), "--strict-replay"]
    code, out, err = _run(capsys, argv)
    assert (code, err) == (0, "")
    assert "total=34 " in out

    compiled = CompiledTemplate(Strategy.CONTEXTUAL, template=text_mode)
    manifest = read_manifest(data_path("manifest_34.json"))
    expected = [compiled.render(dish) for dish in manifest.dishes()]
    assert seen == [(bundle.text, bundle.context_hash) for bundle in expected]


@NEWLINES
def test_a_graph_gives_the_same_results_whatever_its_line_ends(tmp_path, capsys, newline):
    text = data_path("macaroni.foon").read_text(encoding="utf-8")
    lf = tmp_path / "lf.foon"
    lf.write_bytes(text.encode("utf-8"))
    other = _with_newline(tmp_path / "other.foon", text, newline)
    goal = ["--goal", "mac and cheese"]
    available = ["--available", "water,macaroni,cheese"]

    def outputs(graph: Path) -> list:
        dest = tmp_path / f"{graph.stem}.json"
        return [
            _run(capsys, ["validate", graph]),
            _run(capsys, ["validate", graph, "--as-task-tree", *goal]),
            _run(capsys, ["retrieve", "--graph", graph, *goal, *available]),
            _run(capsys, ["convert", graph, dest, "--to", "json", *goal])[0],
            dest.read_bytes(),
        ]

    assert outputs(other) == outputs(lf)
    assert b"\r" not in (tmp_path / "other.json").read_bytes()


@NEWLINES
def test_a_tree_gives_the_same_results_whatever_its_line_ends(tmp_path, capsys, newline):
    text = data_path("examples", "mac_and_cheese.json").read_text(encoding="utf-8")
    lf = tmp_path / "lf.json"
    lf.write_bytes(text.encode("utf-8"))
    other = _with_newline(tmp_path / "other.json", text, newline)

    def outputs(tree: Path) -> list:
        dest = tmp_path / f"{tree.stem}.foon"
        return [
            _run(capsys, ["validate", tree]),
            _run(capsys, ["convert", tree, dest, "--to", "foon"])[0],
            dest.read_bytes(),
        ]

    assert outputs(other) == outputs(lf)


# the bad byte sits past the first 8 KiB, where a chunked read would count afresh
_BAD_TAIL = b"\xff rest\n"
_PADDING = b"O\tpan\n" * 2000


def _decode_error(position: int) -> str:
    return f"'utf-8' codec can't decode byte 0xff in position {position}: invalid start byte"


@pytest.mark.parametrize("command", ["validate", "convert", "retrieve", "template"])
def test_a_non_utf8_input_file_is_named_with_its_bad_byte(tmp_path, capsys, command):
    bad = tmp_path / "bad.foon"
    bad.write_bytes(_PADDING + _BAD_TAIL)
    argv = {
        "validate": ["validate", bad],
        "convert": ["convert", bad, tmp_path / "t.json", "--to", "json", "--goal", "pan"],
        "retrieve": ["retrieve", "--graph", bad, "--goal", "pan"],
        "template": _generate_argv(tmp_path, template=bad),
    }[command]
    code, out, err = _run(capsys, argv)
    assert (code, out) == (2, "")
    assert err == f"error: {bad} is not UTF-8 text: {_decode_error(len(_PADDING))}\n"
    assert not (tmp_path / "t.json").exists()


@pytest.mark.parametrize("what", ["manifest", "report", "fixture"])
def test_a_non_utf8_json_file_is_not_valid_json(tmp_path, capsys, what):
    # named as a graph, tree or template is, by the file's text; each keeps its exit code
    bad = tmp_path / "bad.json"
    head = b'{"categories": [], "pad": "' + b"x" * 9000
    bad.write_bytes(head + _BAD_TAIL)
    argv = {
        "manifest": _generate_argv(tmp_path, manifest=bad),
        "report": ["evaluate", bad],
        "fixture": _generate_argv(tmp_path, fixture=bad),
    }[what]
    code, out, err = _run(capsys, argv)
    decode = _decode_error(len(head))
    if what == "fixture":
        assert (code, out, err) == (1, "", f"error: fixture {bad} is not UTF-8 text: {decode}\n")
    else:
        assert (code, out, err) == (2, "", f"error: /: {bad} is not UTF-8 text: {decode}\n")
    assert not (tmp_path / "out").exists()


@pytest.fixture()
def shipped_report(tmp_path, capsys) -> Path:
    code, _, _ = _run(capsys, _generate_argv(tmp_path))
    assert code == 0
    return tmp_path / "out" / REPORT_FILENAME


def _input_argv(tmp_path, shipped_report, what: str, path: Path) -> list:
    return {
        "validate": ["validate", path],
        "convert": ["convert", path, tmp_path / "t.foon", "--to", "foon"],
        "retrieve": ["retrieve", "--graph", path, "--goal", "x"],
        "template": _generate_argv(tmp_path / "run", template=path),
        "manifest": _generate_argv(tmp_path / "run", manifest=path),
        "fixture": _generate_argv(tmp_path / "run", fixture=path),
        "report": ["evaluate", shipped_report, path],
    }[what]


_INPUTS = ["validate", "convert", "retrieve", "template", "manifest", "fixture", "report"]


@pytest.mark.parametrize("what", _INPUTS)
def test_a_directory_as_input_is_refused_by_name(tmp_path, capsys, shipped_report, what):
    folder = tmp_path / "folder.json"
    folder.mkdir()
    code, out, err = _run(capsys, _input_argv(tmp_path, shipped_report, what, folder))
    assert (code, out, err) == (2, "", f"error: [Errno 21] Is a directory: '{folder}'\n")


@pytest.mark.parametrize("what", _INPUTS)
def test_a_missing_input_is_refused_by_name(tmp_path, capsys, shipped_report, what):
    missing = tmp_path / "missing.json"
    code, out, err = _run(capsys, _input_argv(tmp_path, shipped_report, what, missing))
    assert (code, out) == (2, "")
    assert err == f"error: [Errno 2] No such file or directory: '{missing}'\n"


def _non_ascii_graph(tmp_path) -> Path:
    text = data_path("macaroni.foon").read_text(encoding="utf-8")
    graph = tmp_path / "graph.foon"
    graph.write_text(text.replace("cheese", "fromage râpé"), encoding="utf-8")
    return graph


_GOAL = ["--goal", "mac and fromage râpé"]
_RETRIEVE = ["retrieve", "--available", "water,macaroni,fromage râpé", *_GOAL, "--graph"]


def test_convert_writes_utf8_bytes_over_what_the_file_held(tmp_path, capsys):
    graph = _non_ascii_graph(tmp_path)
    tree_file = tmp_path / "tree.json"
    back = tmp_path / "back.foon"
    for dest in (tree_file, back):
        dest.write_bytes(b"old bytes, longer than nothing\n" * 400)
    assert _run(capsys, ["convert", graph, tree_file, "--to", "json", *_GOAL])[0] == 0
    code, out, err = _run(capsys, ["convert", tree_file, back, "--to", "foon"])
    assert (code, out, err) == (0, f"wrote {back}\n", "")

    written = tree_file.read_bytes()
    assert "râpé".encode("utf-8") in written
    code, stdout, _ = _run(capsys, [*_RETRIEVE, graph])
    assert (code, stdout.encode("utf-8")) == (0, written)
    tree = parse_task_tree_json(written.decode("utf-8"))
    assert back.read_bytes() == serialize_foon_text(tree.graph).encode("utf-8")


def test_retrieve_out_writes_what_stdout_shows(tmp_path, capsys):
    graph = _non_ascii_graph(tmp_path)
    code, stdout, _ = _run(capsys, [*_RETRIEVE, graph])
    assert code == 0
    dest = tmp_path / "tree.json"
    dest.write_bytes(b"x" * 20000)
    code, out, err = _run(capsys, [*_RETRIEVE, graph, "--out", dest])
    assert (code, out, err) == (0, f"wrote {dest}\n", "")
    assert dest.read_bytes() == stdout.encode("utf-8")


def test_csv_writes_the_table_over_what_the_file_held(tmp_path, capsys, shipped_report):
    dest = tmp_path / "table.csv"
    dest.write_bytes(b"x" * 20000)
    code, _, err = _run(capsys, ["evaluate", shipped_report, "--csv", dest])
    assert (code, err) == (0, "")
    rows = summarize_run(load_run_report(shipped_report))
    assert dest.read_bytes() == format_csv_table(rows).encode("utf-8")


@pytest.mark.parametrize("umask", [0o022, 0o027, 0o077])
@pytest.mark.parametrize("command", ["convert", "retrieve", "csv"])
def test_a_new_output_file_gets_0o666_less_the_umask(
    tmp_path, capsys, shipped_report, command, umask
):
    graph = _non_ascii_graph(tmp_path)
    dest = tmp_path / "new"
    argv = {
        "convert": ["convert", graph, dest, "--to", "json", *_GOAL],
        "retrieve": [*_RETRIEVE, graph, "--out", dest],
        "csv": ["evaluate", shipped_report, "--csv", dest],
    }[command]
    old = os.umask(umask)
    try:
        code = main([str(arg) for arg in argv])
    finally:
        os.umask(old)
    capsys.readouterr()
    assert code == 0
    assert dest.stat().st_mode & 0o777 == 0o666 & ~umask


@pytest.mark.parametrize("command", ["convert", "retrieve", "csv"])
@pytest.mark.parametrize("where", ["missing", "directory"])
def test_an_output_that_cannot_be_opened_exits_2(
    tmp_path, capsys, shipped_report, command, where
):
    graph = _non_ascii_graph(tmp_path)
    if where == "missing":
        dest = tmp_path / "no" / "such" / "dir.json"
        words = f"[Errno 2] No such file or directory: '{dest}'"
    else:
        dest = tmp_path / "folder"
        dest.mkdir()
        words = f"[Errno 21] Is a directory: '{dest}'"
    argv = {
        "convert": ["convert", graph, dest, "--to", "json", *_GOAL],
        "retrieve": [*_RETRIEVE, graph, "--out", dest],
        "csv": ["evaluate", shipped_report, "--csv", dest],
    }[command]
    code, _, err = _run(capsys, argv)
    assert (code, err) == (2, f"error: {words}\n")
    assert not (tmp_path / "no").exists()
