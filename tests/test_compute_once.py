"""Each fact of a run is computed once.

A tree is validated when it is parsed and never again; a prompt's
template is read once and its example block serialized once per set of
examples. The counts are taken on the shipped example-based run1 (34
dishes, 27 JSON outputs) by wrapping the counted function wherever the
package holds a reference to it.
"""

from __future__ import annotations

import sys

import pytest

from foonforge import prompts
from foonforge.cli import main
from foonforge.foon import tree_json, validation
from foonforge.pipeline import FallbackReason, load_run_report
from foonforge.resources import data_path


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
    # start from cold prompt caches, as a fresh process does
    prompts.default_template.cache_clear()
    prompts._example_block.cache_clear()
    return {
        "validate": _count_calls(monkeypatch, validation, "validate_graph"),
        "serialize": _count_calls(monkeypatch, tree_json, "serialize_task_tree_json"),
        "read": _count_calls(monkeypatch, prompts, "read_data_text"),
    }


@pytest.fixture()
def run1(tmp_path, capsys, counts, acceptance_manifest_path):
    out = tmp_path / "run1"
    code = main(
        [
            "generate",
            "--manifest",
            str(acceptance_manifest_path),
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


def test_evaluate_reuses_the_validation_of_parsing(run1, counts, capsys):
    counts["validate"].clear()
    assert main(["evaluate", str(run1)]) == 0
    assert "Successful JSON outputs" in capsys.readouterr().out
    assert len(counts["validate"]) == 27  # one per JSON_OK record
