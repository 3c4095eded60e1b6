from __future__ import annotations

import json

import pytest

from foonforge.client import ReplayClient
from foonforge.pipeline import REPORT_FILENAME, read_manifest, run_generation
from foonforge.prompts import Strategy, load_examples
from foonforge.resources import data_path


@pytest.fixture(scope="session")
def sample_graph_text() -> str:
    return data_path("macaroni.foon").read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def sample_tree_json() -> str:
    return data_path("examples", "mac_and_cheese.json").read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def sample_manifest_path():
    return data_path("manifest_sample.json")


@pytest.fixture(scope="session")
def acceptance_manifest_path():
    return data_path("manifest_34.json")


@pytest.fixture(scope="session")
def runs_metadata() -> dict:
    return json.loads(data_path("fixtures", "runs.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def shipped_runs(tmp_path_factory, runs_metadata) -> list:
    """Report paths of the nine shipped replay runs, generated once per session."""
    manifest = read_manifest(data_path(runs_metadata["manifest"]))
    examples = load_examples(data_path(runs_metadata["examples_dir"]))
    root = tmp_path_factory.mktemp("shipped")
    reports = []
    for name, fixtures in runs_metadata["strategies"].items():
        for rel in fixtures:
            out = root / rel.rsplit("/", 1)[-1].removesuffix(".json")
            run_generation(
                manifest,
                Strategy(name),
                ReplayClient(data_path(*rel.split("/")), strict=True),
                out,
                examples=examples,
                instructions=runs_metadata["instructions"],
            )
            reports.append(out / REPORT_FILENAME)
    return reports


@pytest.fixture(scope="session")
def shared_texts_report(tmp_path_factory, shipped_runs) -> object:
    """The shipped example-based run1 report with its 27 successful
    records' answers cut to three: the i-th success holds the text of
    the (i mod 3)-th, so each text meets nine different dishes."""
    payload = json.loads(shipped_runs[3].read_text(encoding="utf-8"))
    ok = [record for record in payload["records"] if record["outcome"] == "JSON_OK"]
    assert payload["strategy"] == "example-based" and len(ok) == 27
    for i, record in enumerate(ok):
        record["raw_text"] = ok[i % 3]["raw_text"]
    path = tmp_path_factory.mktemp("shared") / REPORT_FILENAME
    path.write_text(json.dumps(payload, indent=2), encoding="utf-8")
    return path
