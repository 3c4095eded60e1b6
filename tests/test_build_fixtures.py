from __future__ import annotations

import importlib.util
import os
import shutil
import subprocess
import sys
from pathlib import Path

from foonforge.resources import data_path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "build_fixtures.py"


def test_packaged_data_matches_a_fresh_build():
    paths = [str(SCRIPT.parent.parent / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    result = subprocess.run(
        [sys.executable, str(SCRIPT), "--check"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "up to date" in result.stdout


def test_check_names_every_drifted_file(tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("build_fixtures", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    data = tmp_path / "data"
    shutil.copytree(data_path(), data)
    with open(data / "examples" / "omelette.json", "a", encoding="utf-8") as handle:
        handle.write(" ")
    (data / "fixtures" / "runs.json").unlink()
    monkeypatch.setattr(module, "DATA_DIR", data)

    assert module.main(["--check"]) == 1
    err = capsys.readouterr().err
    assert "examples/omelette.json" in err
    assert "fixtures/runs.json" in err
    assert "manifest_34.json" not in err
    assert (data / "examples" / "omelette.json").read_text(encoding="utf-8").endswith(" ")
