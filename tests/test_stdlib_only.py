"""The package runs on the standard library alone."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "foonforge"


def _top_level_imports(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.skipif(
    not hasattr(sys, "stdlib_module_names"), reason="needs sys.stdlib_module_names"
)
def test_package_imports_only_the_standard_library():
    sources = sorted(PACKAGE.rglob("*.py"))
    assert sources
    foreign = {
        str(path.relative_to(ROOT)): sorted(
            name
            for name in _top_level_imports(path)
            if name != "foonforge" and name not in sys.stdlib_module_names
        )
        for path in sources
    }
    assert {path: names for path, names in foreign.items() if names} == {}


def test_project_declares_no_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as handle:
        project = tomllib.load(handle)["project"]
    assert project.get("dependencies", []) == []
