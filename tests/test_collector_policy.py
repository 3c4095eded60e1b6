"""The garbage collector's policy has one owner: ``cli.main``."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "foonforge"
OWNER = PACKAGE / "cli.py"
POLICY = {"disable", "enable", "freeze", "set_threshold"}


def _policy_calls(path: Path) -> list[str]:
    """Each ``gc`` policy name the module uses, by attribute or import."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "gc"
            and node.attr in POLICY
        ):
            found.append(f"gc.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "gc":
            found += [f"gc.{alias.name}" for alias in node.names if alias.name in POLICY]
    return found


def test_only_the_cli_sets_the_collector_policy():
    sources = sorted(PACKAGE.rglob("*.py"))
    assert OWNER in sources
    others = {
        str(path.relative_to(ROOT)): _policy_calls(path) for path in sources if path != OWNER
    }
    assert {path: names for path, names in others.items() if names} == {}
    assert {"gc.disable", "gc.enable"} <= set(_policy_calls(OWNER))
