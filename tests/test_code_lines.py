"""``scripts/code_lines.py`` counts what a change's code-line delta counts."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "code_lines.py"


def _script():
    spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


SNIPPET = '''"""A module docstring,
on two lines."""

# a comment line

import os  # a comment after code


def f(x):
    """A function docstring."""
    text = """a string
that spans two lines"""
    return (x,
            text)


class C:
    """A class docstring,

    with a blank line in it."""

    "a string statement that is not first, so code"
'''


def test_code_lines_leaves_out_docstrings_comments_and_blanks():
    # import, def, text (2 lines), return (2 lines), class, string statement
    assert _script().code_lines(SNIPPET) == 8


def test_code_lines_prints_each_module_and_the_total(tmp_path, capsys):
    package = tmp_path / "pkg"
    (package / "sub").mkdir(parents=True)
    (package / "__init__.py").write_text(SNIPPET, encoding="utf-8")
    (package / "sub" / "m.py").write_text("x = 1\n\ny = 2\n", encoding="utf-8")
    assert _script().main([str(package)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "     8  pkg/__init__.py",
        "     2  pkg/sub/m.py",
        "    10  total",
    ]
