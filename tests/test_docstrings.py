"""Docstrings state contracts and costs, not measurements.

A module's Cost paragraph says what a call costs in terms of its input
and which benchmark metric shows it; the timings behind it live in the
``BENCH_*.json`` files, where the next change can compare against them.
A timing quoted in a docstring goes stale at that change and no test
reads it, so the modules whose Cost paragraphs follow that rule are
held to it here: no docstring in them quotes a number followed by
``ms``, ``us``, ``µs`` or ``%``.
"""

from __future__ import annotations

import ast
import re

import pytest

from foonforge import cli, client, metrics, pipeline, prompts, resources
from foonforge.foon import model, text_format, tree_json

_TIMING = re.compile(r"\d(?:[\d.,]*\d)?\s*(?:(?:ms|us|µs)\b|%)")


def _docstrings(module) -> list[tuple[str, str]]:
    """(owner, docstring) for the module and each class and function in it."""
    tree = ast.parse(open(module.__file__, encoding="utf-8").read())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            doc = ast.get_docstring(node, clean=False)
            if doc:
                found.append((getattr(node, "name", module.__name__), doc))
    return found


@pytest.mark.parametrize(
    "module",
    [tree_json, model, text_format, metrics, pipeline, cli, client, prompts, resources],
    ids=lambda m: m.__name__,
)
def test_docstrings_quote_no_timing(module):
    quoted = [
        (owner, match.group())
        for owner, doc in _docstrings(module)
        for match in _TIMING.finditer(doc)
    ]
    assert quoted == []


@pytest.mark.parametrize(
    "text",
    ["fell from 9.5 to 8.3 us", "2.6-2.9 ms", "took 39µs", "-7.8%", "4.5 % lower", "1,374 ms"],
)
def test_the_guard_sees_a_timing(text):
    assert _TIMING.search(text)


@pytest.mark.parametrize("text", ["a multiple of 0.2", "5 units", "one walk", "12 uses", "3 msgs"])
def test_the_guard_passes_a_plain_number(text):
    assert not _TIMING.search(text)


def test_the_guard_reads_every_docstring():
    owners = {owner for owner, _ in _docstrings(metrics)}
    assert {"foonforge.metrics", "_TreeFacts", "score_record", "_tree_facts"} <= owners
