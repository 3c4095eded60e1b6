"""Every name a package exports resolves on it."""

from __future__ import annotations

import importlib

import pytest

import foonforge
from foonforge import prompts


@pytest.mark.parametrize("module_name", ["foonforge", "foonforge.foon"])
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    assert len(set(module.__all__)) == len(module.__all__)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_the_example_set_is_exported():
    assert foonforge.ExampleSet is prompts.ExampleSet
    assert "ExampleSet" in foonforge.__all__
