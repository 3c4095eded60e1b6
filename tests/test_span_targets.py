"""The benchmark's span table names functions that exist.

``perfbench/spans.py`` attaches its per-layer spans by module and
attribute name, and skips a name it cannot find. Renaming a traced
function would then drop its span without a word; this test fails
instead.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _span_targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave the benchmark's directory as it is
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module.TARGETS


def test_every_span_target_resolves_to_a_package_function():
    targets = _span_targets()
    assert targets
    missing = []
    for name, modname, attr in targets:
        assert modname == "foonforge" or modname.startswith("foonforge."), name
        owner = importlib.import_module(modname)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{name}: {modname}.{attr}")
    assert missing == []
