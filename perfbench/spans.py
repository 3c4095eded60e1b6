"""In-memory spans around the calls into each layer of the package.

The tracer wraps public functions of the package's modules from outside:
every module attribute that holds a traced function is swapped for a
wrapper for the length of a traced iteration, and restored afterwards.
The program itself is not changed. A span records its name, wall start
and end, the thread CPU time spent inside it, its parent span, and the
operation and dish it belongs to. Busy time is the CPU time: under the
default thread pool a span's wall time also counts the time its thread
waited for the interpreter lock, which belongs to the pool, not the layer.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from itertools import count

# span name, module, attribute. A class attribute is written "Class.method".
TARGETS = (
    ("prompts.render", "foonforge.prompts", "render_for_dish"),
    ("prompts.hash", "foonforge.prompts", "context_hash"),
    ("prompts.load_examples", "foonforge.prompts", "load_examples"),
    ("client.fixture_load", "foonforge.client", "load_fixture"),
    ("client.lookup", "foonforge.client", "ReplayClient.generate"),
    ("pipeline.read_manifest", "foonforge.pipeline", "read_manifest"),
    ("pipeline.run_generation", "foonforge.pipeline", "run_generation"),
    ("pipeline.fence", "foonforge.pipeline", "strip_code_fence"),
    ("pipeline.handle_response", "foonforge.pipeline", "handle_response"),
    ("pipeline.report", "foonforge.pipeline", "report_to_json"),
    ("pipeline.load_run_report", "foonforge.pipeline", "load_run_report"),
    ("tree_json.parse", "foonforge.foon.tree_json", "parse_task_tree_json"),
    ("tree_json.serialize", "foonforge.foon.tree_json", "serialize_task_tree_json"),
    ("validation.validate", "foonforge.foon.validation", "validate_task_tree"),
    ("validation.validate", "foonforge.foon.validation", "validate_graph"),
    ("text_format.parse", "foonforge.foon.text_format", "parse_foon_text"),
    ("text_format.serialize", "foonforge.foon.text_format", "serialize_foon_text"),
    ("retrieval.retrieve", "foonforge.foon.retrieval", "retrieve_task_tree"),
    ("metrics.score", "foonforge.metrics", "score_record"),
    ("metrics.compare", "foonforge.metrics", "compare_strategies"),
    ("metrics.summarize", "foonforge.metrics", "summarize_run"),
)


def _dish_name(args, index):
    dish = args[index] if len(args) > index else None
    return getattr(dish, "name", None)


def _units(args):
    graph = getattr(args[0], "graph", args[0]) if args else None
    return len(getattr(graph, "units", ()))


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.op: str | None = None
        self._ids = count(1)
        self._local = threading.local()
        self._main_stack: list[tuple] = []
        self._dish_by_hash: dict[str, str] = {}
        self._patches: list[tuple] = []
        self.missing: list[str] = []

    def _stack(self) -> list:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, dish=None, size=0):
        stack = self._stack()
        # a pool thread's first span belongs to whatever the main thread is inside
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else (0, None))
        span_id = next(self._ids)
        dish = dish or parent[1]
        stack.append((span_id, dish))
        error = None
        t0, c0 = time.perf_counter(), time.thread_time()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            error = type(exc).__name__
            raise
        finally:
            c1, t1 = time.thread_time(), time.perf_counter()
            stack.pop()
            self.spans.append(
                (span_id, name, parent[0], self.op, dish, t0, t1, c1 - c0, size, error)
            )

    def _wrapper(self, name, fn, attr):
        tracer = self

        if attr == "render_for_dish":
            @functools.wraps(fn)
            def render(*args, **kwargs):
                bundle = tracer.call(name, fn, args, kwargs, dish=_dish_name(args, 1))
                tracer._dish_by_hash[bundle.context_hash] = _dish_name(args, 1)
                return bundle
            return render
        if attr == "handle_response":
            dish_of = lambda args: _dish_name(args, 1)  # noqa: E731
        elif attr == "ReplayClient.generate":
            dish_of = lambda args: tracer._dish_by_hash.get(  # noqa: E731
                getattr(args[1], "context_hash", ""))
        else:
            dish_of = lambda args: None  # noqa: E731
        size_of = _units if name == "validation.validate" else (lambda args: 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, dish=dish_of(args), size=size_of(args))
        return wrapper

    def install(self) -> None:
        """Swap every reference the package holds to a traced function."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "foonforge" or n.startswith("foonforge."))]
        for name, modname, attr in TARGETS:
            owner = sys.modules.get(modname)
            cls_name, _, meth = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
            fn = getattr(owner, meth, None) if owner is not None else None
            if fn is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            wrapper = self._wrapper(name, fn, attr)
            holders = [owner] if cls_name else modules
            for holder in holders:
                for key_, value in list(vars(holder).items()):
                    if value is fn:
                        self._patches.append((holder, key_, value))
                        setattr(holder, key_, wrapper)

    def uninstall(self) -> None:
        for holder, key_, value in reversed(self._patches):
            setattr(holder, key_, value)
        self._patches.clear()

    def span(self, name: str, fn, *args):
        """Run ``fn(*args)`` inside a span opened by the benchmark itself."""
        return self.call(name, fn, args, {})


def layer_metrics(spans: list[tuple]) -> dict:
    """Per-layer counts, busy and self times from one iteration's spans.

    A span nested inside a span of the same name is not counted again.
    ``tree_json.parse`` excludes the validation it runs inside, which is
    the cost of a parse with ``check_structure=False``.
    """
    by_id = {s[0]: s for s in spans}
    children: dict[int, list] = {}
    for s in spans:
        children.setdefault(s[2], []).append(s)

    def nested_in_same(s) -> bool:
        parent = by_id.get(s[2])
        while parent is not None:
            if parent[1] == s[1]:
                return True
            parent = by_id.get(parent[2])
        return False

    def descendants_named(s, name) -> float:
        total = 0.0
        for c in children.get(s[0], ()):
            total += c[7] if c[1] == name else descendants_named(c, name)
        return total

    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    units = 0
    misses = 0
    handle_self = 0.0
    orchestration = 0.0
    for s in spans:
        name = s[1]
        if nested_in_same(s):
            continue
        calls[name] = calls.get(name, 0) + 1
        cpu = s[7]
        if name == "tree_json.parse":
            cpu -= descendants_named(s, "validation.validate")
        busy[name] = busy.get(name, 0.0) + cpu
        if name == "validation.validate":
            units += s[8]
        elif name == "client.lookup" and s[9] == "FixtureMissError":
            misses += 1
        elif name == "pipeline.handle_response":
            handle_self += s[7] - sum(c[7] for c in children.get(s[0], ()))
        elif name == "pipeline.run_generation":
            orchestration += (s[6] - s[5]) - sum(c[7] for c in children.get(s[0], ()))
    return {"calls": calls, "busy": busy, "units": units, "misses": misses,
            "handle_self": handle_self, "orchestration": orchestration}
