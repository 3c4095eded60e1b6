"""Batch generation pipeline: read manifest, generate per dish, persist.

Each dish yields exactly one :class:`OutputRecord`, and
:func:`handle_response` is the one place that classifies a response and
writes its output file. A backend failure becomes an ``error`` response
carrying the failure text, which is recorded as ``model_error`` without
being parsed. Other responses that parse and validate as task trees are
written as pretty JSON; everything else is preserved verbatim as a text
file together with the failure category. Records are reported in
manifest order even when generation runs concurrently.
"""

from __future__ import annotations

import json
import logging
import os
import re
import stat
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path
from typing import Iterator, Sequence

from .client import FinishReason, FixtureMissError, GenerationParams, ModelResponse, TextGenerator
from .errors import (
    ClientError,
    InvalidNodeError,
    ManifestError,
    TaskTreeJsonError,
    TaskTreeSchemaError,
    TaskTreeStructureError,
)
from .foon.model import TaskTree
from .foon.tree_json import (
    encode_string,
    parse_task_tree_json,
    serialize_task_tree_json,
    string_array,
)
from .prompts import DishSpec, Strategy, render_for_dish
from .resources import write_text_atomic

log = logging.getLogger(__name__)

REPORT_FILENAME = "run_report.json"

_FENCE = re.compile(r"\A```[^\n]*\n(.*)\n```\s*\Z", re.DOTALL)
_NON_ALNUM = re.compile(r"[^a-z0-9]+")


class Outcome(str, Enum):
    JSON_OK = "JSON_OK"
    TEXT_FALLBACK = "TEXT_FALLBACK"


class FallbackReason(str, Enum):
    JSON_SYNTAX = "json_syntax"
    SCHEMA = "schema"
    STRUCTURAL = "structural"
    MODEL_ERROR = "model_error"


@dataclass(frozen=True)
class InputManifest:
    """Categories of dish specs, as read from the input JSON file."""

    categories: tuple[tuple[str, tuple[DishSpec, ...]], ...]

    def dishes(self) -> Iterator[DishSpec]:
        for _, specs in self.categories:
            yield from specs


@dataclass(frozen=True)
class OutputRecord:
    """The fate of one generation attempt."""

    dish: DishSpec
    strategy: Strategy
    outcome: Outcome
    raw_text: str
    output_path: str
    tree: TaskTree | None = None
    fallback_reason: FallbackReason | None = None

    def __post_init__(self):
        if self.outcome is Outcome.JSON_OK:
            if self.tree is None or self.fallback_reason is not None:
                raise ValueError("JSON_OK records carry a tree and no fallback reason")
        else:
            if self.fallback_reason is None or self.tree is not None:
                raise ValueError("TEXT_FALLBACK records carry a fallback reason and no tree")


@dataclass(frozen=True)
class RunReport:
    strategy: Strategy
    records: tuple[OutputRecord, ...]
    started: str
    finished: str

    @property
    def total(self) -> int:
        return len(self.records)

    @property
    def json_ok(self) -> int:
        return sum(1 for r in self.records if r.outcome is Outcome.JSON_OK)

    @property
    def text_fallback(self) -> int:
        return sum(1 for r in self.records if r.outcome is Outcome.TEXT_FALLBACK)


def read_manifest(path: str | Path) -> InputManifest:
    """Parse and normalize the input manifest.

    Schema problems carry a JSON-pointer-style location. Dish names must
    be unique across the whole manifest after normalization.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ManifestError(f"not valid JSON: {exc}") from exc

    if not isinstance(raw, dict):
        raise ManifestError("manifest must be a JSON object")
    categories_raw = raw.get("categories")
    if not isinstance(categories_raw, list) or not categories_raw:
        raise ManifestError("must be a non-empty array", "/categories")

    categories: list[tuple[str, tuple[DishSpec, ...]]] = []
    seen_names: dict[str, str] = {}
    for ci, cat_raw in enumerate(categories_raw):
        pointer = f"/categories/{ci}"
        if not isinstance(cat_raw, dict):
            raise ManifestError("category must be an object", pointer)
        name = cat_raw.get("name")
        if not isinstance(name, str) or not name.strip():
            raise ManifestError("missing category name", pointer + "/name")
        dishes_raw = cat_raw.get("dishes")
        if not isinstance(dishes_raw, list):
            raise ManifestError("must be an array", pointer + "/dishes")
        dishes: list[DishSpec] = []
        for di, dish_raw in enumerate(dishes_raw):
            dish_pointer = f"{pointer}/dishes/{di}"
            dish = _parse_dish(dish_raw, name, dish_pointer)
            if dish.name in seen_names:
                raise ManifestError(
                    f"duplicate dish {dish.name!r} (also at {seen_names[dish.name]})",
                    dish_pointer,
                )
            seen_names[dish.name] = dish_pointer
            dishes.append(dish)
        categories.append((name.strip().lower(), tuple(dishes)))
    return InputManifest(tuple(categories))


def _parse_dish(raw, category: str, pointer: str) -> DishSpec:
    if not isinstance(raw, dict):
        raise ManifestError("dish must be an object", pointer)
    name = raw.get("name")
    if not isinstance(name, str):
        raise ManifestError("missing dish name", pointer + "/name")
    ingredients = raw.get("ingredients")
    if not isinstance(ingredients, list) or not all(isinstance(i, str) for i in ingredients):
        raise ManifestError("missing ingredients list", pointer + "/ingredients")
    tools = raw.get("tools", [])
    if not isinstance(tools, list) or not all(isinstance(t, str) for t in tools):
        raise ManifestError("tools must be an array of strings", pointer + "/tools")
    try:
        return DishSpec(category, name, tuple(ingredients), tuple(tools))
    except InvalidNodeError as exc:
        raise ManifestError(str(exc), pointer) from exc


def sanitize_filename(name: str) -> str:
    """Make a dish name safe as a filename on any filesystem.

    Lowercase, ``&`` becomes ``and``, every run of non-alphanumeric
    characters collapses to a single underscore, surrounding underscores
    are stripped, the result is capped at 120 characters, and an empty
    result becomes ``unnamed``. Idempotent.
    """
    text = name.lower().replace("&", " and ")
    text = _NON_ALNUM.sub("_", text).strip("_")
    text = text[:120].rstrip("_")
    return text or "unnamed"


def _output_stem(dish: DishSpec) -> str:
    return f"{sanitize_filename(dish.category)}/{sanitize_filename(dish.name)}"


def strip_code_fence(text: str) -> str:
    """Remove one enclosing Markdown code fence, if present."""
    match = _FENCE.match(text.strip())
    return match.group(1) if match else text


def handle_response(
    response: ModelResponse,
    dish: DishSpec,
    out_dir: str | Path,
    *,
    strategy: Strategy = Strategy.EXAMPLE_BASED,
    lenient_json: bool = True,
    rel_base: str | None = None,
) -> OutputRecord:
    """Persist one model response and classify the outcome.

    An ``error`` response is a ``model_error`` fallback and is not
    parsed. Parse and validation failures are outcomes, not errors; only
    real IO problems raise. The tree is validated once, while it is
    parsed, and its record carries that result on to scoring.
    ``rel_base`` overrides the output location (relative to ``out_dir``,
    no extension) when the caller has already resolved filename
    collisions.
    """
    out_dir = Path(out_dir)
    if rel_base is None:
        rel_base = _output_stem(dish)

    text = response.text
    if response.finish_reason is FinishReason.ERROR:
        reason = FallbackReason.MODEL_ERROR
    else:
        candidate = strip_code_fence(text) if lenient_json else text
        try:
            tree = parse_task_tree_json(candidate)
        except TaskTreeJsonError:
            reason = FallbackReason.JSON_SYNTAX
        except TaskTreeSchemaError:
            reason = FallbackReason.SCHEMA
        except TaskTreeStructureError:
            reason = FallbackReason.STRUCTURAL
        else:
            rel_path = f"{rel_base}.json"
            _write_text(out_dir / rel_path, serialize_task_tree_json(tree) + "\n")
            return OutputRecord(dish, strategy, Outcome.JSON_OK, text, rel_path, tree=tree)

    rel_path = f"{rel_base}.txt"
    _write_text(out_dir / rel_path, text)
    return OutputRecord(
        dish, strategy, Outcome.TEXT_FALLBACK, text, rel_path, fallback_reason=reason
    )


def _write_text(path: Path, content: str) -> None:
    """Write a dish's output file, creating its directory on first use.

    Trying the write first costs no ``mkdir`` per file. These files are
    written in place: a temp file and a rename per dish would cost more
    than the write itself.
    """
    try:
        path.write_text(content, encoding="utf-8")
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content, encoding="utf-8")


def _resolve_stems(manifest: InputManifest) -> list[str]:
    """Collision-free output stems, one per dish in manifest order.

    Collisions between sanitized names get ``_2``, ``_3``, ... suffixes.
    Assignment depends only on the manifest, never on execution order, so
    reruns land on identical paths.
    """
    stems: list[str] = []
    used: dict[str, int] = {}
    for dish in manifest.dishes():
        stem = _output_stem(dish)
        count = used.get(stem, 0) + 1
        used[stem] = count
        stems.append(stem if count == 1 else f"{stem}_{count}")
    return stems


def run_generation(
    manifest: InputManifest,
    strategy: Strategy,
    backend: TextGenerator,
    out_dir: str | Path,
    params: GenerationParams | None = None,
    *,
    examples: Sequence[TaskTree] = (),
    instructions: str | None = None,
    template: str | None = None,
    lenient_json: bool = True,
    max_in_flight: int = 4,
    strict_replay: bool = False,
) -> RunReport:
    """Generate one recipe per dish and persist a run report.

    Every prompt is rendered before anything is written, so a
    :class:`PromptError` leaves nothing on disk. Per-dish backend
    failures become ``model_error`` records with the error text
    preserved; only manifest, configuration, and IO problems abort the
    run. With ``strict_replay`` a fixture miss aborts instead.
    """
    out_dir = Path(out_dir)
    params = params or GenerationParams()

    dishes = list(manifest.dishes())
    bundles = [
        render_for_dish(
            strategy, dish, examples=examples, instructions=instructions, template=template
        )
        for dish in dishes
    ]
    stems = _resolve_stems(manifest)

    started = _utc_now()

    def process(index: int) -> OutputRecord:
        dish, bundle, stem = dishes[index], bundles[index], stems[index]
        try:
            response = backend.generate(bundle, params)
        except ClientError as exc:
            if strict_replay and isinstance(exc, FixtureMissError):
                raise
            error = "fixture miss" if isinstance(exc, FixtureMissError) else str(exc)
            response = ModelResponse(
                f"model error: {error}\n(prompt hash {bundle.context_hash})", FinishReason.ERROR
            )
        return handle_response(
            response, dish, out_dir, strategy=strategy, lenient_json=lenient_json, rel_base=stem
        )

    if max_in_flight > 1 and len(dishes) > 1:
        with ThreadPoolExecutor(max_workers=max_in_flight) as pool:
            records = list(pool.map(process, range(len(dishes))))
    else:
        records = [process(i) for i in range(len(dishes))]

    report = RunReport(strategy, tuple(records), started, _utc_now())
    write_text_atomic(out_dir / REPORT_FILENAME, report_to_json(report) + "\n")
    log.info(
        "run complete: total=%d json_ok=%d text_fallback=%d",
        report.total,
        report.json_ok,
        report.text_fallback,
    )
    return report


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def report_to_json(report: RunReport) -> str:
    """Deterministic report rendering; byte-identical across reruns
    except for the two timestamp fields.

    Written directly, as task trees are: the text is byte-identical to
    ``json.dumps(indent=2, ensure_ascii=False)`` of the report as a dict
    in the key order below, at a fraction of the pure-Python encoder's
    cost.
    """
    records = "[]"
    if report.records:
        records = "[\n    " + ",\n    ".join(map(_record_json, report.records)) + "\n  ]"
    return (
        f'{{\n  "strategy": {encode_string(report.strategy.value)},\n'
        f'  "total": {report.total},\n'
        f'  "json_ok": {report.json_ok},\n'
        f'  "text_fallback": {report.text_fallback},\n'
        f'  "started": {encode_string(report.started)},\n'
        f'  "finished": {encode_string(report.finished)},\n'
        f'  "records": {records}\n}}'
    )


def _record_json(record: OutputRecord) -> str:
    dish = record.dish
    reason = record.fallback_reason
    return (
        f'{{\n      "dish": {{\n'
        f'        "category": {encode_string(dish.category)},\n'
        f'        "name": {encode_string(dish.name)},\n'
        f'        "ingredients": {string_array(dish.ingredients, "        ")},\n'
        f'        "tools": {string_array(dish.tools, "        ")}\n      }},\n'
        f'      "strategy": {encode_string(record.strategy.value)},\n'
        f'      "outcome": {encode_string(record.outcome.value)},\n'
        f'      "fallback_reason": {encode_string(reason.value) if reason else "null"},\n'
        f'      "output_path": {encode_string(record.output_path)},\n'
        f'      "raw_text": {encode_string(record.raw_text)}\n    }}'
    )


def load_run_report(path: str | Path) -> RunReport:
    """Rebuild a report from ``run_report.json``.

    Each successful record's tree is reparsed from its output file
    (resolved relative to the report's directory) so the report can be
    scored. Parsing validates the tree once, and scoring reuses that
    result. A file that is not JSON, or lacks a field, or holds one of
    the wrong type raises :class:`ManifestError`, as does an
    ``output_path`` that leaves the report's directory: one that is
    absolute or has a ``..`` part (checked on the path's parts), or one
    that is or passes through a symbolic link (checked as the file is
    opened, see :class:`_ReportFiles`).
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ManifestError(f"{path} is not valid JSON: {exc}") from exc
    try:
        with _ReportFiles(path.parent) as files:
            records = tuple(
                _load_record(entry, files, i) for i, entry in enumerate(raw["records"])
            )
        report = RunReport(
            Strategy(raw["strategy"]), records, raw.get("started", ""), raw.get("finished", "")
        )
    except KeyError as exc:
        raise ManifestError(f"{path} is not a run report: missing field {exc}") from exc
    except (TypeError, ValueError, AttributeError) as exc:
        raise ManifestError(f"{path} is not a run report: {exc}") from exc
    if report.total != raw.get("total") or report.json_ok != raw.get("json_ok"):
        raise ManifestError(f"report counts in {path} are inconsistent with its records")
    return report


class _ReportFiles:
    """Reads a report's output files without following a symbolic link.

    Each directory below the report's one is opened once, part by part
    with ``O_NOFOLLOW``, and each file is opened relative to its
    directory's descriptor with ``O_NOFOLLOW`` too, so no path is
    resolved per record. The report's own directory may be reached
    through a link: only the parts of an ``output_path`` are checked.
    """

    def __init__(self, root: Path):
        self.root = root
        self.dirs: dict[tuple[str, ...], int] = {}

    def __enter__(self) -> _ReportFiles:
        return self

    def __exit__(self, *exc_info) -> None:
        for fd in self.dirs.values():
            os.close(fd)

    def read(self, output_path: str, pointer: str) -> str:
        parts = [part for part in output_path.split("/") if part not in ("", ".")]
        if not parts:
            raise ManifestError(f"{output_path!r} names no file", pointer)
        *parents, name = parts
        fd = self._dir(tuple(parents), output_path, pointer)
        try:
            file_fd = os.open(name, os.O_RDONLY | os.O_NOFOLLOW, dir_fd=fd)
        except OSError as exc:
            raise self._failure(exc, fd, name, output_path, pointer) from exc
        with open(file_fd, encoding="utf-8") as handle:
            return handle.read()

    def _dir(self, parts: tuple[str, ...], output_path: str, pointer: str) -> int:
        fd = self.dirs.get(parts)
        if fd is None:
            if parts:
                parent = self._dir(parts[:-1], output_path, pointer)
                try:
                    fd = os.open(
                        parts[-1], os.O_RDONLY | os.O_DIRECTORY | os.O_NOFOLLOW, dir_fd=parent
                    )
                except OSError as exc:
                    raise self._failure(exc, parent, parts[-1], output_path, pointer) from exc
            else:
                fd = os.open(self.root, os.O_RDONLY | os.O_DIRECTORY)
            self.dirs[parts] = fd
        return fd

    def _failure(
        self, exc: OSError, dir_fd: int, name: str, output_path: str, pointer: str
    ) -> Exception:
        """A report error when ``name`` is a symbolic link; otherwise the
        failed open, named by its full path."""
        try:
            link = stat.S_ISLNK(os.stat(name, dir_fd=dir_fd, follow_symlinks=False).st_mode)
        except OSError:
            link = False
        if link:
            return ManifestError(
                f"{output_path!r} leaves the report directory {self.root} "
                "through a symbolic link",
                pointer,
            )
        return OSError(exc.errno, exc.strerror, str(self.root / output_path))


def _load_record(entry: dict, files: _ReportFiles, index: int) -> OutputRecord:
    output_path = entry["output_path"]
    # lexical, either separator counts; links are refused when the file is read
    if os.path.isabs(output_path) or (
        ".." in output_path and ".." in output_path.replace("\\", "/").split("/")
    ):
        raise ManifestError(
            f"{output_path!r} leaves the report directory {files.root}",
            f"/records/{index}/output_path",
        )
    dish_raw = entry["dish"]
    dish = DishSpec(
        dish_raw["category"],
        dish_raw["name"],
        tuple(dish_raw["ingredients"]),
        tuple(dish_raw.get("tools", ())),
    )
    outcome = Outcome(entry["outcome"])
    tree = None
    if outcome is Outcome.JSON_OK:
        tree = parse_task_tree_json(files.read(output_path, f"/records/{index}/output_path"))
    reason_raw = entry.get("fallback_reason")
    return OutputRecord(
        dish,
        Strategy(entry["strategy"]),
        outcome,
        entry.get("raw_text", ""),
        output_path,
        tree=tree,
        fallback_reason=FallbackReason(reason_raw) if reason_raw else None,
    )
