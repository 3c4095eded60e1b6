"""Batch generation pipeline: read manifest, generate per dish, persist.

Each dish yields exactly one :class:`OutputRecord`, and
:func:`handle_response` is the one place that classifies a response and
writes its output file. A backend failure becomes an ``error`` response
carrying the failure text, which is recorded as ``model_error`` without
being parsed; a ``truncated`` response is recorded as ``truncated``,
also unparsed. Other responses have one enclosing code fence stripped;
those that then parse and validate as task trees are written as pretty
JSON, and everything else is preserved verbatim as a text file together
with the failure category. Records are reported in manifest order. The
run's strategy is stored once, on its :class:`RunReport`.
"""

from __future__ import annotations

import functools
import json
import logging
import os
import re
from dataclasses import dataclass
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path
from typing import Iterator

from .client import FinishReason, FixtureMissError, ModelResponse, TextGenerator
from .errors import (
    ClientError,
    InvalidNodeError,
    ManifestError,
    TaskTreeError,
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
from .prompts import DishSpec, ExampleSet, Strategy, render_for_dish
from .resources import write_text_atomic

log = logging.getLogger(__name__)

REPORT_FILENAME = "run_report.json"

_FENCE = re.compile(r"\A```[^\n]*\n(.*)\n```\s*\Z", re.DOTALL)
_NON_ALNUM = re.compile(r"[^a-z0-9]+")
_WRITE_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


class Outcome(str, Enum):
    JSON_OK = "JSON_OK"
    TEXT_FALLBACK = "TEXT_FALLBACK"


class FallbackReason(str, Enum):
    JSON_SYNTAX = "json_syntax"
    SCHEMA = "schema"
    STRUCTURAL = "structural"
    MODEL_ERROR = "model_error"
    TRUNCATED = "truncated"


@dataclass(frozen=True)
class InputManifest:
    """The dish specs of the input JSON file, in manifest order."""

    specs: tuple[DishSpec, ...]

    def dishes(self) -> Iterator[DishSpec]:
        return iter(self.specs)


@dataclass(frozen=True)
class OutputRecord:
    """The fate of one generation attempt: a validated tree, or the
    reason there is none. Its :attr:`outcome` follows from which."""

    dish: DishSpec
    raw_text: str
    output_path: str
    tree: TaskTree | None = None
    fallback_reason: FallbackReason | None = None

    def __post_init__(self):
        if (self.tree is None) == (self.fallback_reason is None):
            raise ValueError("a record carries either a tree or a fallback reason")

    @property
    def outcome(self) -> Outcome:
        return Outcome.TEXT_FALLBACK if self.tree is None else Outcome.JSON_OK


@dataclass(frozen=True)
class RunReport:
    strategy: Strategy
    records: tuple[OutputRecord, ...]
    started: str
    finished: str

    @property
    def total(self) -> int:
        return len(self.records)

    @functools.cached_property
    def json_ok(self) -> int:
        return sum(1 for r in self.records if r.outcome is Outcome.JSON_OK)

    @property
    def text_fallback(self) -> int:
        return self.total - self.json_ok


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

    dishes: list[DishSpec] = []
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
        for di, dish_raw in enumerate(dishes_raw):
            dish_pointer = f"{pointer}/dishes/{di}"
            dish = _parse_dish(dish_raw, name, dish_pointer, pointer + "/name")
            if dish.name in seen_names:
                raise ManifestError(
                    f"duplicate dish {dish.name!r} (also at {seen_names[dish.name]})",
                    dish_pointer,
                )
            seen_names[dish.name] = dish_pointer
            dishes.append(dish)
    return InputManifest(tuple(dishes))


def _parse_dish(raw, category: str, pointer: str, category_pointer: str) -> DishSpec:
    """The dish at ``pointer``; a fault in ``category``, which a manifest
    gives per category and a report per dish, is named at ``category_pointer``."""
    if not isinstance(raw, dict):
        raise ManifestError("dish must be an object", pointer)
    name = raw.get("name")
    if not isinstance(name, str):
        raise ManifestError("missing dish name", pointer + "/name")
    ingredients = _strings(
        raw.get("ingredients"), "missing ingredients list", pointer + "/ingredients"
    )
    tools = _strings(raw.get("tools", []), "tools must be an array of strings", pointer + "/tools")
    try:
        return DishSpec(category, name, ingredients, tools)
    except InvalidNodeError as exc:
        where = category_pointer if exc.pointer == "/category" else pointer + exc.pointer
        raise ManifestError(str(exc), where) from exc


def _strings(value, message: str, pointer: str) -> tuple[str, ...]:
    if not isinstance(value, list):
        raise ManifestError(message, pointer)
    for i, item in enumerate(value):
        if not isinstance(item, str):
            raise ManifestError("must be a string", f"{pointer}/{i}")
    return tuple(value)


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


def _parse_answer(text: str) -> TaskTree:
    """The one parse of an answer: strip one enclosing code fence, then
    parse and validate the task tree. ``generate`` classifies with it and
    ``evaluate`` rebuilds trees with it, so the two cannot disagree."""
    return parse_task_tree_json(strip_code_fence(text))


def handle_response(
    response: ModelResponse,
    dish: DishSpec,
    out_dir: str | Path,
    *,
    rel_base: str | None = None,
) -> OutputRecord:
    """Persist one model response and classify the outcome.

    An ``error`` response is a ``model_error`` fallback and a
    ``truncated`` one a ``truncated`` fallback; neither is parsed, since
    a cut-off answer that happens to parse is still not the whole
    answer. Other text goes through :func:`_parse_answer`. Parse and
    validation failures are outcomes, not errors; only real IO problems
    raise. The tree is validated once, while it is parsed, and its
    record carries that result on to scoring.
    ``rel_base`` overrides the output location (relative to ``out_dir``,
    no extension) when the caller has already resolved filename
    collisions.
    """
    out_dir = os.fspath(out_dir) or "."
    if rel_base is None:
        rel_base = _output_stem(dish)

    text = response.text
    if response.finish_reason is FinishReason.ERROR:
        reason = FallbackReason.MODEL_ERROR
    elif response.finish_reason is FinishReason.TRUNCATED:
        reason = FallbackReason.TRUNCATED
    else:
        try:
            tree = _parse_answer(text)
        except TaskTreeJsonError:
            reason = FallbackReason.JSON_SYNTAX
        except TaskTreeSchemaError:
            reason = FallbackReason.SCHEMA
        except TaskTreeStructureError:
            reason = FallbackReason.STRUCTURAL
        else:
            rel_path = f"{rel_base}.json"
            _write_text(f"{out_dir}/{rel_path}", serialize_task_tree_json(tree) + "\n")
            return OutputRecord(dish, text, rel_path, tree=tree)

    rel_path = f"{rel_base}.txt"
    _write_text(f"{out_dir}/{rel_path}", text)
    return OutputRecord(dish, text, rel_path, fallback_reason=reason)


def _write_text(path: str, content: str) -> None:
    """Write a dish's output file as UTF-8, creating its directory on
    first use.

    Trying the write first costs no ``mkdir`` per file. These files are
    written in place: a temp file and a rename per dish would cost more
    than the write itself. The text is encoded once and its bytes go
    straight to the descriptor, in a loop that resumes a short write;
    a new file gets mode ``0o666`` less the umask, as ``open`` gives.

    Cost: rewriting the 2,000 emptied files of a ``manifest-2k``
    generate (2.66 MB) measured 110 ms of CPU through
    ``Path.write_text`` before and 53 ms this way after (medians of 21
    interleaved rounds, one CPU of a shared 2-vCPU VM). Opening each
    category directory once and writing with ``dir_fd=`` measured the
    same 53 ms, so no directory handle is kept.
    """
    data = content.encode("utf-8")
    try:
        fd = os.open(path, _WRITE_FLAGS, 0o666)
    except FileNotFoundError:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd = os.open(path, _WRITE_FLAGS, 0o666)
    try:
        view = memoryview(data)
        while view:
            written = os.write(fd, view)
            view = view[written:]
    finally:
        os.close(fd)


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
    *,
    examples: ExampleSet | None = None,
    instructions: str | None = None,
    template: str | None = None,
    strict_replay: bool = False,
) -> RunReport:
    """Generate one recipe per dish and persist a run report.

    Every prompt is rendered, and the backend answers the whole batch,
    before anything is written, so a :class:`PromptError` leaves nothing
    on disk, and nor does a fixture miss under ``strict_replay``, which
    raises the first miss in manifest order. Any other backend failure
    becomes a ``model_error`` record with the error text preserved; only
    manifest, configuration, and IO problems abort the run. Dishes are
    then classified and written one by one, in manifest order.
    """
    out_dir = Path(out_dir)

    dishes = list(manifest.dishes())
    bundles = [
        render_for_dish(
            strategy, dish, examples=examples, instructions=instructions, template=template
        )
        for dish in dishes
    ]
    stems = _resolve_stems(manifest)

    started = _utc_now()
    answers = backend.generate_all(bundles)
    if strict_replay:
        for answer in answers:
            if isinstance(answer, FixtureMissError):
                raise answer

    records = []
    for dish, bundle, stem, answer in zip(dishes, bundles, stems, answers):
        if isinstance(answer, ClientError):
            error = "fixture miss" if isinstance(answer, FixtureMissError) else str(answer)
            answer = ModelResponse(
                f"model error: {error}\n(prompt hash {bundle.context_hash})", FinishReason.ERROR
            )
        records.append(handle_response(answer, dish, out_dir, rel_base=stem))

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
        f'      "outcome": {encode_string(record.outcome.value)},\n'
        f'      "fallback_reason": {encode_string(reason.value) if reason else "null"},\n'
        f'      "output_path": {encode_string(record.output_path)},\n'
        f'      "raw_text": {encode_string(record.raw_text)}\n    }}'
    )


def load_run_report(path: str | Path) -> RunReport:
    """Rebuild a report from ``run_report.json``, reading no other file.

    Each successful record's tree is rebuilt from its ``raw_text`` by
    :func:`_parse_answer`, the parse that classified it, so output files
    may be moved or edited without changing a score. Parsing validates
    the tree once, and scoring reuses that result. Each dish is read by
    the manifest's dish reader. A file that is not JSON, or lacks a
    field, or holds one of the wrong type raises :class:`ManifestError`,
    as do counts that disagree with the records, a stored ``outcome``
    that disagrees with its ``fallback_reason``, and a successful record
    whose ``raw_text`` is not a valid task tree. Each of these names its
    field by a pointer, such as ``/records``, ``/records/3/output_path``
    or ``/records/3/dish/ingredients/1``; ``outcome`` against
    ``fallback_reason`` is named at ``/records/<i>/fallback_reason``,
    and a count that disagrees at its own pointer, such as ``/total``.
    A count must be a JSON integer, not a float or a bool. Only a report
    that is not an object is refused at ``/``. ``started`` and
    ``finished`` may be absent. Unknown fields are ignored at report,
    record and dish level alike, as the manifest reader and
    :func:`~foonforge.client.decode_response` ignore theirs, so the
    per-record ``strategy`` that older versions wrote needs no special
    case.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ManifestError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ManifestError("run report must be a JSON object")
    entries = _field(raw, "records", "")
    if not isinstance(entries, list):
        raise ManifestError("records must be an array", "/records")
    records = tuple(_load_record(entry, i) for i, entry in enumerate(entries))
    try:
        strategy = Strategy(_field(raw, "strategy", ""))
    except ValueError as exc:
        raise ManifestError(str(exc), "/strategy") from exc
    started, finished = (
        _string_field(raw, name, "") if name in raw else "" for name in ("started", "finished")
    )
    report = RunReport(strategy, records, started, finished)
    for name, count in (
        ("total", report.total),
        ("json_ok", report.json_ok),
        ("text_fallback", report.text_fallback),
    ):
        stored = _count_field(raw, name)
        if stored != count:
            raise ManifestError(
                f"{name} {stored} is inconsistent with its records ({count})", f"/{name}"
            )
    return report


def _load_record(entry, index: int) -> OutputRecord:
    pointer = f"/records/{index}"
    if not isinstance(entry, dict):
        raise ManifestError("record must be an object", pointer)
    dish_raw = _field(entry, "dish", pointer)
    if not isinstance(dish_raw, dict):
        raise ManifestError("dish must be an object", pointer + "/dish")
    category = _string_field(dish_raw, "category", pointer + "/dish")
    dish = _parse_dish(dish_raw, category, pointer + "/dish", pointer + "/dish/category")
    try:
        outcome = Outcome(_field(entry, "outcome", pointer))
    except ValueError as exc:
        raise ManifestError(str(exc), pointer + "/outcome") from exc
    reason_raw = entry.get("fallback_reason")
    try:
        reason = None if reason_raw is None else FallbackReason(reason_raw)
    except ValueError as exc:
        raise ManifestError(str(exc), pointer + "/fallback_reason") from exc
    if (outcome is Outcome.JSON_OK) != (reason is None):
        raise ManifestError(
            f"outcome {outcome.value} disagrees with fallback_reason {json.dumps(reason_raw)}",
            pointer + "/fallback_reason",
        )
    raw_text = _string_field(entry, "raw_text", pointer)
    tree = None
    if reason is None:
        try:
            tree = _parse_answer(raw_text)
        except TaskTreeError as exc:
            raise ManifestError(
                f"JSON_OK record is not a task tree: {exc}", pointer + "/raw_text"
            ) from exc
    output_path = _string_field(entry, "output_path", pointer)
    return OutputRecord(dish, raw_text, output_path, tree, reason)


def _field(entry: dict, name: str, pointer: str):
    try:
        return entry[name]
    except KeyError:
        raise ManifestError(f"missing field {name!r}", f"{pointer}/{name}") from None


def _string_field(entry: dict, name: str, pointer: str) -> str:
    value = _field(entry, name, pointer)
    if not isinstance(value, str):
        raise ManifestError(f"{name} must be a string", f"{pointer}/{name}")
    return value


def _count_field(raw: dict, name: str) -> int:
    value = _field(raw, name, "")
    # a bool is an int to Python, and 1.0 == 1, but neither is a count
    if type(value) is not int:
        raise ManifestError(f"{name} must be a whole number", f"/{name}")
    return value
