"""Batch generation pipeline: read manifest, generate per dish, persist.

Each dish yields exactly one :class:`OutputRecord`, and
:func:`handle_response` is the one place that classifies a response and
writes its output file. The backend answers each prompt with a
response (see :mod:`foonforge.client`), a failed request with an
``error`` response carrying the failure text, which is recorded as
``model_error`` without being parsed; a ``truncated`` response is
recorded as ``truncated``, also unparsed. Other responses have one
enclosing code fence stripped; those that then parse and validate as
task trees are written as pretty JSON, and everything else is preserved
verbatim as a text file together with the failure category. Records are reported in manifest order. The
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

from .client import FinishReason, ModelResponse, TextGenerator
from .errors import (
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
        raise ManifestError(f"{path} is not valid JSON: {exc}") from exc

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
            dish = _build_dish(
                _dish_fields(dish_raw, name, dish_pointer), dish_pointer, pointer + "/name"
            )
            if dish.name in seen_names:
                raise ManifestError(
                    f"duplicate dish {dish.name!r} (also at {seen_names[dish.name]})",
                    dish_pointer,
                )
            seen_names[dish.name] = dish_pointer
            dishes.append(dish)
    return InputManifest(tuple(dishes))


# a dish's raw (category, name, ingredients, tools), each of the right type
_DishFields = tuple[str, str, tuple[str, ...], tuple[str, ...]]


def _dish_fields(raw, category: str, pointer: str) -> _DishFields:
    """The raw fields of the dish at ``pointer``, type-checked; the
    category, which a manifest gives per category and a report per dish,
    is checked by the caller."""
    if not isinstance(raw, dict):
        raise ManifestError("dish must be an object", pointer)
    name = raw.get("name")
    if not isinstance(name, str):
        raise ManifestError("missing dish name", pointer + "/name")
    ingredients = _strings(
        raw.get("ingredients"), "missing ingredients list", pointer + "/ingredients"
    )
    tools = _strings(raw.get("tools", []), "tools must be an array of strings", pointer + "/tools")
    return category, name, ingredients, tools


def _build_dish(fields: _DishFields, pointer: str, category_pointer: str) -> DishSpec:
    """The dish at ``pointer``; a fault in its category is named at
    ``category_pointer``."""
    try:
        return DishSpec(*fields)
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

    Each call parses its own answer: no shipped run repeats an answer
    within itself, and the fixtures are built by
    ``scripts/build_fixtures.py``, so how often live answers repeat word
    for word is not known (:func:`load_run_report` shares the parses
    that repeat across the runs a command loads).
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
) -> RunReport:
    """Generate one recipe per dish and persist a run report.

    Every prompt is rendered, and the backend answers the whole batch,
    before anything is written, so a :class:`PromptError` leaves nothing
    on disk, and nor does anything the backend raises (a strict replay
    client's fixture miss among them). The backend's ``error``
    responses become ``model_error`` records; only manifest,
    configuration, and IO problems abort the run. Dishes are then
    classified and written one by one, in manifest order.

    Memory: once the backend has answered, each prompt is let go. The
    report is rendered by :func:`report_to_json` as pieces and written
    piece by piece, so no string or bytes object of the whole report is
    made. Every answer is still held until the report is written, since
    the records carry them. On a 2,000-dish example-based run (the
    ``manifest-2k`` benchmark workload, seed 77, a 3.7 MiB report), the
    traced Python heap of one ``generate`` peaked at 30.3 MiB when the
    prompts (7.4 MiB) were held to the end and the report was joined,
    copied and encoded before one write, and peaks at 15.6 MiB now,
    while the report's pieces are rendered.
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
    del bundles  # nothing reads a prompt once it is answered

    records = [
        handle_response(answer, dish, out_dir, rel_base=stem)
        for dish, stem, answer in zip(dishes, stems, answers)
    ]

    report = RunReport(strategy, tuple(records), started, _utc_now())
    write_text_atomic(out_dir / REPORT_FILENAME, report_to_json(report))
    log.info(
        "run complete: total=%d json_ok=%d text_fallback=%d",
        report.total,
        report.json_ok,
        report.text_fallback,
    )
    return report


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def report_to_json(report: RunReport) -> list[str]:
    """Deterministic report rendering, as the pieces of the file's text:
    the head, one piece per record, and a tail that ends with the final
    newline. Byte-identical across reruns except for the two timestamp
    fields.

    Written directly, as task trees are: the joined pieces are
    byte-identical to ``json.dumps(indent=2, ensure_ascii=False)`` of
    the report as a dict in the key order below, plus a newline, at a
    fraction of the pure-Python encoder's cost. Every piece is rendered
    here, eagerly, and none is joined: :func:`run_generation` hands the
    list to :func:`~foonforge.resources.write_text_atomic`, which writes
    it piece by piece, so no string or bytes object of the whole report
    is made. The pieces of a 2,000-record report (3.7 MiB) add their own
    size to the heap and no more; joined, the text had peaked at two
    copies while it was rendered and three while it was written (see
    :func:`run_generation`).
    """
    head = (
        f'{{\n  "strategy": {encode_string(report.strategy.value)},\n'
        f'  "total": {report.total},\n'
        f'  "json_ok": {report.json_ok},\n'
        f'  "text_fallback": {report.text_fallback},\n'
        f'  "started": {encode_string(report.started)},\n'
        f'  "finished": {encode_string(report.finished)},\n'
        f'  "records": ['
    )
    if not report.records:
        return [head, "]\n}\n"]
    first, *rest = report.records
    return [
        head + "\n    ",
        _record_json(first),
        *[",\n    " + _record_json(record) for record in rest],
        "\n  ]\n}\n",
    ]


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


def load_run_report(path: str | Path, *, shared: dict | None = None) -> RunReport:
    """Rebuild a report from ``run_report.json``, reading no other file.

    Each successful record's tree is rebuilt from its ``raw_text`` by
    :func:`_parse_answer`, the parse that classified it, so output files
    may be moved or edited without changing a score. Parsing validates
    the tree once, and scoring reuses that result. ``shared`` is the
    caller's command's map of what it has already built, so the records
    of this report and of every other report the command loads share
    it:

    - each ``raw_text``, exactly as stored, maps to its tree, so a text
      that several records hold is parsed and validated once;
    - each dish's stored (category, name, ingredients, tools), after
      their type checks, maps to its :class:`DishSpec`, so records whose
      dish fields are the same strings share one spec. Only a dish that
      built goes in, so a dish fault is named at each record's own
      pointer, and a dish that differs only in an unknown field is the
      same dish.

    What is not found is added. By default a call starts from an empty
    map. Cost: the nine shipped runs hold 210 successful records but 138
    distinct texts, and sharing them cut ``evaluate --compare`` over the
    nine, the ``replay-34`` benchmark workload's, from 24.4 to 20.4 ms of
    CPU (medians of 10 alternating pairs of 30 s runs on a shared 2-vCPU
    VM, every pair a win). The same runs build 34 dish specs where they
    held 306 dish records; with each (tree, dish) pair also scored once
    (see :mod:`foonforge.metrics`), the command fell from 20.3 to
    17.7 ms (-13.0%, 10 alternating pairs, every pair a win).

    Each dish is read by the manifest's dish reader. A file that is not
    JSON, or lacks a field, or holds one of the wrong type raises
    :class:`ManifestError`,
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
    # the payload lets go of the records, and each raw record is dropped
    # once it is built, so the report is not held twice
    del raw["records"]
    if shared is None:
        shared = {}
    built = []
    for i, entry in enumerate(entries):
        built.append(_load_record(entry, i, shared))
        entries[i] = None
    records = tuple(built)
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


def _load_record(entry, index: int, shared: dict) -> OutputRecord:
    pointer = f"/records/{index}"
    if not isinstance(entry, dict):
        raise ManifestError("record must be an object", pointer)
    dish_raw = _field(entry, "dish", pointer)
    if not isinstance(dish_raw, dict):
        raise ManifestError("dish must be an object", pointer + "/dish")
    category = _string_field(dish_raw, "category", pointer + "/dish")
    fields = _dish_fields(dish_raw, category, pointer + "/dish")
    dish = shared.get(fields)
    if dish is None:
        # only a dish that built goes in, so a fault is named at each record's own pointer
        dish = shared[fields] = _build_dish(
            fields, pointer + "/dish", pointer + "/dish/category"
        )
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
        tree = shared.get(raw_text)
        if tree is None:
            try:
                tree = shared[raw_text] = _parse_answer(raw_text)
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
