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
from .prompts import CompiledTemplate, DishSpec, ExampleSet, Strategy
from .resources import read_text, write_text, write_text_atomic

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
    TRUNCATED = "truncated"


@dataclass(frozen=True)
class InputManifest:
    """The dish specs of the input JSON file, in manifest order."""

    specs: tuple[DishSpec, ...]

    def dishes(self) -> Iterator[DishSpec]:
        return iter(self.specs)


@dataclass(frozen=True, slots=True)
class OutputRecord:
    """The fate of one generation attempt: a validated tree, or the
    reason there is none. Its :attr:`outcome` follows from which.

    Built in one pass, as :class:`~foonforge.prompts.DishSpec` is: the
    one check (a tree or a reason, never both nor neither), then each
    field set once, by its slot's own setter. Cost: each ``generate``
    and ``evaluate`` builds one per dish, which shows in
    ``generate_s.p50`` and ``evaluate_s.p50`` of ``manifest-2k``; a
    frozen dataclass that set each field through
    ``object.__setattr__`` and checked in ``__post_init__`` cost more
    per record.
    """

    dish: DishSpec
    raw_text: str
    output_path: str
    tree: TaskTree | None = None
    fallback_reason: FallbackReason | None = None

    def __init__(
        self,
        dish: DishSpec,
        raw_text: str,
        output_path: str,
        tree: TaskTree | None = None,
        fallback_reason: FallbackReason | None = None,
    ):
        if (tree is None) == (fallback_reason is None):
            raise ValueError("a record carries either a tree or a fallback reason")
        _set_dish(self, dish)
        _set_raw_text(self, raw_text)
        _set_output_path(self, output_path)
        _set_tree(self, tree)
        _set_fallback_reason(self, fallback_reason)

    @property
    def outcome(self) -> Outcome:
        return Outcome.TEXT_FALLBACK if self.tree is None else Outcome.JSON_OK


_set_dish = OutputRecord.dish.__set__
_set_raw_text = OutputRecord.raw_text.__set__
_set_output_path = OutputRecord.output_path.__set__
_set_tree = OutputRecord.tree.__set__
_set_fallback_reason = OutputRecord.fallback_reason.__set__


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
    be unique across the whole manifest after normalization. Each dish is
    read by :func:`_dish`, the reader of a report's dishes too, so a dish
    fault is worded alike in both files, and a category's fault is worded
    as a dish's: an absent field is a ``missing field``, one of the wrong
    type ``must be a string`` or ``must be an array``, and a blank name
    ``must not be empty``.

    Cost: one pass over the dishes, linear in their texts. A dish's JSON
    pointer is built only when a fault is raised; what is left is
    building each :class:`DishSpec`. It shows in the per-layer
    ``pipeline.read_manifest.busy_s``, and in ``generate_s.p50`` of
    ``manifest-2k``, whose manifest holds 2,000 dishes.
    """
    raw = _read_object(Path(path), "manifest")
    categories_raw = raw.get("categories")
    if type(categories_raw) is not list or not categories_raw:
        words = _fault(raw, "categories", "categories must be a non-empty array")
        raise ManifestError(words, "/categories")

    dishes: list[DishSpec] = []
    # dish name -> (category index, dish index) of its first dish
    seen_names: dict[str, tuple[int, int]] = {}
    for ci, cat_raw in enumerate(categories_raw):
        pointer = f"/categories/{ci}"
        if not isinstance(cat_raw, dict):
            raise ManifestError("category must be an object", pointer)
        name = cat_raw.get("name")
        if type(name) is not str:
            words = _fault(cat_raw, "name", "name must be a string")
            raise ManifestError(words, pointer + "/name")
        if not name.strip():
            raise ManifestError("category name must not be empty", pointer + "/name")
        dishes_raw = cat_raw.get("dishes")
        if type(dishes_raw) is not list:
            words = _fault(cat_raw, "dishes", "dishes must be an array")
            raise ManifestError(words, pointer + "/dishes")
        for di, dish_raw in enumerate(dishes_raw):
            try:
                dish = _dish(dish_raw, name, None)
            except InvalidNodeError as exc:
                if exc.pointer == "/category":
                    raise ManifestError(str(exc), f"{pointer}/name") from exc
                raise ManifestError(str(exc), f"{pointer}/dishes/{di}{exc.pointer}") from exc
            if dish.name in seen_names:
                first = "/categories/{}/dishes/{}".format(*seen_names[dish.name])
                raise ManifestError(
                    f"duplicate dish {dish.name!r} (also at {first})", f"{pointer}/dishes/{di}"
                )
            seen_names[dish.name] = (ci, di)
            dishes.append(dish)
    return InputManifest(tuple(dishes))


def _read_object(path: Path, what: str) -> dict:
    """The JSON object the file at ``path`` holds: a file that is not
    UTF-8 text or not JSON, or whose ``what`` is not an object, raises
    :class:`ManifestError`."""
    try:
        raw = json.loads(read_text(path))
    except UnicodeDecodeError as exc:  # a ValueError too: caught first
        raise ManifestError(f"{path} is not UTF-8 text: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise ManifestError(f"{path} is not valid JSON: {exc}") from exc
    if type(raw) is not dict:
        raise ManifestError(f"{what} must be a JSON object")
    return raw


def _fault(holder: dict, name: str, words: str) -> str:
    """``words``, the fault of field ``name`` of ``holder``, unless the
    field is absent: then the fault is that it is missing."""
    return words if name in holder else f"missing field {name!r}"


def _dish(raw, category: str | None, shared: dict | None) -> DishSpec:
    """The dish ``raw`` holds, in a manifest or a report.

    A manifest gives the ``category`` of its dishes; a report's dish
    holds its own, read when ``category`` is None. A report's
    ``shared`` maps each (category, name, ingredients, tools) that built
    to its :class:`DishSpec`, so dishes whose fields are the same
    strings share one spec. Only a dish that built goes in, so a fault
    is named at each dish's own pointer. A manifest shares nothing (its
    dish names are unique) and gives None.

    A fault raises :class:`InvalidNodeError` at a pointer relative to
    the dish, as :class:`DishSpec` does, in this order: the dish, its
    category, name, ingredients and each ingredient, tools (which may be
    absent) and each tool, then :class:`DishSpec`'s own checks. An
    absent field is a ``missing field``, and one of the wrong type
    ``must be a string`` or ``must be an array``. A list item that is
    not a string is caught by :class:`DishSpec`'s join (or the shared
    key's hash), and the lists are walked only to name it.
    """
    if type(raw) is not dict:
        raise InvalidNodeError("dish must be an object")
    if category is None:
        category = raw.get("category")
        if type(category) is not str:
            words = _fault(raw, "category", "category must be a string")
            raise InvalidNodeError(words, "/category")
    name = raw.get("name")
    if type(name) is not str:
        raise InvalidNodeError(_fault(raw, "name", "name must be a string"), "/name")
    ingredients = raw.get("ingredients")
    if type(ingredients) is not list:
        raise InvalidNodeError(
            _fault(raw, "ingredients", "ingredients must be an array"), "/ingredients"
        )
    tools = raw.get("tools", [])
    if type(tools) is not list:
        _refuse_non_string(ingredients, "/ingredients")  # read before the tools
        raise InvalidNodeError("tools must be an array", "/tools")
    fields = (category, name, tuple(ingredients), tuple(tools))
    try:
        if shared is None:
            return DishSpec(*fields)
        dish = shared.get(fields)
        if dish is None:
            dish = shared[fields] = DishSpec(*fields)
    except TypeError:
        # a text that is not a string: unhashable, or refused by the join
        _refuse_non_string(ingredients, "/ingredients")
        _refuse_non_string(tools, "/tools")
        raise
    return dish


def _refuse_non_string(values: list, pointer: str) -> None:
    for i, value in enumerate(values):
        if type(value) is not str:
            raise InvalidNodeError("must be a string", f"{pointer}/{i}")


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


def _parse_answer(text: str, nodes: dict | None) -> TaskTree:
    """The one parse of an answer: strip one enclosing code fence, then
    parse and validate the task tree, with the command's memo of built
    ``nodes``. ``generate`` classifies with it and ``evaluate`` rebuilds
    trees with it, so the two cannot disagree."""
    return parse_task_tree_json(strip_code_fence(text), nodes=nodes)


def handle_response(
    response: ModelResponse,
    dish: DishSpec,
    out_dir: str | Path,
    *,
    rel_base: str | None = None,
    nodes: dict | None = None,
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
    that repeat across the runs a command loads). The nodes and verbs
    of the answers do repeat: ``nodes`` is the run's memo of them,
    which :func:`run_generation` passes to every call, so each distinct
    raw node is built and checked once per run (see
    :mod:`foonforge.foon.tree_json`). By default a call's parse makes
    its own.
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
            tree = _parse_answer(text, nodes)
        except TaskTreeJsonError:
            reason = FallbackReason.JSON_SYNTAX
        except TaskTreeSchemaError:
            reason = FallbackReason.SCHEMA
        except TaskTreeStructureError:
            reason = FallbackReason.STRUCTURAL
        else:
            rel_path = f"{rel_base}.json"
            _write_text(f"{out_dir}/{rel_path}", serialize_task_tree_json(tree) + "\n")
            return OutputRecord(dish, text, rel_path, tree)

    rel_path = f"{rel_base}.txt"
    _write_text(f"{out_dir}/{rel_path}", text)
    return OutputRecord(dish, text, rel_path, None, reason)


def _write_text(path: str, content: str) -> None:
    """Write a dish's output file with :func:`~foonforge.resources.write_text`,
    creating its directory on first use.

    Trying the write first costs no ``mkdir`` per file. These files are
    written in place: a temp file and a rename per dish would cost more
    than the write itself. Opening each category directory once and
    writing with ``dir_fd=`` cost the same, so no directory handle is
    kept.
    """
    try:
        write_text(path, content)
    except FileNotFoundError:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        write_text(path, content)


def _resolve_stems(manifest: InputManifest) -> list[str]:
    """Distinct output stems, one per dish in manifest order.

    A dish's own stem is its sanitized category and name, as
    :func:`_output_stem` gives. The first dish of a stem keeps it; each
    later one takes the next suffix, ``_2``, ``_3``, ..., above the last
    one that stem was given, skipping any that is another dish's own
    stem. Two dishes never share a file: a suffixed stem is no dish's own
    stem, and suffixes of two different stems never give one name, since
    a suffix holds no underscore. A stem that clashes with nothing stays
    as it is. Assignment depends only on the manifest, never on execution
    order, so reruns land on identical paths. Cost: one sanitize per
    dish name and one per category, whose folder is sanitized once,
    not once per dish, then one set test per suffix tried.
    """
    folders: dict[str, str] = {}
    own: list[str] = []
    for dish in manifest.dishes():
        folder = folders.get(dish.category)
        if folder is None:
            folder = folders[dish.category] = sanitize_filename(dish.category)
        own.append(f"{folder}/{sanitize_filename(dish.name)}")
    taken = set(own)
    stems: list[str] = []
    last: dict[str, int] = {}  # the last suffix each repeated stem was given
    for stem in own:
        count = last.get(stem)
        if count is None:
            last[stem] = 1
            stems.append(stem)
            continue
        count += 1
        while f"{stem}_{count}" in taken:
            count += 1
        last[stem] = count
        stems.append(f"{stem}_{count}")
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

    The run's template is compiled once (:class:`CompiledTemplate`),
    which checks the strategy's input and the template, and renders
    every dish's prompt; a manifest with no dishes compiles nothing.
    Every prompt is rendered, and the backend answers the whole batch,
    before anything is written, so a :class:`PromptError` leaves nothing
    on disk, and nor does anything the backend raises (a strict replay
    client's fixture miss among them). The backend's ``error``
    responses become ``model_error`` records; only manifest,
    configuration, and IO problems abort the run. Dishes are then
    classified and written one by one, in manifest order.

    Cost: one template compile per run, then one render, one answer,
    one classification and one file write per dish, with prompts,
    responses and records each built in one pass, and one build per
    distinct raw node and verb of the run's answers, whose parses share
    one memo (see :func:`handle_response`); ``generate_s.p50`` shows it
    (see ``BENCH_prompt_compile.json``).

    Memory: once the backend has answered, each prompt is let go. The
    report is rendered by :func:`report_to_json` as pieces and written
    piece by piece, so no string or bytes object of the whole report is
    made. Every answer is still held until the report is written, since
    the records carry them; the heap peaks while the report's pieces
    are rendered (see ``BENCH_report_pieces.json``).
    """
    out_dir = Path(out_dir)

    dishes = list(manifest.dishes())
    bundles = []
    if dishes:
        render = CompiledTemplate(
            strategy, examples=examples, instructions=instructions, template=template
        ).render
        bundles = [render(dish) for dish in dishes]
    stems = _resolve_stems(manifest)

    started = _utc_now()
    answers = backend.generate_all(bundles)
    del bundles  # nothing reads a prompt once it is answered

    nodes: dict = {}  # built nodes and verbs, for this run's answers only
    records = [
        handle_response(answer, dish, out_dir, rel_base=stem, nodes=nodes)
        for dish, stem, answer in zip(dishes, stems, answers)
    ]

    report = RunReport(strategy, tuple(records), started, _utc_now())
    write_text_atomic(out_dir / REPORT_FILENAME, report_to_json(report))
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


def load_run_report(
    path: str | Path, *, shared: dict | None = None, nodes: dict | None = None
) -> RunReport:
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

    ``nodes`` is the command's memo of built nodes and verbs, which
    every parse of every report it loads reads and adds to, so the
    trees share each node they mention (see
    :mod:`foonforge.foon.tree_json`). It is its own map, since a verb's
    key is its raw text, as an answer's is in ``shared``.

    What is not found is added. By default a call starts from empty
    maps.

    Each record is read once, by :func:`_read_record`, which builds no
    pointer for a sound record.

    Cost: one ``json.loads`` of the file, one read per record, one parse
    and validation per distinct answer text, one build per distinct raw
    node and verb, and one build per distinct dish. Scoring what it
    loads then walks each distinct tree once and makes four set tests
    per distinct (tree, dish) pair (see
    :mod:`foonforge.metrics`), so a text that many dishes repeat is
    parsed once and walked once. ``evaluate_s.p50`` shows the whole
    command, and ``metrics.score.busy_s`` its scoring.

    A file that is not JSON, or lacks a field, or holds one of the wrong
    type raises :class:`ManifestError`, as do counts that disagree with
    the records, a stored ``outcome`` that disagrees with its
    ``fallback_reason``, and a successful record whose ``raw_text`` is
    not a valid task tree. Each of these names its field by a pointer,
    such as ``/records``, ``/records/3/output_path`` or
    ``/records/3/dish/ingredients/1``; ``outcome`` against
    ``fallback_reason`` is named at ``/records/<i>/fallback_reason``,
    and a count that disagrees at its own pointer, such as ``/total``.
    The first fault is named, in this order: ``records``, each record,
    ``strategy``, ``started`` and ``finished``, then each count. A count
    must be a JSON integer, not a float or a bool. Only a report that is
    not an object is refused at ``/``. ``started`` and ``finished`` may
    be absent. Unknown fields are ignored at report, record and dish
    level alike, as the manifest reader and
    :func:`~foonforge.client.decode_response` ignore theirs, so the
    per-record ``strategy`` that older versions wrote needs no special
    case.
    """
    raw = _read_object(Path(path), "run report")
    entries = raw.get("records")
    if type(entries) is not list:
        raise ManifestError(_fault(raw, "records", "records must be an array"), "/records")
    # the payload lets go of the records, and each raw record is dropped
    # once it is built, so the report is not held twice
    del raw["records"]
    if shared is None:
        shared = {}
    if nodes is None:
        nodes = {}
    built = []
    for i, entry in enumerate(entries):
        built.append(_read_record(entry, i, shared, nodes))
        entries[i] = None
    records = tuple(built)
    try:
        strategy = Strategy(raw.get("strategy"))
    except ValueError as exc:
        raise ManifestError(_fault(raw, "strategy", str(exc)), "/strategy") from exc
    started, finished = raw.get("started", ""), raw.get("finished", "")
    for name, value in (("started", started), ("finished", finished)):
        if type(value) is not str:
            raise ManifestError(f"{name} must be a string", f"/{name}")
    report = RunReport(strategy, records, started, finished)
    for name, count in (
        ("total", report.total),
        ("json_ok", report.json_ok),
        ("text_fallback", report.text_fallback),
    ):
        stored = raw.get(name)
        # a bool is an int to Python, and 1.0 == 1, but neither is a count
        if type(stored) is not int:
            raise ManifestError(_fault(raw, name, f"{name} must be a whole number"), f"/{name}")
        if stored != count:
            raise ManifestError(
                f"{name} {stored} is inconsistent with its records ({count})", f"/{name}"
            )
    return report


_OUTCOMES = {outcome.value: outcome for outcome in Outcome}
_REASONS = {None: None, **{reason.value: reason for reason in FallbackReason}}


def _read_record(entry, index: int, shared: dict, nodes: dict) -> OutputRecord:
    """The record ``entry`` holds, the ``index``-th of its report.

    A fault raises :class:`ManifestError` at its pointer, which is built
    only then. The first fault is named, in this order: the record, its
    dish (see :func:`_dish`), ``outcome``, ``fallback_reason``, their
    agreement, ``raw_text``, its parse, ``output_path``. A sound record
    is read with exact type checks, and ``outcome`` and
    ``fallback_reason`` are looked up by value. Dishes and trees are
    shared through ``shared``, and nodes through ``nodes`` (see
    :func:`load_run_report`).
    """
    if type(entry) is not dict:
        raise ManifestError("record must be an object", f"/records/{index}")
    if "dish" not in entry:
        raise ManifestError("missing field 'dish'", f"/records/{index}/dish")
    try:
        dish = _dish(entry["dish"], None, shared)
    except InvalidNodeError as exc:
        raise ManifestError(str(exc), f"/records/{index}/dish{exc.pointer}") from exc
    try:
        outcome = _OUTCOMES[entry["outcome"]]
    except (KeyError, TypeError):
        words = f"{entry.get('outcome')!r} is not a valid Outcome"
        raise ManifestError(_fault(entry, "outcome", words), f"/records/{index}/outcome") from None
    reason_raw = entry.get("fallback_reason")
    try:
        reason = _REASONS[reason_raw]
    except (KeyError, TypeError):
        raise ManifestError(
            f"{reason_raw!r} is not a valid FallbackReason", f"/records/{index}/fallback_reason"
        ) from None
    if (outcome is Outcome.JSON_OK) != (reason is None):
        raise ManifestError(
            f"outcome {outcome.value} disagrees with fallback_reason {json.dumps(reason_raw)}",
            f"/records/{index}/fallback_reason",
        )
    raw_text = entry.get("raw_text")
    if type(raw_text) is not str:
        raise ManifestError(
            _fault(entry, "raw_text", "raw_text must be a string"), f"/records/{index}/raw_text"
        )
    tree = None
    if reason is None:
        tree = shared.get(raw_text)
        if tree is None:
            try:
                tree = shared[raw_text] = _parse_answer(raw_text, nodes)
            except TaskTreeError as exc:
                raise ManifestError(
                    f"JSON_OK record is not a task tree: {exc}", f"/records/{index}/raw_text"
                ) from exc
    output_path = entry.get("output_path")
    if type(output_path) is not str:
        raise ManifestError(
            _fault(entry, "output_path", "output_path must be a string"),
            f"/records/{index}/output_path",
        )
    return OutputRecord(dish, raw_text, output_path, tree, reason)
