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
import re
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
from .foon.tree_json import parse_task_tree_json, serialize_task_tree_json
from .prompts import DishSpec, Strategy, render_for_dish

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
    _write_text(out_dir / REPORT_FILENAME, report_to_json(report) + "\n")
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
    except for the two timestamp fields."""
    payload = {
        "strategy": report.strategy.value,
        "total": report.total,
        "json_ok": report.json_ok,
        "text_fallback": report.text_fallback,
        "started": report.started,
        "finished": report.finished,
        "records": [
            {
                "dish": {
                    "category": r.dish.category,
                    "name": r.dish.name,
                    "ingredients": list(r.dish.ingredients),
                    "tools": list(r.dish.tools),
                },
                "strategy": r.strategy.value,
                "outcome": r.outcome.value,
                "fallback_reason": r.fallback_reason.value if r.fallback_reason else None,
                "output_path": r.output_path,
                "raw_text": r.raw_text,
            }
            for r in report.records
        ],
    }
    return json.dumps(payload, indent=2, ensure_ascii=False)


def load_run_report(path: str | Path) -> RunReport:
    """Rebuild a report from ``run_report.json``.

    Each successful record's tree is reparsed from its output file
    (resolved relative to the report's directory) so the report can be
    scored. Parsing validates the tree once, and scoring reuses that
    result. A file that is not JSON, or lacks a field, or holds one of
    the wrong type raises :class:`ManifestError`.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ManifestError(f"{path} is not valid JSON: {exc}") from exc
    try:
        records = tuple(_load_record(entry, path.parent) for entry in raw["records"])
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


def _load_record(entry: dict, out_dir: Path) -> OutputRecord:
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
        tree = parse_task_tree_json((out_dir / entry["output_path"]).read_text(encoding="utf-8"))
    reason_raw = entry.get("fallback_reason")
    return OutputRecord(
        dish,
        Strategy(entry["strategy"]),
        outcome,
        entry.get("raw_text", ""),
        entry["output_path"],
        tree=tree,
        fallback_reason=FallbackReason(reason_raw) if reason_raw else None,
    )
