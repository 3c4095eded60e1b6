from __future__ import annotations

import json
import os
import random
import stat
import weakref

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from foonforge import pipeline
from foonforge.cli import main
from foonforge.client import FinishReason, ModelResponse, ReplayClient
from foonforge.errors import FixtureMissError, ManifestError, PromptError
from foonforge.foon.tree_json import parse_task_tree_json, serialize_task_tree_json
from foonforge.foon.validation import validate_task_tree
from foonforge.pipeline import (
    REPORT_FILENAME,
    FallbackReason,
    Outcome,
    OutputRecord,
    RunReport,
    load_run_report,
    read_manifest,
    run_generation,
    sanitize_filename,
    report_to_json,
    strip_code_fence,
    handle_response,
)
from foonforge.prompts import DishSpec, Strategy, render_for_dish
from foonforge.resources import data_path

from .graphgen import random_task_tree, record_report_writes, reference_report_json


@pytest.fixture()
def dish() -> DishSpec:
    return DishSpec("pasta", "mac and cheese", ("macaroni", "cheese"), ("pot",))


def _tree_response(tree) -> ModelResponse:
    return ModelResponse(serialize_task_tree_json(tree))


def test_read_sample_manifest(sample_manifest_path):
    manifest = read_manifest(sample_manifest_path)
    assert len(manifest.specs) == 3
    names = [dish.name for dish in manifest.dishes()]
    assert names == ["mac and cheese", "spaghetti aglio e olio", "omelette"]


def test_duplicate_dish_rejected(tmp_path):
    payload = {
        "categories": [
            {"name": "a", "dishes": [{"name": "soup", "ingredients": ["x"]},
                                     {"name": "Pasta", "ingredients": ["x"]}]},
            {"name": "b", "dishes": [{"name": "pasta ", "ingredients": ["y"]}]},
        ]
    }
    path = tmp_path / "m.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ManifestError) as exc_info:
        read_manifest(path)
    assert str(exc_info.value) == (
        "/categories/1/dishes/0: duplicate dish 'pasta' (also at /categories/0/dishes/1)"
    )


@pytest.mark.parametrize(
    "payload, fragment",
    [
        ({"categories": []}, "/categories"),
        ({"categories": [{"name": "a", "dishes": [{"name": "x"}]}]}, "/categories/0/dishes/0/ingredients"),
        ({"categories": [{"dishes": []}]}, "/categories/0/name"),
        ([], "manifest must be"),
        ({"categories": [{"name": "a", "dishes": [{"name": " ", "ingredients": ["x"]}]}]},
         "/categories/0/dishes/0/name: "),
        ({"categories": [{"name": "a", "dishes": [{"name": "x", "ingredients": []}]}]},
         "/categories/0/dishes/0/ingredients: "),
        ({"categories": [{"name": "a", "dishes": [{"name": "x", "ingredients": ["y", 5]}]}]},
         "/categories/0/dishes/0/ingredients/1: "),
        ({"categories": [{"name": "a", "dishes": [{"name": "x", "ingredients": ["y", " "]}]}]},
         "/categories/0/dishes/0/ingredients/1: "),
        ({"categories": [{"name": "a", "dishes": [{"name": "x", "ingredients": ["y", "Y"]}]}]},
         "/categories/0/dishes/0/ingredients/1: "),
        ({"categories": [{"name": "a", "dishes": [{"name": "x", "ingredients": ["y"],
                                                  "tools": ["pot", None]}]}]},
         "/categories/0/dishes/0/tools/1: "),
        ({"categories": ["soups"]}, "/categories/0: category must be an object"),
        ({"categories": [{"name": "a", "dishes": {}}]}, "/categories/0/dishes: dishes must be an array"),
        ({"categories": [{"name": "a", "dishes": ["broth"]}]},
         "/categories/0/dishes/0: dish must be an object"),
    ],
)
def test_manifest_schema_errors_carry_pointers(tmp_path, payload, fragment):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ManifestError) as exc_info:
        read_manifest(path)
    assert fragment in str(exc_info.value)


def test_manifest_json_syntax_error(tmp_path):
    path = tmp_path / "m.json"
    path.write_text("{nope", encoding="utf-8")
    with pytest.raises(ManifestError, match="not valid JSON"):
        read_manifest(path)


@pytest.mark.parametrize(
    "raw, expected",
    [
        ("Mac & Cheese", "mac_and_cheese"),
        ("  Crème Brûlée!! ", "cr_me_br_l_e"),
        ("", "unnamed"),
        ("___", "unnamed"),
        ("a" * 300, "a" * 120),
    ],
)
def test_sanitize_filename_rules(raw, expected):
    assert sanitize_filename(raw) == expected


@given(st.text(max_size=200))
def test_sanitize_filename_idempotent(raw):
    once = sanitize_filename(raw)
    assert sanitize_filename(once) == once
    assert len(once) <= 120


def test_strip_code_fence_variants():
    assert strip_code_fence('```json\n{"a": 1}\n```') == '{"a": 1}'
    assert strip_code_fence("```\ntext\n```") == "text"
    assert strip_code_fence("no fence") == "no fence"
    assert strip_code_fence("before ```x``` after") == "before ```x``` after"


def test_handle_response_valid_tree(tmp_path, dish):
    tree = parse_task_tree_json(
        json.dumps(
            {
                "goal": {"name": "mac and cheese"},
                "functional_units": [
                    {
                        "inputs": [{"name": "macaroni"}, {"name": "cheese"}],
                        "motion": "mix",
                        "outputs": [{"name": "mac and cheese"}],
                    }
                ],
            }
        )
    )
    record = handle_response(_tree_response(tree), dish, tmp_path)
    assert record.outcome is Outcome.JSON_OK
    assert record.output_path == "pasta/mac_and_cheese.json"
    written = (tmp_path / record.output_path).read_text(encoding="utf-8")
    assert parse_task_tree_json(written) == tree


def test_handle_response_strips_one_code_fence(tmp_path, dish):
    tree = random_task_tree(random.Random(0))
    fenced = f"```json\n{serialize_task_tree_json(tree)}\n```"
    ok = handle_response(ModelResponse(fenced), dish, tmp_path / "once")
    assert ok.outcome is Outcome.JSON_OK
    assert ok.tree == tree
    twice = handle_response(ModelResponse(f"```\n{fenced}\n```"), dish, tmp_path / "twice")
    assert twice.outcome is Outcome.TEXT_FALLBACK
    assert twice.fallback_reason is FallbackReason.JSON_SYNTAX


@pytest.mark.parametrize(
    "text, reason",
    [
        ("Sure! Here is your recipe: boil and enjoy.", FallbackReason.JSON_SYNTAX),
        ("[1, 2, 3]", FallbackReason.SCHEMA),
        ('{"functional_units": []}', FallbackReason.SCHEMA),
        (
            json.dumps(
                {
                    "goal": {"name": "phantom"},
                    "functional_units": [
                        {"inputs": [{"name": "a"}], "motion": "mix", "outputs": [{"name": "b"}]}
                    ],
                }
            ),
            FallbackReason.STRUCTURAL,
        ),
    ],
)
def test_handle_response_fallback_categories(tmp_path, dish, text, reason):
    record = handle_response(ModelResponse(text), dish, tmp_path)
    assert record.outcome is Outcome.TEXT_FALLBACK
    assert record.fallback_reason is reason
    assert record.output_path.endswith(".txt")
    assert (tmp_path / record.output_path).read_text(encoding="utf-8") == text


@pytest.mark.parametrize(
    "text", ["[" * 100_000, '{"goal": ' * 100_000], ids=["arrays", "objects"]
)
def test_handle_response_deeply_nested_json_is_a_syntax_fallback(tmp_path, dish, text):
    record = handle_response(ModelResponse(text), dish, tmp_path)
    assert record.outcome is Outcome.TEXT_FALLBACK
    assert record.fallback_reason is FallbackReason.JSON_SYNTAX
    assert (tmp_path / record.output_path).read_text(encoding="utf-8") == text


@pytest.mark.parametrize(
    "text", ["", "model error: timeout", '{"goal": {"name": "x"}, "functional_units": []}']
)
def test_error_response_is_a_model_error_and_is_not_parsed(tmp_path, dish, text):
    tree_text = serialize_task_tree_json(random_task_tree(random.Random(3)))
    for candidate in (text, tree_text):
        record = handle_response(ModelResponse(candidate, FinishReason.ERROR), dish, tmp_path)
        assert record.outcome is Outcome.TEXT_FALLBACK
        assert record.fallback_reason is FallbackReason.MODEL_ERROR
        assert (tmp_path / record.output_path).read_text(encoding="utf-8") == candidate


_VALID_TREE = serialize_task_tree_json(random_task_tree(random.Random(5)))
_SURROGATE_NAME_TREE = json.dumps(
    {
        "goal": {"name": "x\ud800"},
        "functional_units": [
            {"inputs": [{"name": "a"}], "motion": "mix", "outputs": [{"name": "x\ud800"}]}
        ],
    }
)


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    text=st.one_of(
        st.text(max_size=300),
        st.sampled_from(['{"goal": {}, "functional_units": [{}]}', "```json\n[]\n```"]),
    ),
    finish=st.sampled_from(FinishReason),
)
@example(text="1" * 5000, finish=FinishReason.COMPLETE)
@example(text=_SURROGATE_NAME_TREE, finish=FinishReason.COMPLETE)
@example(text="[" * 100_000, finish=FinishReason.COMPLETE)
@example(text="[" * 100_000, finish=FinishReason.TRUNCATED)
@example(text=_VALID_TREE, finish=FinishReason.TRUNCATED)
@example(text=f"```json\n{_VALID_TREE}\n```", finish=FinishReason.TRUNCATED)
def test_handle_response_classifies_any_response(tmp_path, dish, text, finish):
    assume(text or finish is FinishReason.ERROR)
    response = ModelResponse(text, finish)
    record = handle_response(response, dish, tmp_path)
    assert isinstance(record, OutputRecord)
    assert record.raw_text == text
    assert (record.fallback_reason is FallbackReason.MODEL_ERROR) == (finish is FinishReason.ERROR)
    assert (record.fallback_reason is FallbackReason.TRUNCATED) == (
        finish is FinishReason.TRUNCATED
    )
    if record.outcome is Outcome.TEXT_FALLBACK:
        assert (tmp_path / record.output_path).read_bytes().decode("utf-8") == text


def test_prompt_error_leaves_nothing_on_disk(tmp_path, sample_manifest_path):
    manifest = read_manifest(sample_manifest_path)
    for strategy in (Strategy.EXAMPLE_BASED, Strategy.USER_GUIDED):
        with pytest.raises(PromptError):
            run_generation(manifest, strategy, ReplayClient({}), tmp_path / "out")
        assert not (tmp_path / "out").exists()


def test_deeply_nested_response_does_not_abort_the_batch(tmp_path, sample_manifest_path):
    manifest = read_manifest(sample_manifest_path)
    tree = random_task_tree(random.Random(2))
    texts = [serialize_task_tree_json(tree), "[" * 100_000, serialize_task_tree_json(tree)]
    fixture = _fixture_for(manifest, Strategy.CONTEXTUAL, texts)
    report = run_generation(manifest, Strategy.CONTEXTUAL, ReplayClient(fixture), tmp_path)
    assert [r.fallback_reason for r in report.records] == [None, FallbackReason.JSON_SYNTAX, None]


def test_output_record_consistency_enforced(dish):
    tree = random_task_tree(random.Random(2))
    assert OutputRecord(dish, "", "x.json", tree=tree).outcome is Outcome.JSON_OK
    reason = FallbackReason.SCHEMA
    assert OutputRecord(dish, "", "x.txt", fallback_reason=reason).outcome is Outcome.TEXT_FALLBACK
    with pytest.raises(ValueError):
        OutputRecord(dish, "", "x.json")
    with pytest.raises(ValueError):
        OutputRecord(dish, "", "x.json", tree=tree, fallback_reason=reason)


def _manifest_from(tmp_path, payload):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return read_manifest(path)


def _fixture_for(manifest, strategy, responses, **render_kwargs):
    fixture = {}
    for dish, text in zip(manifest.dishes(), responses):
        bundle = render_for_dish(strategy, dish, **render_kwargs)
        fixture[bundle.context_hash] = {"text": text, "finish_reason": "complete"}
    return fixture


def test_run_generation_single_dish(tmp_path, dish):
    manifest = _manifest_from(
        tmp_path,
        {
            "categories": [
                {
                    "name": "pasta",
                    "dishes": [
                        {"name": "mac and cheese", "ingredients": ["macaroni", "cheese"], "tools": ["pot"]}
                    ],
                }
            ]
        },
    )
    tree = random_task_tree(random.Random(1))
    fixture = _fixture_for(
        manifest, Strategy.USER_GUIDED, [serialize_task_tree_json(tree)], instructions="hi"
    )
    report = run_generation(
        manifest,
        Strategy.USER_GUIDED,
        ReplayClient(fixture),
        tmp_path / "out",
        instructions="hi",
    )
    assert (report.total, report.json_ok, report.text_fallback) == (1, 1, 0)
    assert (tmp_path / "out" / "run_report.json").is_file()
    assert (tmp_path / "out" / report.records[0].output_path).is_file()


def test_empty_fixture_yields_model_error_fallbacks(tmp_path, sample_manifest_path):
    manifest = read_manifest(sample_manifest_path)
    report = run_generation(
        manifest,
        Strategy.CONTEXTUAL,
        ReplayClient({}),
        tmp_path / "out",
    )
    assert report.total == 3
    assert report.json_ok == 0
    for dish, record in zip(manifest.dishes(), report.records):
        assert record.fallback_reason is FallbackReason.MODEL_ERROR
        bundle = render_for_dish(Strategy.CONTEXTUAL, dish)
        expected = f"model error: fixture miss\n(prompt hash {bundle.context_hash})"
        assert record.raw_text == expected
        assert (tmp_path / "out" / record.output_path).read_text(encoding="utf-8") == expected


def test_strict_replay_aborts_on_miss(tmp_path, sample_manifest_path):
    manifest = read_manifest(sample_manifest_path)
    with pytest.raises(FixtureMissError):
        run_generation(
            manifest,
            Strategy.CONTEXTUAL,
            ReplayClient({}, strict=True),
            tmp_path / "out",
        )
    assert not (tmp_path / "out").exists()


def test_filename_collisions_get_suffixes(tmp_path):
    manifest = _manifest_from(
        tmp_path,
        {
            "categories": [
                {
                    "name": "snacks",
                    "dishes": [
                        {"name": "pa sta", "ingredients": ["a"]},
                        {"name": "pa-sta", "ingredients": ["b"]},
                    ],
                }
            ]
        },
    )
    report = run_generation(
        manifest, Strategy.CONTEXTUAL, ReplayClient({}), tmp_path / "out"
    )
    assert [r.output_path for r in report.records] == [
        "snacks/pa_sta.txt",
        "snacks/pa_sta_2.txt",
    ]


@pytest.mark.parametrize(
    "names, stems",
    [
        # the second "egg pie" may not take "egg_pie_2", which a later dish holds
        (["egg pie", "egg-pie", "egg pie 2"], ["c/egg_pie", "c/egg_pie_3", "c/egg_pie_2"]),
        (["egg pie 2", "egg-pie", "egg pie"], ["c/egg_pie_2", "c/egg_pie", "c/egg_pie_3"]),
        # a suffix moves past every stem taken, and the next repeat goes on from it
        (
            ["a", "a!", "a 2", "a 3", "a?", "b"],
            ["c/a", "c/a_4", "c/a_2", "c/a_3", "c/a_5", "c/b"],
        ),
    ],
)
def test_suffixed_stems_never_take_another_dishs_stem(tmp_path, names, stems):
    dishes = [{"name": name, "ingredients": ["x"]} for name in names]
    manifest = _manifest_from(tmp_path, {"categories": [{"name": "C", "dishes": dishes}]})
    assert pipeline._resolve_stems(manifest) == stems
    report = run_generation(manifest, Strategy.CONTEXTUAL, ReplayClient({}), tmp_path / "out")
    assert [r.output_path for r in report.records] == [f"{stem}.txt" for stem in stems]
    # every dish keeps its own file
    for record in report.records:
        written = (tmp_path / "out" / record.output_path).read_text(encoding="utf-8")
        assert written == record.raw_text


def _normalized_report(path) -> dict:
    data = json.loads(path.read_text(encoding="utf-8"))
    data.pop("started")
    data.pop("finished")
    return data


def test_replay_runs_deterministic_modulo_timestamps(tmp_path, sample_manifest_path):
    manifest = read_manifest(sample_manifest_path)
    trees = [random_task_tree(random.Random(i)) for i in range(3)]
    responses = [serialize_task_tree_json(t) for t in trees[:2]] + ["not json"]
    fixture = _fixture_for(manifest, Strategy.CONTEXTUAL, responses)

    reports = []
    for name in ("one", "two"):
        out = tmp_path / name
        run_generation(manifest, Strategy.CONTEXTUAL, ReplayClient(fixture), out)
        reports.append(_normalized_report(out / "run_report.json"))
    assert reports[0] == reports[1]

    files_one = sorted(p.relative_to(tmp_path / "one") for p in (tmp_path / "one").rglob("*.json"))
    files_two = sorted(p.relative_to(tmp_path / "two") for p in (tmp_path / "two").rglob("*.json"))
    assert files_one == files_two
    for rel in files_one:
        if rel.name == "run_report.json":
            continue
        assert (tmp_path / "one" / rel).read_bytes() == (tmp_path / "two" / rel).read_bytes()


def test_report_round_trip_and_tree_loading(tmp_path, sample_manifest_path):
    manifest = read_manifest(sample_manifest_path)
    trees = [random_task_tree(random.Random(i + 10)) for i in range(3)]
    fixture = _fixture_for(
        manifest, Strategy.CONTEXTUAL, [serialize_task_tree_json(t) for t in trees]
    )
    out = tmp_path / "out"
    report = run_generation(manifest, Strategy.CONTEXTUAL, ReplayClient(fixture), out)
    loaded = load_run_report(out / "run_report.json")
    assert loaded.strategy is Strategy.CONTEXTUAL
    assert (loaded.total, loaded.json_ok) == (report.total, report.json_ok)
    for record in loaded.records:
        if record.outcome is Outcome.JSON_OK:
            assert record.tree is not None
            assert validate_task_tree(record.tree).ok


def test_loaded_trees_equal_the_written_output_files(shipped_runs):
    checked = 0
    for path in shipped_runs:
        for record in load_run_report(path).records:
            if record.outcome is Outcome.JSON_OK:
                written = (path.parent / record.output_path).read_text(encoding="utf-8")
                assert record.tree == parse_task_tree_json(written)
                checked += 1
    assert checked == sum(load_run_report(path).json_ok for path in shipped_runs) > 0


_WRAPPINGS = [
    lambda text: text,
    lambda text: json.dumps(json.loads(text)),
    lambda text: f"```json\n{text}\n```",
    lambda text: f"\n  ```\n{text}\n```  \n",
    lambda text: f"  {text}\n",
]


def test_loaded_random_trees_equal_the_written_output_files(tmp_path, acceptance_manifest_path):
    manifest = read_manifest(acceptance_manifest_path)
    rng = random.Random(2405)
    responses = [
        _WRAPPINGS[i % len(_WRAPPINGS)](serialize_task_tree_json(random_task_tree(rng)))
        for i, _ in enumerate(manifest.dishes())
    ]
    out = tmp_path / "out"
    fixture = _fixture_for(manifest, Strategy.CONTEXTUAL, responses)
    run_generation(manifest, Strategy.CONTEXTUAL, ReplayClient(fixture), out)
    loaded = load_run_report(out / REPORT_FILENAME)
    assert loaded.json_ok == loaded.total == len(responses)
    for record, response in zip(loaded.records, responses):
        assert record.raw_text == response
        written = (out / record.output_path).read_text(encoding="utf-8")
        assert record.tree == parse_task_tree_json(written)


def test_truncated_answers_are_fallbacks_that_evaluate_reads_back(tmp_path, sample_manifest_path):
    manifest = read_manifest(sample_manifest_path)
    tree_text = serialize_task_tree_json(random_task_tree(random.Random(6)))
    fixture = _fixture_for(manifest, Strategy.CONTEXTUAL, [tree_text] * 3)
    first = next(iter(fixture))
    fixture[first] = {**fixture[first], "finish_reason": "truncated"}
    out = tmp_path / "out"
    report = run_generation(manifest, Strategy.CONTEXTUAL, ReplayClient(fixture), out)
    reasons = [r.fallback_reason for r in report.records]
    assert reasons == [FallbackReason.TRUNCATED, None, None]
    assert (out / report.records[0].output_path).read_text(encoding="utf-8") == tree_text
    assert '"fallback_reason": "truncated"' in (out / REPORT_FILENAME).read_text(encoding="utf-8")
    assert load_run_report(out / REPORT_FILENAME).records == report.records


def test_counting_identity_always_holds(tmp_path, sample_manifest_path):
    manifest = read_manifest(sample_manifest_path)
    fixture = _fixture_for(manifest, Strategy.CONTEXTUAL, ["junk", "junk", "junk"])
    report = run_generation(manifest, Strategy.CONTEXTUAL, ReplayClient(fixture), tmp_path / "o")
    assert report.total == report.json_ok + report.text_fallback == len(report.records)


_MALFORMED_REPORTS = [
    (b'{"records": [', "not valid JSON"),
    (b'\xff\xfe{"records": []}', "not UTF-8 text"),
    (b"{}", "missing field 'records'"),
    (b'{"records": {"a": 1}, "strategy": "contextual"}', "^/records: "),
    (b'{"records": [{"dish": []}], "strategy": "contextual"}', "^/records/0/dish: "),
    (b'{"records": [], "strategy": "fusion"}', "^/strategy: "),
    (b"[]", "^/: run report must be a JSON object$"),
    (b"5", "^/: run report must be a JSON object$"),
    (b'"x"', "^/: run report must be a JSON object$"),
    (b"null", "^/: run report must be a JSON object$"),
]


@pytest.mark.parametrize("content, detail", _MALFORMED_REPORTS)
def test_load_run_report_rejects_malformed_reports(tmp_path, content, detail):
    path = tmp_path / "run_report.json"
    path.write_bytes(content)
    with pytest.raises(ManifestError, match=detail):
        load_run_report(path)


# --- the report type sweep: every field, in turn, set to each JSON type ----

_SWEEP_VALUES = (
    None, True, False, 0, 1, -1, 34.0, "", "x", [], [1], {},
    # well-typed values some fields accept, or that contradict another field
    "JSON_OK", "TEXT_FALLBACK", "schema", "user_guided",
    # a lone surrogate, which no dish text may hold
    "x\ud800",
)
_DELETED = object()
_COUNT_POINTERS = {"/total", "/json_ok", "/text_fallback"}


def _at(value, path):
    for key in path:
        value = value[key]
    return value


def _field_paths(value, path=()):
    """The key path of every field below ``value``, list elements included."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in items:
        yield path + (key,)
        if isinstance(child, (dict, list)):
            yield from _field_paths(child, path + (key,))


def _two_record_report(shipped_report) -> dict:
    """A shipped run's report cut down to one JSON_OK and one fallback
    record, each with tools and more than one ingredient."""
    payload = json.loads(shipped_report.read_text(encoding="utf-8"))

    def first(outcome):
        return next(
            record for record in payload["records"]
            if record["outcome"] == outcome
            and record["dish"]["tools"]
            and len(record["dish"]["ingredients"]) > 1
        )

    records = [first("JSON_OK"), first("TEXT_FALLBACK")]
    return {**payload, "total": 2, "json_ok": 1, "text_fallback": 1, "records": records}


def _edited(payload, edits):
    """A copy of ``payload`` with each (key path, value) of ``edits`` set,
    or deleted."""
    payload = json.loads(json.dumps(payload))
    for path, value in edits:
        holder = _at(payload, path[:-1])
        if value is _DELETED:
            del holder[path[-1]]
        else:
            holder[path[-1]] = value
    return payload


def _sweep_cases(base: dict):
    """Each (field, value, payload) of the type sweep: ``base`` with the
    field at ``field`` set to ``value``, or deleted."""
    for field in _field_paths(base):
        for value in (*_SWEEP_VALUES, _DELETED):
            yield field, value, _edited(base, [(field, value)])


def test_report_type_sweep_names_the_field_or_loads(tmp_path, shipped_runs):
    base = _two_record_report(shipped_runs[0])
    path = tmp_path / REPORT_FILENAME
    path.write_text(json.dumps(base), encoding="utf-8")
    assert load_run_report(path).total == 2

    faults, loaded_deletions = [], set()
    for field, value, payload in _sweep_cases(base):
        pointer = "".join(f"/{key}" for key in field)
        name = field[-1]
        path.write_text(json.dumps(payload), encoding="utf-8")
        try:
            load_run_report(path)
        except ManifestError as exc:
            got = exc.pointer
            if not (
                got == pointer
                or got.rpartition("/")[0] == pointer
                # dropping or emptying records leaves the counts behind
                or (got in _COUNT_POINTERS and field[0] == "records" and len(field) <= 2)
                or (name == "outcome" and got == pointer.replace("outcome", "fallback_reason"))
            ):
                faults.append((pointer, value, got))
        else:
            if value is _DELETED:
                loaded_deletions.add(pointer)
            # a loaded value has the field's own JSON type (True is no count)
            elif type(value) is not type(_at(base, field)):
                faults.append((pointer, value, "loaded"))
    assert faults == []
    # only these fields may be absent; a list element may be dropped
    # (the counts or the dish then say what is wrong, if anything)
    optional = {"/started", "/finished", "/records/0/fallback_reason"}
    optional |= {f"/records/{i}/dish/tools" for i in (0, 1)}
    assert {p for p in loaded_deletions if not p.split("/")[-1].isdecimal()} == optional


def _repeated_dish_report(shipped_report, last_dish: dict) -> dict:
    """Four records, the last three repeating the first's dish, the last
    with the dish fields ``last_dish``."""
    base = _two_record_report(shipped_report)
    ok, fallback = base["records"]
    records = [ok, fallback, json.loads(json.dumps(ok)), {**ok, "dish": last_dish}]
    return {**base, "total": 4, "json_ok": 3, "text_fallback": 1, "records": records}


def test_a_repeated_dish_is_shared_but_never_hides_a_fault(tmp_path, shipped_runs, capsys):
    dish = _two_record_report(shipped_runs[0])["records"][0]["dish"]
    path = tmp_path / REPORT_FILENAME
    bad_tool = {**dish, "tools": [5, *dish["tools"][1:]]}
    surrogate = {**dish, "ingredients": [dish["ingredients"][0], "x\ud800"]}
    repeated = {**dish, "ingredients": [*dish["ingredients"], dish["ingredients"][0]]}
    unhashable_tool = {**dish, "tools": [[1]]}
    for last, pointer in (
        (bad_tool, "/records/3/dish/tools/0"),
        (surrogate, "/records/3/dish/ingredients/1"),
        (repeated, f"/records/3/dish/ingredients/{len(dish['ingredients'])}"),
        (unhashable_tool, "/records/3/dish/tools/0"),
    ):
        path.write_text(json.dumps(_repeated_dish_report(shipped_runs[0], last)), "utf-8")
        with pytest.raises(ManifestError) as caught:
            load_run_report(path)
        assert caught.value.pointer == pointer
        assert main(["evaluate", str(path)]) == 2
        assert f"error: {pointer}: " in capsys.readouterr().err
    # an unknown field is no part of a dish
    path.write_text(
        json.dumps(_repeated_dish_report(shipped_runs[0], {**dish, "note": [1]})), "utf-8"
    )
    shared: dict = {}
    records = load_run_report(path, shared=shared).records
    assert records[0].dish is records[2].dish is records[3].dish is not records[1].dish
    assert records[0].tree is records[2].tree is records[3].tree
    # a second report read with the same map shares its dishes and trees too
    again = load_run_report(path, shared=shared).records
    assert [r.dish for r in again] == [r.dish for r in records]
    assert all(a.dish is b.dish and a.tree is b.tree for a, b in zip(again, records))
    assert load_run_report(path).records[0].dish is not records[0].dish


@pytest.mark.parametrize(
    "field, value, words",
    [
        ("name", _DELETED, "missing field 'name'"),
        ("name", 5, "name must be a string"),
        ("name", None, "name must be a string"),
        ("ingredients", _DELETED, "missing field 'ingredients'"),
        ("ingredients", "salt", "ingredients must be an array"),
        ("ingredients", None, "ingredients must be an array"),
        ("tools", "salt", "tools must be an array"),
        ("tools", None, "tools must be an array"),
    ],
)
def test_a_dish_field_is_named_missing_or_of_the_wrong_type(
    tmp_path, shipped_runs, field, value, words
):
    dish = {"name": "x", "ingredients": ["y"], "tools": ["pot"]}
    manifest = {"categories": [{"name": "a", "dishes": [dish]}]}
    path = tmp_path / "m.json"
    manifest = _edited(manifest, [(("categories", 0, "dishes", 0, field), value)])
    path.write_text(json.dumps(manifest), encoding="utf-8")
    with pytest.raises(ManifestError) as caught:
        read_manifest(path)
    assert str(caught.value) == f"/categories/0/dishes/0/{field}: {words}"

    report = _edited(_two_record_report(shipped_runs[0]), [(("records", 1, "dish", field), value)])
    path = tmp_path / REPORT_FILENAME
    path.write_text(json.dumps(report), encoding="utf-8")
    with pytest.raises(ManifestError) as caught:
        load_run_report(path)
    assert str(caught.value) == f"/records/1/dish/{field}: {words}"


@pytest.mark.parametrize(
    "path, value, fault",
    [
        (("categories",), _DELETED, "/categories: missing field 'categories'"),
        (("categories",), 5, "/categories: categories must be a non-empty array"),
        (("categories",), {}, "/categories: categories must be a non-empty array"),
        (("categories",), [], "/categories: categories must be a non-empty array"),
        (("categories", 0, "name"), _DELETED, "/categories/0/name: missing field 'name'"),
        (("categories", 0, "name"), 5, "/categories/0/name: name must be a string"),
        (("categories", 0, "name"), None, "/categories/0/name: name must be a string"),
        (("categories", 0, "name"), "  ", "/categories/0/name: category name must not be empty"),
        (("categories", 0, "name"), "", "/categories/0/name: category name must not be empty"),
        (("categories", 0, "dishes"), _DELETED, "/categories/0/dishes: missing field 'dishes'"),
        (("categories", 0, "dishes"), 5, "/categories/0/dishes: dishes must be an array"),
        (("categories", 0, "dishes"), None, "/categories/0/dishes: dishes must be an array"),
    ],
)
def test_a_category_fault_is_worded_as_a_dish_fault(tmp_path, capsys, path, value, fault):
    dish = {"name": "x", "ingredients": ["y"]}
    manifest = _edited({"categories": [{"name": "a", "dishes": [dish]}]}, [(path, value)])
    manifest_path = tmp_path / "m.json"
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    with pytest.raises(ManifestError) as caught:
        read_manifest(manifest_path)
    assert str(caught.value) == fault

    fixture = data_path("fixtures", "replay_contextual_run1.json")
    argv = [
        "generate",
        "--manifest",
        str(manifest_path),
        "--strategy",
        "contextual",
        "--fixture",
        str(fixture),
        "--out",
        str(tmp_path / "out"),
    ]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {fault}\n"


# faults of a JSON_OK record, in the order a record is read: its dish
# (category, name, ingredients and each ingredient, tools and each tool,
# then the dish's own checks), outcome, fallback_reason, their agreement,
# raw_text, its parse, output_path; each (key path, value, pointer)
_RECORD_FAULTS = [
    (("records", 0, "dish", "category"), 5, "/records/0/dish/category"),
    (("records", 0, "dish", "name"), 5, "/records/0/dish/name"),
    (("records", 0, "dish", "ingredients"), "salt", "/records/0/dish/ingredients"),
    (("records", 0, "dish", "ingredients", 0), 5, "/records/0/dish/ingredients/0"),
    (("records", 0, "dish", "tools"), "pot", "/records/0/dish/tools"),
    (("records", 0, "dish", "tools", 0), 5, "/records/0/dish/tools/0"),
    (("records", 0, "dish", "ingredients", 1), "x\ud800", "/records/0/dish/ingredients/1"),
    (("records", 0, "outcome"), "X", "/records/0/outcome"),
    (("records", 0, "fallback_reason"), "bogus", "/records/0/fallback_reason"),
    (("records", 0, "fallback_reason"), "schema", "/records/0/fallback_reason"),
    (("records", 0, "raw_text"), 5, "/records/0/raw_text"),
    (("records", 0, "raw_text"), "not a tree", "/records/0/raw_text"),
    (("records", 0, "output_path"), 5, "/records/0/output_path"),
]
# faults of a report, in the order it is read: records, each record,
# strategy, started and finished, then the counts
_REPORT_FAULTS = [
    (("records",), 5, "/records"),
    (("records", 0, "output_path"), 5, "/records/0/output_path"),
    (("records", 1, "dish"), [], "/records/1/dish"),
    (("strategy",), "fusion", "/strategy"),
    (("started",), 5, "/started"),
    (("finished",), None, "/finished"),
    (("total",), 3, "/total"),
    (("json_ok",), True, "/json_ok"),
    (("text_fallback",), _DELETED, "/text_fallback"),
]


def _fault_pairs(faults):
    """Each (first, second) of ``faults`` in their order, on two fields
    neither of which holds the other."""
    for i, first in enumerate(faults):
        for second in faults[i + 1:]:
            a, b = first[0], second[0]
            if a[:len(b)] != b and b[:len(a)] != a:
                yield first, second


def test_the_first_fault_in_reading_order_is_named(tmp_path, shipped_runs):
    base = _two_record_report(shipped_runs[0])
    pairs = [*_fault_pairs(_RECORD_FAULTS), *_fault_pairs(_REPORT_FAULTS)]
    # the outcome, not the later output_path; the dish, not the later raw_text
    assert (
        ((("records", 0, "outcome"), "X", "/records/0/outcome"),
         (("records", 0, "output_path"), 5, "/records/0/output_path")) in pairs
    )
    assert (
        ((("records", 0, "dish", "name"), 5, "/records/0/dish/name"),
         (("records", 0, "raw_text"), 5, "/records/0/raw_text")) in pairs
    )
    path = tmp_path / REPORT_FILENAME
    named = []
    for first, second in pairs:
        payload = _edited(base, [first[:2], second[:2]])
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ManifestError) as caught:
            load_run_report(path)
        named.append((first[2], second[2], caught.value.pointer))
    assert [(a, b, got) for a, b, got in named if got != a] == []


@pytest.mark.parametrize("level", ["report", "record", "dish"])
def test_load_run_report_ignores_unknown_fields(tmp_path, shipped_runs, level):
    original = shipped_runs[0]
    payload = json.loads(original.read_text(encoding="utf-8"))
    for record in payload["records"]:
        holder = {"report": payload, "record": record, "dish": record["dish"]}[level]
        # a per-record strategy is what reports before the run-level field carried
        holder.update({"strategy": "fusion", "extra": [1, {"a": None}]} if level == "record"
                      else {"extra": [1, {"a": None}]})
    copy = tmp_path / REPORT_FILENAME
    copy.write_text(json.dumps(payload), encoding="utf-8")
    assert load_run_report(copy) == load_run_report(original)


def _every_outcome(dish, raw_text: str) -> list[OutputRecord]:
    tree = random_task_tree(random.Random(7))
    bare = DishSpec("", "crème brûlée", ("cream", "egg yolk"))  # no category, no tools
    records = [
        OutputRecord(dish, raw_text, "a/b.json", tree=tree),
        OutputRecord(bare, "{}", "b.json", tree=tree),
    ]
    records += [
        OutputRecord(dish, raw_text, f"c{i}.txt", fallback_reason=reason)
        for i, reason in enumerate(FallbackReason)
    ]
    return records


@pytest.mark.parametrize("count", [0, 1, 6])
def test_report_writer_matches_json_dumps(dish, count):
    records = _every_outcome(dish, 'crème "brûlée" \\ 😀 \x00\u2028\n')[:count]
    for strategy in Strategy:
        report = RunReport(strategy, tuple(records), "2024-01-01T00:00:00+00:00", "")
        pieces = report_to_json(report)
        # the head, one piece per record, and the tail
        assert len(pieces) == count + 2
        assert "".join(pieces) == reference_report_json(report) + "\n"


@given(st.text(alphabet=st.characters(exclude_categories=("Cs",))))
def test_report_writer_matches_json_dumps_on_any_raw_text(raw_text):
    dish = DishSpec("pasta", "mac and cheese", ("macaroni",))
    report = RunReport(Strategy.EXAMPLE_BASED, tuple(_every_outcome(dish, raw_text)), raw_text, "")
    assert "".join(report_to_json(report)) == reference_report_json(report) + "\n"


def test_handle_response_creates_a_missing_output_directory(tmp_path, dish):
    out = tmp_path / "not" / "yet"
    tree_record = handle_response(_tree_response(random_task_tree(random.Random(2))), dish, out)
    text_record = handle_response(ModelResponse("prose"), dish, out, rel_base="x/y/prose")
    assert (out / tree_record.output_path).is_file()
    assert (out / text_record.output_path).read_text(encoding="utf-8") == "prose"


def test_handle_response_truncates_a_longer_existing_file(tmp_path, dish):
    handle_response(ModelResponse("a long first answer " * 50), dish, tmp_path)
    record = handle_response(ModelResponse("short"), dish, tmp_path)
    assert (tmp_path / record.output_path).read_bytes() == b"short"


def test_handle_response_resumes_a_short_write(tmp_path, dish, monkeypatch):
    text = "prose that takes several writes " * 20
    real_write = os.write
    calls = []

    def write_at_most_7(fd, data):
        calls.append(len(data))
        return real_write(fd, data[:7])

    monkeypatch.setattr(os, "write", write_at_most_7)
    record = handle_response(ModelResponse(text), dish, tmp_path)
    monkeypatch.undo()
    assert (tmp_path / record.output_path).read_bytes() == text.encode("utf-8")
    assert len(calls) == (len(text) + 6) // 7


@pytest.mark.parametrize(
    "text", ["crème brûlée\u2028line\u2029para", "日本の料理 🍜\n", "\x00\x85\U0010ffff"]
)
def test_handle_response_writes_the_utf8_encoding_of_the_text(tmp_path, dish, text):
    record = handle_response(ModelResponse(text), dish, tmp_path)
    assert (tmp_path / record.output_path).read_bytes() == text.encode("utf-8")


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_new_output_files_get_the_umask_mode(tmp_path, dish, umask):
    previous = os.umask(umask)
    try:
        record = handle_response(ModelResponse("prose"), dish, tmp_path / "out")
    finally:
        os.umask(previous)
    mode = os.stat(tmp_path / "out" / record.output_path).st_mode
    assert stat.S_IMODE(mode) == 0o666 & ~umask


def test_a_file_in_place_of_a_category_directory_exits_2(tmp_path, capsys, sample_manifest_path):
    out = tmp_path / "out"
    out.mkdir()
    first = next(read_manifest(sample_manifest_path).dishes())
    (out / sanitize_filename(first.category)).write_text("in the way", encoding="utf-8")
    code = main(
        [
            "generate",
            "--manifest",
            str(sample_manifest_path),
            "--strategy",
            "contextual",
            "--fixture",
            str(data_path("fixtures", "replay_contextual_run1.json")),
            "--out",
            str(out),
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Not a directory" in err


def test_run_without_dishes_still_writes_its_report(tmp_path):
    manifest = _manifest_from(tmp_path, {"categories": [{"name": "empty", "dishes": []}]})
    out = tmp_path / "out"
    report = run_generation(manifest, Strategy.CONTEXTUAL, ReplayClient({}), out)
    written = (out / REPORT_FILENAME).read_text(encoding="utf-8")
    assert written == reference_report_json(report) + "\n"
    assert '"records": []' in written


@pytest.mark.parametrize(
    "strategy, inputs",
    [
        (Strategy.CONTEXTUAL, {"template": "no schema here"}),
        (Strategy.CONTEXTUAL, {"template": "{{bogus}} {{schema}}"}),
        (Strategy.EXAMPLE_BASED, {}),
        (Strategy.USER_GUIDED, {"instructions": "  "}),
    ],
)
def test_run_without_dishes_renders_nothing(tmp_path, strategy, inputs):
    # no prompt is rendered, so inputs that could render none raise nothing
    manifest = _manifest_from(tmp_path, {"categories": [{"name": "empty", "dishes": []}]})
    report = run_generation(manifest, strategy, ReplayClient({}), tmp_path / "out", **inputs)
    assert report.total == 0
    assert (tmp_path / "out" / REPORT_FILENAME).is_file()


def test_report_is_replaced_atomically(tmp_path, sample_manifest_path, monkeypatch):
    manifest = read_manifest(sample_manifest_path)
    fixture = _fixture_for(manifest, Strategy.CONTEXTUAL, ["junk"] * 3)
    out = tmp_path / "out"
    run_generation(manifest, Strategy.CONTEXTUAL, ReplayClient(fixture), out)
    before = (out / REPORT_FILENAME).read_bytes()

    # the disk fills after the head and the first record of the new report
    with monkeypatch.context() as patch:
        writes = record_report_writes(patch, fail_after=2)
        with pytest.raises(OSError, match="disk full"):
            run_generation(manifest, Strategy.CONTEXTUAL, ReplayClient({}), out)
    assert len(writes) == 2 and writes[1].startswith("{")
    assert (out / REPORT_FILENAME).read_bytes() == before
    assert sorted(p.name for p in out.iterdir() if p.is_file()) == [REPORT_FILENAME]

    def boom(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr("foonforge.resources.os.replace", boom)
    with pytest.raises(OSError, match="disk full"):
        run_generation(manifest, Strategy.CONTEXTUAL, ReplayClient({}), out)
    assert (out / REPORT_FILENAME).read_bytes() == before
    assert sorted(p.name for p in out.iterdir() if p.is_file()) == [REPORT_FILENAME]


def test_prompts_are_released_once_answered(tmp_path, sample_manifest_path, monkeypatch):
    manifest = read_manifest(sample_manifest_path)
    answered = []

    class Backend:
        def generate_all(self, prompts):
            answered.extend(weakref.ref(prompt) for prompt in prompts)
            return [ModelResponse("junk") for _ in prompts]

    alive = []

    def counted(*args, **kwargs):
        alive.append(sum(ref() is not None for ref in answered))
        return handle_response(*args, **kwargs)

    monkeypatch.setattr(pipeline, "handle_response", counted)
    report = run_generation(manifest, Strategy.CONTEXTUAL, Backend(), tmp_path / "out")
    assert report.total == len(answered) == len(alive) == 3
    # every prompt is gone before the first answer is classified
    assert alive == [0, 0, 0]
