from __future__ import annotations

import json

import pytest
import requests

from foonforge.client import (
    API_KEY_ENV,
    API_URL_ENV,
    MAX_RETRIES,
    Backend,
    FinishReason,
    GenerationParams,
    LiveClient,
    ModelResponse,
    ReplayClient,
    load_fixture,
    record_fixture,
)
from foonforge.errors import (
    AuthError,
    ClientError,
    FixtureMissError,
    MalformedResponseError,
    ProviderError,
    RateLimitedError,
    RequestTimeoutError,
)
from foonforge.pipeline import FallbackReason, read_manifest, run_generation
from foonforge.prompts import DishSpec, Strategy, render_for_dish


@pytest.fixture()
def bundle():
    dish = DishSpec("breakfast", "omelette", ("egg",), ("pan",))
    return render_for_dish(Strategy.USER_GUIDED, dish, instructions="plain and quick")


@pytest.mark.parametrize(
    "kwargs",
    [
        {"temperature": -0.1},
        {"temperature": 2.5},
        {"max_output_tokens": 0},
        {"timeout": 0},
    ],
)
def test_generation_params_ranges(kwargs):
    with pytest.raises(ValueError):
        GenerationParams(**kwargs)


def test_model_response_invariant():
    with pytest.raises(ValueError):
        ModelResponse("", FinishReason.COMPLETE)
    assert ModelResponse("", FinishReason.ERROR).text == ""


def test_replay_hit_and_miss(bundle):
    client = ReplayClient({bundle.context_hash: {"text": "canned", "finish_reason": "complete"}})
    response = client.generate(bundle, GenerationParams())
    assert response.text == "canned"
    assert response.backend is Backend.REPLAY

    empty = ReplayClient({})
    with pytest.raises(FixtureMissError) as exc_info:
        empty.generate(bundle, GenerationParams())
    assert bundle.context_hash in str(exc_info.value)


def test_load_fixture_validates(tmp_path):
    path = tmp_path / "f.json"
    path.write_text("[]", encoding="utf-8")
    with pytest.raises(ClientError):
        load_fixture(path)
    path.write_text('{"abc": {"nope": 1}}', encoding="utf-8")
    with pytest.raises(ClientError):
        load_fixture(path)


@pytest.mark.parametrize(
    "entry",
    [
        {"text": "x", "finish_reason": "odd"},
        {"text": "", "finish_reason": "complete"},
        {"text": 42},
        {"text": ["x"]},
        {"text": "oops \ud800"},
        {"nope": 1},
        "just text",
    ],
    ids=["unknown-reason", "empty-complete", "int-text", "list-text", "lone-surrogate",
         "no-text", "not-an-object"],
)
def test_replay_client_rejects_malformed_entries_when_built(tmp_path, entry):
    with pytest.raises(ClientError, match="fixture entry abc"):
        ReplayClient({"abc": entry})
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"abc": entry}), encoding="utf-8")
    with pytest.raises(ClientError):
        ReplayClient(path)


def test_replay_decodes_each_entry_once(bundle):
    client = ReplayClient({bundle.context_hash: {"text": "canned", "finish_reason": "error"}})
    first = client.generate(bundle, GenerationParams())
    assert first.finish_reason is FinishReason.ERROR
    assert client.generate(bundle, GenerationParams()) is first


@pytest.mark.parametrize(
    "content", [b"[" * 100_000, b'{"a": [', b"\xff\xfe{}"], ids=["nested", "truncated", "not-utf8"]
)
def test_load_fixture_rejects_unreadable_json(tmp_path, content):
    path = tmp_path / "f.json"
    path.write_bytes(content)
    with pytest.raises(ClientError, match="not valid JSON"):
        load_fixture(path)


def test_model_response_rejects_text_that_is_not_utf8():
    with pytest.raises(ValueError):
        ModelResponse("oops \ud800")
    with pytest.raises(ValueError):
        ModelResponse("\udfff", FinishReason.ERROR)


def test_record_then_replay_round_trips(tmp_path, bundle):
    path = tmp_path / "fixture.json"
    record_fixture(bundle, ModelResponse("hello there"), path)
    client = ReplayClient(path)
    assert client.generate(bundle, GenerationParams()).text == "hello there"


def test_record_overwrites_same_hash(tmp_path, bundle):
    path = tmp_path / "fixture.json"
    record_fixture(bundle, ModelResponse("first"), path)
    entries = record_fixture(bundle, ModelResponse("second"), path)
    assert len(entries) == 1
    assert load_fixture(path)[bundle.context_hash]["text"] == "second"


def test_record_failure_leaves_file_intact(tmp_path, bundle, monkeypatch):
    path = tmp_path / "fixture.json"
    record_fixture(bundle, ModelResponse("original"), path)
    before = path.read_text(encoding="utf-8")

    def boom(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr("foonforge.client.os.replace", boom)
    with pytest.raises(OSError):
        record_fixture(bundle, ModelResponse("changed"), path)
    assert path.read_text(encoding="utf-8") == before
    assert list(tmp_path.glob("*.tmp")) == []


def test_record_to_bad_path_raises(tmp_path, bundle):
    blocker = tmp_path / "file.txt"
    blocker.write_text("x", encoding="utf-8")
    with pytest.raises(OSError):
        record_fixture(bundle, ModelResponse("x"), blocker / "fixture.json")


class FakeResponse:
    def __init__(self, status, payload=None, body=""):
        self.status_code = status
        self._payload = payload
        self.text = body

    def json(self):
        if self._payload is None:
            raise ValueError("no json")
        return self._payload


class FakeSession:
    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.calls = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls.append({"url": url, "json": json, "headers": headers, "timeout": timeout})
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


class FakeSleeper:
    def __init__(self):
        self.napped = []

    def __call__(self, seconds):
        self.napped.append(seconds)


def _live(outcomes, sleeper=None):
    return LiveClient(
        api_url="https://example.invalid/generate",
        api_key="k",
        session=FakeSession(outcomes),
        sleeper=sleeper or FakeSleeper(),
    )


def test_missing_key_fails_before_any_network(monkeypatch):
    monkeypatch.delenv(API_KEY_ENV, raising=False)
    monkeypatch.setenv(API_URL_ENV, "https://example.invalid")
    with pytest.raises(AuthError):
        LiveClient()


def test_missing_url_is_config_error(monkeypatch):
    monkeypatch.delenv(API_URL_ENV, raising=False)
    with pytest.raises(ClientError):
        LiveClient(api_key="k")


def test_retries_on_429_and_5xx_then_succeeds(bundle):
    ok = FakeResponse(200, {"text": "stew time", "finish_reason": "complete"})
    sleeper = FakeSleeper()
    client = _live([FakeResponse(429), FakeResponse(503), ok], sleeper)
    response = client.generate(bundle, GenerationParams())
    assert response.text == "stew time"
    assert response.backend is Backend.LIVE
    assert len(client._session.calls) == 3
    # full jitter: each nap bounded by base * factor**attempt
    assert len(sleeper.napped) == 2
    assert 0 <= sleeper.napped[0] <= 1.0
    assert 0 <= sleeper.napped[1] <= 2.0


def test_request_body_and_headers(bundle):
    ok = FakeResponse(200, {"text": "y"})
    client = _live([ok])
    client.generate(bundle, GenerationParams(model_name="m1", temperature=0.7))
    call = client._session.calls[0]
    assert call["json"]["model"] == "m1"
    assert call["json"]["prompt"] == bundle.text
    assert call["json"]["temperature"] == 0.7
    assert call["headers"]["Authorization"] == "Bearer k"


def test_client_4xx_not_retried(bundle):
    client = _live([FakeResponse(400, body="bad request")])
    with pytest.raises(ProviderError) as exc_info:
        client.generate(bundle, GenerationParams())
    assert exc_info.value.status == 400
    assert len(client._session.calls) == 1


def test_rate_limited_after_retry_budget(bundle):
    client = _live([FakeResponse(429)] * (MAX_RETRIES + 1))
    with pytest.raises(RateLimitedError):
        client.generate(bundle, GenerationParams())
    assert len(client._session.calls) == MAX_RETRIES + 1


def test_timeout_not_retried(bundle):
    client = _live([requests.Timeout("slow")])
    with pytest.raises(RequestTimeoutError):
        client.generate(bundle, GenerationParams(timeout=0.5))
    assert len(client._session.calls) == 1


def test_malformed_payloads(bundle):
    with pytest.raises(MalformedResponseError):
        _live([FakeResponse(200, payload=None)]).generate(bundle, GenerationParams())
    with pytest.raises(MalformedResponseError):
        _live([FakeResponse(200, {"answer": "x"})]).generate(bundle, GenerationParams())
    with pytest.raises(MalformedResponseError):
        _live([FakeResponse(200, {"text": "x", "finish_reason": "odd"})]).generate(
            bundle, GenerationParams()
        )


def test_live_lone_surrogate_is_a_model_error_record(tmp_path):
    payload = {"text": "oops \ud800", "finish_reason": "complete"}
    with pytest.raises(MalformedResponseError):
        _live([FakeResponse(200, payload)]).generate(
            render_for_dish(Strategy.CONTEXTUAL, DishSpec("a", "b", ("c",))), GenerationParams()
        )

    path = tmp_path / "manifest.json"
    dishes = [
        {"name": "omelette", "ingredients": ["egg"]},
        {"name": "toast", "ingredients": ["bread"]},
    ]
    manifest = {"categories": [{"name": "breakfast", "dishes": dishes}]}
    path.write_text(json.dumps(manifest), encoding="utf-8")
    ok = FakeResponse(200, {"text": "plain words", "finish_reason": "complete"})
    report = run_generation(
        read_manifest(path),
        Strategy.CONTEXTUAL,
        _live([FakeResponse(200, payload), ok]),
        tmp_path / "out",
        max_in_flight=1,
    )
    first, second = report.records
    assert first.fallback_reason is FallbackReason.MODEL_ERROR
    assert first.raw_text.startswith("model error: ")
    assert "surrogates not allowed" in first.raw_text
    assert (tmp_path / "out" / first.output_path).read_text(encoding="utf-8") == first.raw_text
    assert second.fallback_reason is FallbackReason.JSON_SYNTAX


def test_fixture_file_sorted_and_stable(tmp_path, bundle):
    path = tmp_path / "fixture.json"
    record_fixture(bundle, ModelResponse("a"), path)
    data = json.loads(path.read_text(encoding="utf-8"))
    assert list(data) == sorted(data)
