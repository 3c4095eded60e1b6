from __future__ import annotations

import http.server
import json
import os
import random
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from foonforge import client as client_module
from foonforge.client import (
    API_KEY_ENV,
    API_URL_ENV,
    MAX_OUTPUT_TOKENS,
    MAX_RETRIES,
    MODEL,
    REQUEST_TIMEOUT,
    TEMPERATURE,
    FinishReason,
    LiveClient,
    ModelResponse,
    ReplayClient,
    decode_response,
    load_fixture,
)
from foonforge.errors import (
    AuthError,
    ClientError,
    FixtureMissError,
    MalformedResponseError,
    ProviderError,
    RateLimitedError,
    RequestTimeoutError,
    TransportError,
)
from foonforge.pipeline import FallbackReason, read_manifest, run_generation
from foonforge.prompts import DishSpec, Strategy, render_for_dish


@pytest.fixture()
def bundle():
    dish = DishSpec("breakfast", "omelette", ("egg",), ("pan",))
    return render_for_dish(Strategy.USER_GUIDED, dish, instructions="plain and quick")


def test_model_response_invariant():
    with pytest.raises(ValueError):
        ModelResponse("", FinishReason.COMPLETE)
    assert ModelResponse("", FinishReason.ERROR).text == ""


def test_replay_hit_and_miss(bundle):
    client = ReplayClient({bundle.context_hash: {"text": "canned", "finish_reason": "complete"}})
    response = client.generate(bundle)
    assert response.text == "canned"

    empty = ReplayClient({})
    with pytest.raises(FixtureMissError) as exc_info:
        empty.generate(bundle)
    assert bundle.context_hash in str(exc_info.value)


def test_load_fixture_validates(tmp_path):
    path = tmp_path / "f.json"
    path.write_text("[]", encoding="utf-8")
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


@pytest.mark.parametrize("reason", ["odd", "Complete", None, 1, True, ["complete"], {"a": 1}])
def test_an_unknown_finish_reason_is_named_as_the_enum_words_it(reason):
    # looked up by value, and worded by FinishReason only when the lookup fails;
    # a value that cannot be a dict key (a list) is refused the same way
    with pytest.raises(MalformedResponseError) as caught:
        decode_response({"text": "x", "finish_reason": reason})
    assert str(caught.value) == f"{reason!r} is not a valid FinishReason"


def test_replay_decodes_each_entry_once(bundle):
    client = ReplayClient({bundle.context_hash: {"text": "canned", "finish_reason": "error"}})
    first = client.generate(bundle)
    assert first.finish_reason is FinishReason.ERROR
    assert client.generate(bundle) is first


def test_replay_batch_answers_a_miss_unless_strict(bundle):
    first, second = (
        render_for_dish(Strategy.CONTEXTUAL, DishSpec("a", name, ("c",))) for name in "bd"
    )
    fixture = {bundle.context_hash: {"text": "canned"}}
    assert ReplayClient(fixture).generate_all([first, bundle]) == [
        ModelResponse(
            f"model error: fixture miss\n(prompt hash {first.context_hash})", FinishReason.ERROR
        ),
        ModelResponse("canned"),
    ]
    strict = ReplayClient(fixture, strict=True)
    assert strict.generate_all([bundle]) == [ModelResponse("canned")]
    with pytest.raises(FixtureMissError) as exc_info:
        strict.generate_all([bundle, second, first])
    assert exc_info.value.context_hash == second.context_hash  # the first miss in order


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


def _ok(text, finish_reason="complete"):
    return 200, json.dumps({"text": text, "finish_reason": finish_reason}).encode()


class FakePost:
    """A transport answering from a list: each outcome is a ``(status,
    body)`` pair to return or an exception to raise."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.calls = []

    def __call__(self, url, body, headers, timeout):
        self.calls.append(
            {"url": url, "body": body, "json": json.loads(body), "headers": headers,
             "timeout": timeout}
        )
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


class FakeSleeper:
    def __init__(self):
        self.napped = []

    def __call__(self, seconds):
        self.napped.append(seconds)


def _live(outcomes, sleeper=None, **kwargs):
    return LiveClient(
        api_url="https://example.invalid/generate",
        api_key="k",
        post=FakePost(outcomes),
        sleeper=sleeper or FakeSleeper(),
        **kwargs,
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
    sleeper = FakeSleeper()
    client = _live([(429, b""), (503, b""), _ok("stew time")], sleeper)
    response = client.generate(bundle)
    assert response.text == "stew time"
    assert len(client._post.calls) == 3
    # full jitter: each nap bounded by base * factor**attempt
    assert len(sleeper.napped) == 2
    assert 0 <= sleeper.napped[0] <= 1.0
    assert 0 <= sleeper.napped[1] <= 2.0


def test_request_body_and_headers(bundle):
    client = _live([(200, b'{"text": "y"}')])
    client.generate(bundle)
    [call] = client._post.calls
    assert call["json"] == {
        "model": MODEL,
        "prompt": bundle.text,
        "temperature": TEMPERATURE,
        "max_output_tokens": MAX_OUTPUT_TOKENS,
    }
    assert call["timeout"] == REQUEST_TIMEOUT
    # the prompt is the only part of a request that varies, so the context
    # hash that keys a fixture determines the whole request
    prompt = json.dumps(bundle.text)
    assert call["body"] == (
        f'{{"model": "gemini-1.0-pro-latest", "prompt": {prompt}, "temperature": 0.2, '
        f'"max_output_tokens": 2048}}'
    ).encode()
    assert call["timeout"] == 60.0
    assert call["headers"]["Authorization"] == "Bearer k"


def test_client_4xx_not_retried(bundle):
    client = _live([(400, b"bad request")])
    with pytest.raises(ProviderError) as exc_info:
        client.generate(bundle)
    assert exc_info.value.status == 400
    assert str(exc_info.value) == "provider returned HTTP 400: bad request"
    assert len(client._post.calls) == 1


@pytest.mark.parametrize(
    "status, body, detail",
    [(403, b"\xff" + b"x" * 500, ": \ufffd" + "x" * 199), (302, b"", "")],
    ids=["long-undecodable-body", "redirect"],
)
def test_provider_error_keeps_200_characters_of_the_body(bundle, status, body, detail):
    client = _live([(status, body)])
    with pytest.raises(ProviderError) as exc_info:
        client.generate(bundle)
    assert str(exc_info.value) == f"provider returned HTTP {status}{detail}"
    assert len(client._post.calls) == 1


def test_rate_limited_after_retry_budget(bundle):
    client = _live([(429, b"")] * (MAX_RETRIES + 1))
    with pytest.raises(RateLimitedError):
        client.generate(bundle)
    assert len(client._post.calls) == MAX_RETRIES + 1


def test_provider_error_after_retry_budget(bundle):
    sleeper = FakeSleeper()
    client = _live([(500, b""), (502, b""), (503, b""), (504, b"down")], sleeper)
    with pytest.raises(ProviderError) as exc_info:
        client.generate(bundle)
    assert exc_info.value.status == 504
    assert str(exc_info.value) == "provider returned HTTP 504: still failing after 3 retries"
    assert len(client._post.calls) == MAX_RETRIES + 1 == 4
    assert len(sleeper.napped) == MAX_RETRIES


def test_timeout_not_retried(bundle, monkeypatch):
    monkeypatch.setattr(client_module, "REQUEST_TIMEOUT", 0.5)
    client = _live([RequestTimeoutError("slow")])
    with pytest.raises(RequestTimeoutError):
        client.generate(bundle)
    assert len(client._post.calls) == 1
    assert client._post.calls[0]["timeout"] == 0.5


def test_malformed_payloads(bundle):
    for body in (b"no json", b"\xff", b"[" * 100_000, b'{"answer": "x"}'):
        with pytest.raises(MalformedResponseError):
            _live([(200, body)]).generate(bundle)
    with pytest.raises(MalformedResponseError):
        _live([_ok("x", "odd")]).generate(bundle)


def test_live_lone_surrogate_is_a_model_error_record(tmp_path):
    surrogate = _ok("oops \ud800")
    with pytest.raises(MalformedResponseError):
        _live([surrogate]).generate(
            render_for_dish(Strategy.CONTEXTUAL, DishSpec("a", "b", ("c",)))
        )

    path = tmp_path / "manifest.json"
    dishes = [
        {"name": "omelette", "ingredients": ["egg"]},
        {"name": "toast", "ingredients": ["bread"]},
    ]
    manifest = {"categories": [{"name": "breakfast", "dishes": dishes}]}
    path.write_text(json.dumps(manifest), encoding="utf-8")
    # one request at a time: the fake answers in call order
    client = _live([surrogate, _ok("plain words")], max_in_flight=1)
    report = run_generation(read_manifest(path), Strategy.CONTEXTUAL, client, tmp_path / "out")
    first, second = report.records
    assert first.fallback_reason is FallbackReason.MODEL_ERROR
    assert first.raw_text.startswith("model error: ")
    assert "surrogates not allowed" in first.raw_text
    assert (tmp_path / "out" / first.output_path).read_text(encoding="utf-8") == first.raw_text
    assert second.fallback_reason is FallbackReason.JSON_SYNTAX


def _manifest_of(tmp_path, count):
    dishes = [{"name": f"dish {i}", "ingredients": [f"item {i}"]} for i in range(count)]
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"categories": [{"name": "c", "dishes": dishes}]}))
    return read_manifest(path)


class SlowPost:
    """Answers each prompt after a delay seeded by the prompt, and counts
    the requests open at once. Every third dish gets a 400."""

    def __init__(self):
        self.lock = threading.Lock()
        self.in_flight = 0
        self.peak = 0

    def __call__(self, url, body, headers, timeout):
        prompt = json.loads(body)["prompt"]
        with self.lock:
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
        time.sleep(random.Random(prompt).uniform(0.005, 0.015))
        with self.lock:
            self.in_flight -= 1
        dish = prompt.split("\nDish: ", 1)[1].split("\n", 1)[0]
        if int(dish.split()[1]) % 3 == 0:
            return 400, f"refused: {dish}".encode()
        return _ok(f"answer to {dish}")


def test_importing_the_cli_loads_no_thread_pool(tmp_path):
    # only a live batch needs the pool, so every other command skips its import
    env = {**os.environ, "PYTHONPATH": str(Path(client_module.__file__).parents[1])}
    probe = "import sys, foonforge.cli; print('concurrent.futures' in sys.modules)"
    run = subprocess.run(
        [sys.executable, "-c", probe], env=env, cwd=tmp_path, capture_output=True, timeout=60
    )
    assert (run.returncode, run.stdout, run.stderr) == (0, b"False\n", b"")


def test_live_batch_keeps_manifest_order_at_any_concurrency(tmp_path):
    manifest = _manifest_of(tmp_path, 12)
    runs = {}
    for max_in_flight in (1, 4):
        post = SlowPost()
        client = LiveClient(
            api_url="http://example.invalid", api_key="k", post=post, max_in_flight=max_in_flight
        )
        out = tmp_path / f"out{max_in_flight}"
        report = run_generation(manifest, Strategy.CONTEXTUAL, client, out)
        runs[max_in_flight] = [
            (r.dish.name, r.outcome, r.fallback_reason, r.raw_text, r.output_path)
            for r in report.records
        ]
        assert (post.peak == 1) if max_in_flight == 1 else (post.peak > 1)
    assert runs[1] == runs[4]
    assert [name for name, *_ in runs[1]] == [d.name for d in manifest.dishes()]
    for name, _, reason, raw_text, _ in runs[1]:
        if int(name.split()[1]) % 3 == 0:
            assert reason is FallbackReason.MODEL_ERROR
            assert f"refused: {name}" in raw_text
        else:
            assert (reason, raw_text) == (FallbackReason.JSON_SYNTAX, f"answer to {name}")


# --- the default transport, against a server on the loopback interface -----

class _Server:
    """An HTTP server on 127.0.0.1 answering POSTs from a script of
    ``(status, body, extra headers, delay)`` entries, one per request."""

    def __init__(self, script):
        self.script = list(script)
        self.requests = []
        server = self

        class Handler(http.server.BaseHTTPRequestHandler):
            def do_POST(self):
                body = self.rfile.read(int(self.headers["Content-Length"]))
                server.requests.append((self.command, self.path, dict(self.headers), body))
                status, reply, headers, delay = server.script.pop(0)
                time.sleep(delay)
                try:
                    self.send_response(status)
                    for key, value in headers.items():
                        self.send_header(key, value)
                    if "Content-Length" not in headers:
                        self.send_header("Content-Length", str(len(reply)))
                    self.end_headers()
                    self.wfile.write(reply)
                except OSError:  # the client gave up waiting
                    pass

            do_GET = do_POST

            def log_message(self, *args):
                pass

        self.httpd = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        # tracked, so server_close joins every request thread: one still
        # running would drop this server's objects during a later test
        self.httpd.daemon_threads = False
        self.url = f"http://127.0.0.1:{self.httpd.server_address[1]}"
        self.thread = threading.Thread(target=self.httpd.serve_forever, daemon=True)

    def __enter__(self):
        self.thread.start()
        return self

    def __exit__(self, *exc_info):
        self.httpd.shutdown()
        self.httpd.server_close()
        self.thread.join(timeout=10)
        assert not self.thread.is_alive()


def _loopback(server, sleeper=None):
    return LiveClient(
        api_url=f"{server.url}/generate", api_key="secret", sleeper=sleeper or FakeSleeper()
    )


def test_loopback_200(bundle):
    with _Server([(200, _ok("hot soup")[1], {}, 0)]) as server:
        response = _loopback(server).generate(bundle)
    assert response.text == "hot soup"
    [(method, path, headers, body)] = server.requests
    assert (method, path) == ("POST", "/generate")
    assert headers["Authorization"] == "Bearer secret"
    assert headers["Content-Type"] == "application/json"
    assert json.loads(body)["model"] == MODEL


def test_loopback_answer_longer_than_the_cap_is_a_transport_error(bundle, monkeypatch):
    body = _ok("hot soup")[1]
    monkeypatch.setattr(client_module, "MAX_ANSWER_BYTES", len(body))
    longer = (200, body + b" ", {}, 0)
    with _Server([(200, body, {}, 0), longer, longer]) as server:
        client = _loopback(server)
        assert client.generate(bundle).text == "hot soup"  # exactly the cap
        with pytest.raises(TransportError) as exc_info:
            client.generate(bundle)
        assert len(server.requests) == 2  # not retried
        [answer] = client.generate_all([bundle])
    error = f"answer longer than {len(body)} bytes (HTTP 200)"
    assert str(exc_info.value) == error
    assert answer == ModelResponse(
        f"model error: {error}\n(prompt hash {bundle.context_hash})", FinishReason.ERROR
    )
    assert len(server.requests) == 3


@pytest.mark.parametrize("status", [200, 503])
def test_loopback_body_short_of_its_length_is_a_transport_error(bundle, status):
    body = _ok("hot soup")[1]
    headers = {"Content-Length": str(len(body) + 5)}
    with _Server([(status, body, headers, 0)] * 2) as server:
        client = _loopback(server)
        with pytest.raises(TransportError) as exc_info:
            client.generate(bundle)
        assert len(server.requests) == 1  # not retried
        [answer] = client.generate_all([bundle])
    error = f"IncompleteRead({len(body)} bytes read, 5 more expected)"
    assert str(exc_info.value) == error
    assert answer == ModelResponse(
        f"model error: {error}\n(prompt hash {bundle.context_hash})", FinishReason.ERROR
    )
    assert len(server.requests) == 2


def test_loopback_503_is_retried(bundle):
    sleeper = FakeSleeper()
    with _Server([(503, b"busy", {}, 0), (200, _ok("ok")[1], {}, 0)]) as server:
        assert _loopback(server, sleeper).generate(bundle).text == "ok"
    assert len(server.requests) == 2
    assert len(sleeper.napped) == 1


def test_loopback_400_is_a_provider_error_with_its_body(bundle):
    with _Server([(400, b"prompt too long", {}, 0)]) as server:
        with pytest.raises(ProviderError, match="prompt too long") as exc_info:
            _loopback(server).generate(bundle)
    assert exc_info.value.status == 400
    assert len(server.requests) == 1


def test_loopback_redirect_is_not_followed(bundle):
    with _Server([]) as elsewhere:
        moved = (302, b"", {"Location": f"{elsewhere.url}/steal"}, 0)
        with _Server([moved]) as server:
            with pytest.raises(ProviderError) as exc_info:
                _loopback(server).generate(bundle)
    assert exc_info.value.status == 302
    assert len(server.requests) == 1
    assert elsewhere.requests == []


def test_loopback_slow_answer_times_out(bundle, monkeypatch):
    monkeypatch.setattr(client_module, "REQUEST_TIMEOUT", 0.2)
    with _Server([(200, _ok("late")[1], {}, 1.0)]) as server:
        with pytest.raises(RequestTimeoutError):
            _loopback(server).generate(bundle)
    assert len(server.requests) == 1


def test_loopback_closed_port_is_a_transport_error(bundle, monkeypatch):
    monkeypatch.setattr(client_module, "REQUEST_TIMEOUT", 2.0)
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    client = LiveClient(api_url=f"http://127.0.0.1:{port}/generate", api_key="k")
    with pytest.raises(TransportError) as exc_info:
        client.generate(bundle)
    assert not isinstance(exc_info.value, RequestTimeoutError)


def test_non_http_url_is_a_transport_error(bundle, tmp_path):
    secret = tmp_path / "secret.txt"
    secret.write_text("do not send", encoding="utf-8")
    client = LiveClient(api_url=secret.as_uri(), api_key="k")
    with pytest.raises(TransportError, match="unknown url type"):
        client.generate(bundle)


def test_a_urlerror_that_timed_out_is_a_request_timeout(monkeypatch):
    import urllib.error

    reason = TimeoutError("timed out")
    opened = []

    class Opener:
        def open(self, request, timeout):
            opened.append((request.full_url, timeout))
            raise urllib.error.URLError(reason)

    monkeypatch.setattr(client_module, "_opener", Opener)
    with pytest.raises(RequestTimeoutError) as exc_info:
        client_module.urllib_post("http://example.invalid/generate", b"{}", {}, 1.5)
    assert str(exc_info.value) == "no answer within 1.5s"
    assert exc_info.value.__cause__.reason is reason
    assert opened == [("http://example.invalid/generate", 1.5)]
