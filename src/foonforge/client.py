"""Text-generation clients: a live HTTP backend and a replay backend.

The replay backend maps prompt context hashes to canned responses and has
no transport at all, so anything built on it can never touch the network.
There is no silent fallback to the live backend: a lookup miss is an
``error`` response, or, from a ``strict`` replay client, an exception
that ends the batch.

The live backend speaks a minimal provider-agnostic protocol: POST a JSON
body ``{"model", "prompt", "temperature", "max_output_tokens"}`` and read
``{"text", "finish_reason"}`` back. Provider specifics stay inside this
module. The model, temperature, token cap and timeout are fixed
(``MODEL``, ``TEMPERATURE``, ``MAX_OUTPUT_TOKENS``, ``REQUEST_TIMEOUT``),
so the prompt is the only part of a request that varies, and the
context hash that keys a fixture covers all of it. The deployment
settings come from ``FOONFORGE_API_URL`` and ``FOONFORGE_API_KEY``. The
request goes out through :func:`urllib_post`, the standard library's
HTTP client, which verifies TLS certificates and follows no redirect, so
the key is only ever sent to the configured URL.

A backend answers a whole batch at once (:meth:`TextGenerator.generate_all`),
so concurrency lives where the waiting is: the live backend keeps up to
``max_in_flight`` requests open on a thread pool, and replay, a dict
lookup, answers serially. It gives one response per prompt: a request
that fails with a :class:`ClientError` is answered by an ``error``
response that names the failure and the prompt's hash, so the caller
need not know which backend answered.

Fixture entries share that payload shape, and :func:`decode_response` is
the one decoder for both backends: the live backend decodes each answer
as it arrives, the replay backend every fixture entry when it is built,
so a malformed entry fails before any dish is generated. A response does
not name its backend: a run has one, chosen by its caller. Fixtures are
built by ``scripts/build_fixtures.py``.
"""

from __future__ import annotations

import json
import os
import random
import time
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, Mapping, Protocol, Sequence

from .errors import (
    AuthError,
    ClientError,
    FixtureMissError,
    MalformedResponseError,
    ProviderError,
    RateLimitedError,
    RequestTimeoutError,
    TransportError,
)
from .prompts import PromptBundle
from .resources import read_text

API_KEY_ENV = "FOONFORGE_API_KEY"
API_URL_ENV = "FOONFORGE_API_URL"

MODEL = "gemini-1.0-pro-latest"
TEMPERATURE = 0.2
MAX_OUTPUT_TOKENS = 2048
REQUEST_TIMEOUT = 60.0  # seconds
# The most bytes of an answer's body read; a longer one is refused
# unparsed. A token is a few bytes of text, so MAX_OUTPUT_TOKENS come to
# some tens of kilobytes. Even if every token were 16 bytes and JSON
# escaping wrote each byte as six, the body would be 2,048 x 16 x 6 =
# 197 kB; 4 MiB allows 2 KiB a token.
MAX_ANSWER_BYTES = 4 * 2**20

MAX_RETRIES = 3
BACKOFF_BASE = 1.0
BACKOFF_FACTOR = 2.0
DEFAULT_MAX_IN_FLIGHT = 4


class FinishReason(str, Enum):
    COMPLETE = "complete"
    TRUNCATED = "truncated"
    ERROR = "error"


@dataclass(frozen=True, slots=True)
class ModelResponse:
    """One answer: its text, why it ended, and how long it took.

    A response that is not an ``error`` must carry text, and text that is
    not ASCII must encode to UTF-8, since outputs are UTF-8 files: a lone
    surrogate raises ``UnicodeEncodeError`` here. Built in one pass, as
    :class:`~foonforge.prompts.DishSpec` is: the checks, then each field
    set once, by its slot's own setter. Cost: one build per fixture
    entry, through :func:`decode_response`'s value-to-member lookup; it
    shows in ``generate_s.p50`` of ``manifest-2k``, whose replay client
    decodes 2,000 entries.
    """

    text: str
    finish_reason: FinishReason = FinishReason.COMPLETE
    latency: float = 0.0

    def __init__(
        self,
        text: str,
        finish_reason: FinishReason = FinishReason.COMPLETE,
        latency: float = 0.0,
    ):
        if finish_reason is not FinishReason.ERROR and not text:
            raise ValueError("non-error responses must carry text")
        # only non-ASCII text can hold a lone surrogate, and ASCII text is not encoded
        if not text.isascii():
            text.encode("utf-8")
        _set_text(self, text)
        _set_finish_reason(self, finish_reason)
        _set_latency(self, latency)


_set_text = ModelResponse.text.__set__
_set_finish_reason = ModelResponse.finish_reason.__set__
_set_latency = ModelResponse.latency.__set__
_FINISH_REASONS = {reason.value: reason for reason in FinishReason}


def decode_response(payload, *, latency: float = 0.0) -> ModelResponse:
    """Build a response from a ``{"text", "finish_reason"}`` payload.

    ``finish_reason`` defaults to ``complete`` and is looked up by value;
    only a value that names no reason goes through ``FinishReason`` to
    word the error. A payload that is not an object with a ``text``
    string, names an unknown finish reason, or carries text
    :class:`ModelResponse` rejects raises :class:`MalformedResponseError`.
    """
    if not isinstance(payload, dict) or not isinstance(payload.get("text"), str):
        raise MalformedResponseError("payload lacks a 'text' string")
    finish = payload.get("finish_reason", "complete")
    try:
        try:
            finish = _FINISH_REASONS[finish]
        except (KeyError, TypeError):  # not a reason's value, or not hashable
            finish = FinishReason(finish)
        return ModelResponse(payload["text"], finish, latency)
    except ValueError as exc:
        raise MalformedResponseError(str(exc)) from exc


class TextGenerator(Protocol):
    """Anything that can answer a batch of prompt bundles."""

    def generate_all(self, prompts: Sequence[PromptBundle]) -> list[ModelResponse]:
        """One response per prompt, in prompt order; a failed request is
        an ``error`` response. Any other exception propagates."""
        ...


def _answer(
    generate: Callable[[PromptBundle], ModelResponse], prompt: PromptBundle
) -> ModelResponse:
    """``generate``'s answer to ``prompt``, or the ``error`` response that
    stands in for the :class:`ClientError` it raised: the failure's text,
    ``fixture miss`` for a miss, then the prompt's hash."""
    try:
        return generate(prompt)
    except ClientError as exc:
        error = "fixture miss" if isinstance(exc, FixtureMissError) else str(exc)
        return ModelResponse(
            f"model error: {error}\n(prompt hash {prompt.context_hash})", FinishReason.ERROR
        )


class ReplayClient:
    """Deterministic backend answering from a recorded fixture.

    The fixture is a JSON map of hex context hash to
    ``{"text": ..., "finish_reason": ...}``. Every entry is decoded once,
    here, and a malformed one raises :class:`MalformedResponseError`.
    Lookups are pure, so replay is bit-deterministic; a batch is
    answered serially, since a lookup never waits.

    :meth:`generate` raises :class:`FixtureMissError` on a miss. In a
    batch, a miss is an ``error`` response, unless the client is
    ``strict``: then the first miss in prompt order propagates, and the
    caller has no answer to write.
    """

    def __init__(self, fixture: str | Path | Mapping[str, dict], *, strict: bool = False):
        self.strict = strict
        entries = load_fixture(fixture) if isinstance(fixture, (str, Path)) else fixture
        self._responses: dict[str, ModelResponse] = {}
        for key, entry in entries.items():
            try:
                self._responses[key] = decode_response(entry)
            except MalformedResponseError as exc:
                raise MalformedResponseError(f"fixture entry {key}: {exc}") from exc

    def generate(self, prompt: PromptBundle) -> ModelResponse:
        response = self._responses.get(prompt.context_hash)
        if response is None:
            raise FixtureMissError(prompt.context_hash)
        return response

    def generate_all(self, prompts: Sequence[PromptBundle]) -> list[ModelResponse]:
        if self.strict:
            return [self.generate(prompt) for prompt in prompts]
        return [_answer(self.generate, prompt) for prompt in prompts]


def load_fixture(path: str | Path) -> dict[str, dict]:
    """Read a replay fixture file into a hash-to-entry map.

    Entries are checked where they are decoded, by :class:`ReplayClient`.
    """
    try:
        raw = json.loads(read_text(path))
    except UnicodeDecodeError as exc:  # a ValueError too: caught first
        raise ClientError(f"fixture {path} is not UTF-8 text: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise ClientError(f"fixture {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ClientError(f"fixture {path} must be a JSON object keyed by context hash")
    return raw


def _opener():
    """The opener behind :func:`urllib_post`: HTTP and HTTPS only (an
    unknown scheme is a ``URLError``), proxies from the environment and
    the default TLS context, which verifies certificates. It has no
    redirect handler: a followed redirect would carry the
    ``Authorization`` header to whatever host it names, so a 3xx comes
    back as an error status instead."""
    import urllib.request

    opener = urllib.request.OpenerDirector()
    for handler in (
        urllib.request.ProxyHandler(),
        urllib.request.UnknownHandler(),
        urllib.request.HTTPHandler(),
        urllib.request.HTTPSHandler(),
        urllib.request.HTTPDefaultErrorHandler(),
        urllib.request.HTTPErrorProcessor(),
    ):
        opener.add_handler(handler)
    return opener


def urllib_post(
    url: str, body: bytes, headers: Mapping[str, str], timeout: float
) -> tuple[int, bytes]:
    """POST a JSON body and return the status and body of the answer.

    Every status, a 3xx included, comes back as ``(status, body)``. A
    timeout raises :class:`RequestTimeoutError`; any other failure to get
    an answer raises :class:`TransportError`, a body cut short of its
    ``Content-Length`` among them. So does a body longer than
    ``MAX_ANSWER_BYTES``, of which one byte more is read, so the dish
    becomes a ``model_error`` record before anything is parsed.
    Replay reads no body and has no cap. The HTTP and TLS modules
    are imported on the first call: they add about 3 MB to a process,
    which replay never needs.
    """
    import http.client
    import urllib.error
    import urllib.request

    request = urllib.request.Request(
        url, data=body, headers={**headers, "Content-Type": "application/json"}, method="POST"
    )
    try:
        try:
            response = _opener().open(request, timeout=timeout)
        except urllib.error.HTTPError as exc:
            response = exc
        with response:
            status, raw = response.status, response.read(MAX_ANSWER_BYTES + 1)
            if len(raw) <= MAX_ANSWER_BYTES and response.length:
                # a sized read returns a body cut short of its
                # Content-Length without complaint; refuse it as a
                # whole read does
                raise http.client.IncompleteRead(raw, response.length)
    except TimeoutError as exc:
        raise RequestTimeoutError(f"no answer within {timeout}s") from exc
    except urllib.error.URLError as exc:
        if isinstance(exc.reason, TimeoutError):
            raise RequestTimeoutError(f"no answer within {timeout}s") from exc
        raise TransportError(str(exc.reason)) from exc
    except (OSError, http.client.HTTPException) as exc:
        raise TransportError(str(exc) or type(exc).__name__) from exc
    if len(raw) > MAX_ANSWER_BYTES:
        raise TransportError(f"answer longer than {MAX_ANSWER_BYTES} bytes (HTTP {status})")
    return status, raw


class LiveClient:
    """HTTP backend with retry on transient failures.

    Transient means HTTP 429 or any 5xx: those are retried up to
    ``MAX_RETRIES`` times with exponential backoff (base 1s, factor 2)
    and full jitter. Other statuses (a redirect included) and timeouts
    are never retried. The API key must be present before any network
    call is attempted. ``post`` is the transport, :func:`urllib_post`
    unless a caller injects another, and a batch keeps up to
    ``max_in_flight`` requests open at once.
    """

    def __init__(
        self,
        api_url: str | None = None,
        api_key: str | None = None,
        post: Callable[[str, bytes, Mapping[str, str], float], tuple[int, bytes]] = urllib_post,
        sleeper: Callable[[float], None] = time.sleep,
        rng: random.Random | None = None,
        max_in_flight: int = DEFAULT_MAX_IN_FLIGHT,
    ):
        self.api_url = api_url or os.environ.get(API_URL_ENV, "")
        self.api_key = api_key or os.environ.get(API_KEY_ENV, "")
        if not self.api_key:
            raise AuthError(f"no API key: set {API_KEY_ENV}")
        if not self.api_url:
            raise ClientError(f"no endpoint: set {API_URL_ENV}")
        self._post = post
        self._sleep = sleeper
        self._rng = rng or random.Random()
        self.max_in_flight = max_in_flight

    def generate_all(self, prompts: Sequence[PromptBundle]) -> list[ModelResponse]:
        # imported here, so that the offline commands never load it
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=self.max_in_flight) as pool:
            return list(pool.map(lambda prompt: _answer(self.generate, prompt), prompts))

    def generate(self, prompt: PromptBundle) -> ModelResponse:
        body = json.dumps(
            {
                "model": MODEL,
                "prompt": prompt.text,
                "temperature": TEMPERATURE,
                "max_output_tokens": MAX_OUTPUT_TOKENS,
            }
        ).encode("utf-8")
        headers = {"Authorization": f"Bearer {self.api_key}"}

        start = time.monotonic()
        last_status = 0
        for attempt in range(MAX_RETRIES + 1):
            status, raw = self._post(self.api_url, body, headers, REQUEST_TIMEOUT)
            if status == 200:
                try:
                    payload = json.loads(raw)
                except (ValueError, RecursionError) as exc:
                    raise MalformedResponseError("provider payload is not JSON") from exc
                return decode_response(payload, latency=time.monotonic() - start)
            last_status = status
            if status != 429 and not 500 <= status <= 599:
                raise ProviderError(status, raw.decode("utf-8", errors="replace")[:200])
            if attempt < MAX_RETRIES:
                self._sleep(self._rng.uniform(0.0, BACKOFF_BASE * BACKOFF_FACTOR**attempt))

        if last_status == 429:
            raise RateLimitedError(f"still rate limited after {MAX_RETRIES} retries")
        raise ProviderError(last_status, f"still failing after {MAX_RETRIES} retries")
