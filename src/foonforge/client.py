"""Text-generation clients: a live HTTP backend and a replay backend.

The replay backend maps prompt context hashes to canned responses and has
no transport at all, so anything built on it can never touch the network.
A lookup miss fails loudly; there is no silent fallback to the live
backend.

The live backend speaks a minimal provider-agnostic protocol: POST a JSON
body ``{"model", "prompt", "temperature", "max_output_tokens"}`` and read
``{"text", "finish_reason"}`` back. Provider specifics stay inside this
module. Configuration comes from ``FOONFORGE_API_URL`` and
``FOONFORGE_API_KEY``.

Fixture entries share that payload shape, and :func:`decode_response` is
the one decoder for both backends: the live backend decodes each answer
as it arrives, the replay backend every fixture entry when it is built,
so a malformed entry fails before any dish is generated.
"""

from __future__ import annotations

import json
import os
import random
import time
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, Mapping, Protocol

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
from .resources import write_text_atomic

API_KEY_ENV = "FOONFORGE_API_KEY"
API_URL_ENV = "FOONFORGE_API_URL"

DEFAULT_MODEL = "gemini-1.0-pro-latest"

MAX_RETRIES = 3
BACKOFF_BASE = 1.0
BACKOFF_FACTOR = 2.0


@dataclass(frozen=True)
class GenerationParams:
    model_name: str = DEFAULT_MODEL
    temperature: float = 0.2
    max_output_tokens: int = 2048
    timeout: float = 60.0

    def __post_init__(self):
        if not 0.0 <= self.temperature <= 2.0:
            raise ValueError(f"temperature must be in [0, 2], got {self.temperature}")
        if self.max_output_tokens <= 0:
            raise ValueError("max_output_tokens must be positive")
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")


class FinishReason(str, Enum):
    COMPLETE = "complete"
    TRUNCATED = "truncated"
    ERROR = "error"


class Backend(str, Enum):
    LIVE = "live"
    REPLAY = "replay"


@dataclass(frozen=True)
class ModelResponse:
    text: str
    finish_reason: FinishReason = FinishReason.COMPLETE
    latency: float = 0.0
    backend: Backend = Backend.REPLAY

    def __post_init__(self):
        if self.finish_reason is not FinishReason.ERROR and not self.text:
            raise ValueError("non-error responses must carry text")
        self.text.encode("utf-8")  # outputs are UTF-8 files; a lone surrogate raises here


def decode_response(payload, *, backend: Backend, latency: float = 0.0) -> ModelResponse:
    """Build a response from a ``{"text", "finish_reason"}`` payload.

    ``finish_reason`` defaults to ``complete``. A payload that is not an
    object with a ``text`` string, names an unknown finish reason, or
    carries text :class:`ModelResponse` rejects raises
    :class:`MalformedResponseError`.
    """
    if not isinstance(payload, dict) or not isinstance(payload.get("text"), str):
        raise MalformedResponseError("payload lacks a 'text' string")
    try:
        finish = FinishReason(payload.get("finish_reason", "complete"))
        return ModelResponse(payload["text"], finish, latency, backend)
    except ValueError as exc:
        raise MalformedResponseError(str(exc)) from exc


class TextGenerator(Protocol):
    """Anything that can answer a prompt bundle."""

    def generate(self, prompt: PromptBundle, params: GenerationParams) -> ModelResponse: ...


class ReplayClient:
    """Deterministic backend answering from a recorded fixture.

    The fixture is a JSON map of hex context hash to
    ``{"text": ..., "finish_reason": ...}``. Every entry is decoded once,
    here, and a malformed one raises :class:`MalformedResponseError`.
    Lookups are pure, so replay is bit-deterministic in any order and
    under any concurrency.
    """

    def __init__(self, fixture: str | Path | Mapping[str, dict]):
        entries = load_fixture(fixture) if isinstance(fixture, (str, Path)) else fixture
        self._responses: dict[str, ModelResponse] = {}
        for key, entry in entries.items():
            try:
                self._responses[key] = decode_response(entry, backend=Backend.REPLAY)
            except MalformedResponseError as exc:
                raise MalformedResponseError(f"fixture entry {key}: {exc}") from exc

    def __len__(self) -> int:
        return len(self._responses)

    def generate(self, prompt: PromptBundle, params: GenerationParams) -> ModelResponse:
        response = self._responses.get(prompt.context_hash)
        if response is None:
            raise FixtureMissError(prompt.context_hash)
        return response


def load_fixture(path: str | Path) -> dict[str, dict]:
    """Read a replay fixture file into a hash-to-entry map."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ClientError(f"fixture {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ClientError(f"fixture {path} must be a JSON object keyed by context hash")
    for key, entry in raw.items():
        if not isinstance(entry, dict) or "text" not in entry:
            raise ClientError(f"fixture entry {key} must be an object with a 'text' field")
    return raw


def record_fixture(
    prompt: PromptBundle,
    response: ModelResponse,
    path: str | Path,
) -> dict[str, dict]:
    """Add or overwrite one fixture entry; returns the updated map.

    The file is rewritten through :func:`write_text_atomic`, so a failed
    write never corrupts an existing fixture.
    """
    path = Path(path)
    entries: dict[str, dict] = {}
    if path.exists():
        entries = load_fixture(path)
    entries[prompt.context_hash] = {
        "text": response.text,
        "finish_reason": response.finish_reason.value,
    }
    write_text_atomic(
        path, json.dumps(entries, indent=2, ensure_ascii=False, sort_keys=True)
    )
    return entries


class LiveClient:
    """HTTP backend with retry on transient failures.

    Transient means HTTP 429 or any 5xx: those are retried up to
    ``MAX_RETRIES`` times with exponential backoff (base 1s, factor 2)
    and full jitter. Other 4xx statuses and timeouts are never retried.
    The API key must be present before any network call is attempted.
    """

    def __init__(
        self,
        api_url: str | None = None,
        api_key: str | None = None,
        session=None,
        sleeper: Callable[[float], None] = time.sleep,
        rng: random.Random | None = None,
    ):
        self.api_url = api_url or os.environ.get(API_URL_ENV, "")
        self.api_key = api_key or os.environ.get(API_KEY_ENV, "")
        if not self.api_key:
            raise AuthError(f"no API key: set {API_KEY_ENV}")
        if not self.api_url:
            raise ClientError(f"no endpoint: set {API_URL_ENV}")
        self._session = session
        self._sleep = sleeper
        self._rng = rng or random.Random()

    def _get_session(self):
        if self._session is None:
            import requests

            self._session = requests.Session()
        return self._session

    def generate(self, prompt: PromptBundle, params: GenerationParams) -> ModelResponse:
        body = {
            "model": params.model_name,
            "prompt": prompt.text,
            "temperature": params.temperature,
            "max_output_tokens": params.max_output_tokens,
        }
        headers = {"Authorization": f"Bearer {self.api_key}"}
        session = self._get_session()
        import requests

        start = time.monotonic()
        last_status = 0
        for attempt in range(MAX_RETRIES + 1):
            try:
                response = session.post(
                    self.api_url, json=body, headers=headers, timeout=params.timeout
                )
            except requests.Timeout as exc:
                raise RequestTimeoutError(f"no answer within {params.timeout}s") from exc
            except requests.RequestException as exc:
                raise TransportError(str(exc)) from exc

            status = response.status_code
            if status == 200:
                try:
                    payload = response.json()
                except (ValueError, RecursionError) as exc:
                    raise MalformedResponseError("provider payload is not JSON") from exc
                return decode_response(
                    payload, backend=Backend.LIVE, latency=time.monotonic() - start
                )
            last_status = status
            if status != 429 and not 500 <= status <= 599:
                raise ProviderError(status, _safe_text(response))
            if attempt < MAX_RETRIES:
                self._sleep(self._rng.uniform(0.0, BACKOFF_BASE * BACKOFF_FACTOR**attempt))

        if last_status == 429:
            raise RateLimitedError(f"still rate limited after {MAX_RETRIES} retries")
        raise ProviderError(last_status, f"still failing after {MAX_RETRIES} retries")


def _safe_text(response) -> str:
    try:
        return response.text[:200]
    except Exception:
        return ""
