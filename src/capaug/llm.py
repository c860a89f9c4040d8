"""Completion gateway: a small HTTP client plus a deterministic offline mock.

The wire contract is a single POST with JSON body
``{"model", "prompt", "temperature", "max_tokens"}`` answered by ``{"text"}``,
which adapts to any local completion server through a thin shim. Credentials
are only ever read from an environment variable named in the config, never
stored in config files.
"""

from __future__ import annotations

import hashlib
import logging
import os
import random
import threading
import time
from dataclasses import dataclass, fields

import requests

logger = logging.getLogger(__name__)

DEFAULT_MODEL_ID = "phi-2"
DEFAULT_TEMPERATURE = 0.7
DEFAULT_MAX_TOKENS = 256
DEFAULT_TIMEOUT_S = 30.0
DEFAULT_MAX_RETRIES = 3
DEFAULT_MAX_CONCURRENT = 4
BACKOFF_BASE_S = 1.0

MOCK_MODEL_ID = "mock"

_RETRYABLE_STATUS = {429, 500, 502, 503, 504}


class LlmError(Exception):
    """Base class for gateway failures."""


class LlmNetworkError(LlmError):
    """Connection or retryable HTTP failure that survived all retries."""


class LlmTimeoutError(LlmNetworkError):
    """Request exceeded the configured timeout on every attempt."""


class LlmProtocolError(LlmError):
    """Endpoint answered but not with the expected JSON shape."""


class EmptyCompletionError(LlmError):
    """Endpoint returned an empty completion body."""


@dataclass(frozen=True)
class LlmConfig:
    endpoint_url: str = ""
    model_id: str = DEFAULT_MODEL_ID
    temperature: float = DEFAULT_TEMPERATURE
    max_tokens: int = DEFAULT_MAX_TOKENS
    timeout_s: float = DEFAULT_TIMEOUT_S
    max_retries: int = DEFAULT_MAX_RETRIES
    max_concurrent_requests: int = DEFAULT_MAX_CONCURRENT
    api_key_env: str | None = None

    def __post_init__(self):
        if self.timeout_s <= 0:
            raise ValueError("timeout must be positive")
        if self.max_concurrent_requests < 1:
            raise ValueError("max_concurrent_requests must be >= 1")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")

    def to_dict(self) -> dict:
        return vars(self).copy()

    @classmethod
    def from_dict(cls, doc: dict) -> "LlmConfig":
        return cls(**{f.name: doc[f.name] for f in fields(cls) if f.name in doc})


@dataclass(frozen=True)
class RawResponse:
    text: str
    model_id: str
    latency_s: float
    attempt: int


class LlmClient:
    """Shareable HTTP completion client with retries and an in-flight bound.

    Retries connection errors, timeouts and retryable HTTP statuses with
    exponential backoff (base 1 s, factor 2, full jitter). Other client-side
    HTTP errors and malformed response bodies are raised immediately.
    """

    def __init__(self, config: LlmConfig):
        if not config.endpoint_url:
            raise ValueError("endpoint_url is required for the HTTP client")
        self.config = config
        self._semaphore = threading.BoundedSemaphore(config.max_concurrent_requests)
        self._session = requests.Session()

    def _headers(self) -> dict:
        headers = {"Content-Type": "application/json"}
        if self.config.api_key_env:
            key = os.environ.get(self.config.api_key_env)
            if key is None:
                raise ValueError(
                    f"credential environment variable {self.config.api_key_env!r} is not set"
                )
            headers["Authorization"] = f"Bearer {key}"
        return headers

    def complete(self, prompt: str) -> RawResponse:
        if not prompt:
            raise ValueError("prompt is empty")
        cfg = self.config
        body = {
            "model": cfg.model_id,
            "prompt": prompt,
            "temperature": cfg.temperature,
            "max_tokens": cfg.max_tokens,
        }
        headers = self._headers()
        last_error: Exception | None = None
        timed_out = False
        with self._semaphore:
            for attempt in range(1, cfg.max_retries + 2):
                start = time.monotonic()
                try:
                    resp = self._session.post(
                        cfg.endpoint_url, json=body, headers=headers, timeout=cfg.timeout_s
                    )
                except requests.Timeout as exc:
                    last_error, timed_out = exc, True
                except requests.RequestException as exc:
                    last_error = exc
                else:
                    if resp.status_code in _RETRYABLE_STATUS:
                        last_error = LlmNetworkError(f"HTTP {resp.status_code}")
                    elif resp.status_code != 200:
                        raise LlmProtocolError(f"HTTP {resp.status_code}: {resp.text[:200]}")
                    else:
                        return self._parse(resp, time.monotonic() - start, attempt)
                if attempt <= cfg.max_retries:
                    delay = random.uniform(0.0, BACKOFF_BASE_S * 2.0 ** (attempt - 1))
                    logger.warning("completion attempt %d failed (%s); retrying in %.2fs",
                                   attempt, last_error, delay)
                    time.sleep(delay)
        if timed_out:
            raise LlmTimeoutError(f"no response within {cfg.timeout_s}s "
                                  f"after {cfg.max_retries + 1} attempts") from last_error
        raise LlmNetworkError(f"request failed after {cfg.max_retries + 1} attempts: "
                              f"{last_error}") from last_error

    def _parse(self, resp, latency: float, attempt: int) -> RawResponse:
        try:
            doc = resp.json()
            text = doc["text"]
        except (ValueError, KeyError, TypeError) as exc:
            raise LlmProtocolError(f"malformed completion response: {exc}") from exc
        if not isinstance(text, str):
            raise LlmProtocolError("completion 'text' field is not a string")
        text = text.rstrip()
        if not text:
            raise EmptyCompletionError("endpoint returned an empty completion")
        return RawResponse(text=text, model_id=self.config.model_id,
                           latency_s=latency, attempt=attempt)


_SUBJECTS = [
    "A dog", "The television", "A car engine", "Rain", "A crowd", "Someone",
    "An alarm", "The wind", "A bird", "Water", "A train", "Thunder",
]
_VERBS = [
    "barks", "hums", "rattles", "falls", "cheers", "whistles",
    "rings", "howls", "chirps", "drips", "rumbles", "crackles",
]
_TAILS = [
    "loudly", "in the distance", "steadily", "softly", "over and over",
    "with a sharp echo", "near a busy street", "through the night",
]
_LONG_FILLER = (
    "while the room slowly fills with layers of overlapping background noise "
    "that keep shifting and swelling without ever settling down"
)


def _plain_line(rng: random.Random) -> str:
    return f"{rng.choice(_SUBJECTS)} {rng.choice(_VERBS)} {rng.choice(_TAILS)}."


def mock_complete(prompt: str, seed: int) -> RawResponse:
    """Deterministic offline stand-in for :func:`complete`.

    Output is a pure function of (prompt, seed) and mimics a numbered
    multi-caption response. By construction a corpus of responses contains
    duplicated lines, lines with the word "heard", bare "Failure" lines, and
    over/under-length captions, so downstream filtering is exercised.
    """
    digest = hashlib.blake2b(f"{seed}\x00{prompt}".encode("utf-8"), digest_size=16).digest()
    rng = random.Random(int.from_bytes(digest, "big"))

    lines: list[str] = []
    texts: list[str] = []
    n_lines = rng.randint(4, 6)
    for i in range(n_lines):
        roll = rng.random()
        if roll < 0.10:
            text = "Failure"
        elif roll < 0.22:
            text = (f"The sound of {rng.choice(_SUBJECTS).lower()} is heard "
                    f"{rng.choice(_TAILS)}.")
        elif roll < 0.34 and texts:
            text = rng.choice(texts)
        elif roll < 0.42:
            text = f"{rng.choice(_SUBJECTS)} {rng.choice(_VERBS)} {_LONG_FILLER}."
        elif roll < 0.48:
            text = "Loud noise."
        else:
            text = _plain_line(rng)
        texts.append(text)
        lines.append(f"{chr(0x2460 + i)} {text}")
    return RawResponse(text="\n".join(lines), model_id=MOCK_MODEL_ID,
                       latency_s=0.0, attempt=1)


class MockLlmClient:
    """Drop-in for :class:`LlmClient` backed by :func:`mock_complete`."""

    def __init__(self, seed: int):
        self.seed = seed

    def complete(self, prompt: str) -> RawResponse:
        return mock_complete(prompt, self.seed)
