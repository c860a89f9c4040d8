"""Completion gateway: a small HTTP client plus a deterministic offline mock.

The wire contract is a single POST with JSON body
``{"model", "prompt", "temperature", "max_tokens"}`` answered by ``{"text"}``,
which adapts to any local completion server through a thin shim. Credentials
are only ever read from an environment variable named in the config, never
stored in config files. The client speaks HTTP/1.1 through ``http.client``
directly: no proxy, no redirects, and HTTPS verified against the system CA
store.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import random
import selectors
import threading
import time
import urllib.parse
from dataclasses import dataclass
from functools import partial

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
        for names, kinds, what in ((("endpoint_url", "model_id"), str, "a string"),
                                   (("api_key_env",), (str, type(None)), "a string or null"),
                                   (("max_tokens", "max_retries", "max_concurrent_requests"),
                                    int, "an integer"),
                                   (("temperature", "timeout_s"), (int, float), "a number")):
            for name in names:
                value = getattr(self, name)
                if isinstance(value, bool) or not isinstance(value, kinds):  # a bool is no number
                    raise ValueError(f"llm {name} must be {what}, not {value!r}")
        # NaN passes a plain comparison, and a non-finite float cannot go into the JSON body
        if not (math.isfinite(self.timeout_s) and self.timeout_s > 0):
            raise ValueError("timeout must be positive and finite")
        if self.max_concurrent_requests < 1:
            raise ValueError("max_concurrent_requests must be >= 1")
        if not (math.isfinite(self.temperature) and self.temperature >= 0):
            raise ValueError("temperature must be finite and >= 0")
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")

    def to_dict(self) -> dict:
        return vars(self).copy()

    @classmethod
    def from_dict(cls, doc: dict) -> "LlmConfig":
        unknown = sorted(set(doc) - set(vars(cls())))
        if unknown:
            raise ValueError(f"unknown llm keys {unknown}")
        return cls(**doc)


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

    Requests go over keep-alive connections from a pool of at most
    ``max_concurrent_requests``. :meth:`close` closes the idle ones; call it
    once no completion is in flight.
    """

    def __init__(self, config: LlmConfig):
        # imported here, not with the module: it loads ssl and email, and the
        # mock backend and evaluation never open a connection
        import http.client
        if not config.endpoint_url:
            raise ValueError("endpoint_url is required for the HTTP client")
        url = urllib.parse.urlsplit(config.endpoint_url)
        if url.scheme not in ("http", "https") or not url.hostname or url.username:
            raise ValueError(f"endpoint_url {config.endpoint_url!r} is not an http:// or "
                             "https:// URL with a host and no credentials")
        self.config = config
        https = url.scheme == "https"
        self._new_connection = partial(
            http.client.HTTPSConnection if https else http.client.HTTPConnection,
            url.hostname, url.port or (443 if https else 80), timeout=config.timeout_s)
        self._path = url.path or "/"
        if url.query:
            self._path += "?" + url.query
        self._semaphore = threading.BoundedSemaphore(config.max_concurrent_requests)
        self._idle: list[http.client.HTTPConnection] = []
        self._idle_lock = threading.Lock()

    def close(self) -> None:
        """Close the pooled idle connections."""
        with self._idle_lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

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

    def _connection(self) -> http.client.HTTPConnection:
        """An idle pooled connection the server has not closed, else a new one."""
        while True:
            with self._idle_lock:
                if not self._idle:
                    break
                conn = self._idle.pop()
            # a readable idle socket has hit EOF (or holds bytes nobody asked for)
            with selectors.DefaultSelector() as selector:
                selector.register(conn.sock, selectors.EVENT_READ)
                if not selector.select(0):
                    return conn
            conn.close()
        return self._new_connection()

    def _post(self, body: bytes, headers: dict) -> tuple[int, bytes]:
        """One POST on a pooled connection: the status and the whole response body."""
        conn = self._connection()
        try:
            conn.request("POST", self._path, body=body, headers=headers)
            resp = conn.getresponse()
            payload = resp.read()
        except BaseException:
            conn.close()
            raise
        if resp.will_close:
            conn.close()
        else:
            with self._idle_lock:
                self._idle.append(conn)
        return resp.status, payload

    def complete(self, prompt: str) -> RawResponse:
        from http.client import HTTPException
        if not prompt:
            raise ValueError("prompt is empty")
        cfg = self.config
        body = json.dumps({
            "model": cfg.model_id,
            "prompt": prompt,
            "temperature": cfg.temperature,
            "max_tokens": cfg.max_tokens,
        }).encode("utf-8")
        headers = self._headers()
        last_error: Exception | None = None
        timed_out = False
        with self._semaphore:
            for attempt in range(1, cfg.max_retries + 2):
                start = time.monotonic()
                try:
                    status, payload = self._post(body, headers)
                except TimeoutError as exc:
                    last_error, timed_out = exc, True
                except (OSError, HTTPException) as exc:
                    last_error = exc
                else:
                    if status in _RETRYABLE_STATUS:
                        last_error = LlmNetworkError(f"HTTP {status}")
                    elif status != 200:
                        text = payload.decode("utf-8", "replace")
                        raise LlmProtocolError(f"HTTP {status}: {text[:200]}")
                    else:
                        return self._parse(payload, time.monotonic() - start, attempt)
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

    def _parse(self, payload: bytes, latency: float, attempt: int) -> RawResponse:
        try:
            text = json.loads(payload)["text"]
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

    def close(self) -> None:
        """Nothing to release; here so that either client can be closed."""
