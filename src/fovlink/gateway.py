"""Uniform access to a vision-capable chat model.

Two backends sit behind one retry loop: a live OpenAI-compatible HTTP
backend (bearer token from FOVLINK_API_KEY, base URL from
FOVLINK_BASE_URL) and a deterministic scripted mock for tests. Retries
apply only to transport-level failures and rate-limit signals, never to
well-formed model replies, with exponential backoff between attempts.

Defaults lean towards determinism: temperature 0, max_tokens 300 (enough
for the coordinate template while still letting verbose-reply failures
happen with live models). Images travel as base64 data URIs without any
resizing; a transformation here would be an undocumented confound.
"""

from __future__ import annotations

import base64
import http.client
import json
import os
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from pathlib import Path

from .errors import FovlinkError

QueryKey = tuple[str, str, int]  # (scene_id, prompt_id, run_idx)

FAULT_KINDS = ("timeout", "rate_limit", "transport")


@dataclass(frozen=True, slots=True)
class QueryParams:
    model_name: str = "gpt-4o"
    max_tokens: int = 300
    temperature: float = 0.0
    timeout: float = 60.0
    max_retries: int = 2
    backoff_base: float = 0.5

    def __post_init__(self) -> None:
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be >= 1")
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")


@dataclass(frozen=True, slots=True)
class RawResponse:
    text: str
    latency: float
    attempt_count: int
    backend_id: str


class GatewayError(FovlinkError):
    """Base class for gateway failures; carries the attempt transcript."""

    def __init__(self, message: str, attempts: list[str] | None = None) -> None:
        super().__init__(message)
        self.attempts: list[str] = attempts or []


class Timeout(GatewayError):
    pass


class RateLimitedExhausted(GatewayError):
    pass


class TransportError(GatewayError):
    pass


class MalformedBackendReply(GatewayError):
    pass


class UnscriptedKey(GatewayError):
    """Mock fixture has no entry for the requested key (nothing is fabricated)."""


class _BackendFault(Exception):
    """Internal retryable signal raised by backends."""

    def __init__(self, kind: str, detail: str) -> None:
        super().__init__(f"{kind}: {detail}")
        self.kind = kind
        self.detail = detail


_FAULT_ERRORS = {
    "timeout": Timeout,
    "rate_limit": RateLimitedExhausted,
    "transport": TransportError,
}


def load_mock_fixture(path: str | Path) -> dict[str, dict]:
    """Load a mock script: {"scene|prompt|run": {"text": ...} | {"fault": kind}}."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise MalformedBackendReply(f"mock fixture is not valid JSON: {e}") from e
    if not isinstance(raw, dict):
        raise MalformedBackendReply("mock fixture must be a JSON object")
    for key, entry in raw.items():
        if not isinstance(entry, dict) or ("text" not in entry) == ("fault" not in entry):
            raise MalformedBackendReply(
                f"fixture entry {key!r} must have exactly one of 'text' or 'fault'"
            )
        if "text" in entry and not isinstance(entry["text"], str):
            raise MalformedBackendReply(f"fixture entry {key!r} has non-string text")
        if "fault" in entry and entry["fault"] not in FAULT_KINDS:
            raise MalformedBackendReply(
                f"fixture entry {key!r} has unknown fault {entry['fault']!r}"
            )
    return raw


def mock_lookup(script: dict[str, dict], key: QueryKey) -> dict:
    """Exact scripted entry for a key; a missing key is an error, not a default."""
    scene_id, prompt_id, run_idx = key
    flat = f"{scene_id}|{prompt_id}|{run_idx}"
    try:
        return script[flat]
    except KeyError:
        raise UnscriptedKey(f"no scripted reply for {flat!r}") from None


class MockBackend:
    """Replays a fixture script; read-only after load, safe to share."""

    simulated = True
    backend_id = "mock"

    def __init__(self, script: dict[str, dict]) -> None:
        self.script = script

    @classmethod
    def from_file(cls, path: str | Path) -> MockBackend:
        return cls(load_mock_fixture(path))

    def complete(self, image: bytes, prompt: str, params: QueryParams, key: QueryKey | None) -> str:
        if key is None:
            raise UnscriptedKey("mock backend requires a query key")
        entry = mock_lookup(self.script, key)
        if "fault" in entry:
            raise _BackendFault(entry["fault"], f"scripted fault for {key}")
        return entry["text"]


def build_chat_request(image: bytes, prompt: str, params: QueryParams) -> dict:
    """Request body for POST <base_url>/chat/completions.

    Pure so tests can verify the payload is passed through unmodified
    (base64 of the exact caller bytes, prompt verbatim).
    """
    encoded = base64.b64encode(image).decode("ascii")
    return {
        "model": params.model_name,
        "messages": [
            {
                "role": "user",
                "content": [
                    {"type": "text", "text": prompt},
                    {
                        "type": "image_url",
                        "image_url": {"url": f"data:image/jpeg;base64,{encoded}"},
                    },
                ],
            }
        ],
        "max_tokens": params.max_tokens,
        "temperature": params.temperature,
    }


def parse_chat_reply(body: bytes) -> str:
    try:
        data = json.loads(body)
        content = data["choices"][0]["message"]["content"]
    except (json.JSONDecodeError, KeyError, IndexError, TypeError) as e:
        raise MalformedBackendReply(f"unexpected completion payload: {e}") from e
    if not isinstance(content, str):
        raise MalformedBackendReply("completion content is not text")
    return content


class LiveBackend:
    """OpenAI-compatible chat-completions backend over plain HTTP."""

    simulated = False

    def __init__(self, base_url: str | None = None, api_key: str | None = None) -> None:
        base = base_url or os.environ.get("FOVLINK_BASE_URL")
        if not base:
            raise TransportError("no base URL: set FOVLINK_BASE_URL or pass base_url")
        self.base_url = base.rstrip("/")
        self.api_key = api_key or os.environ.get("FOVLINK_API_KEY", "")
        self.backend_id = f"live:{self.base_url}"

    def complete(self, image: bytes, prompt: str, params: QueryParams, key: QueryKey | None) -> str:
        body = json.dumps(build_chat_request(image, prompt, params)).encode("utf-8")
        request = urllib.request.Request(
            f"{self.base_url}/chat/completions",
            data=body,
            headers={
                "Content-Type": "application/json",
                "Authorization": f"Bearer {self.api_key}",
            },
            method="POST",
        )
        try:
            with urllib.request.urlopen(request, timeout=params.timeout) as reply:
                return parse_chat_reply(reply.read())
        except urllib.error.HTTPError as e:
            if e.code == 429:
                raise _BackendFault("rate_limit", f"HTTP 429: {e.reason}") from e
            raise _BackendFault("transport", f"HTTP {e.code}: {e.reason}") from e
        except TimeoutError as e:
            raise _BackendFault("timeout", str(e) or "request timed out") from e
        except urllib.error.URLError as e:
            if isinstance(e.reason, TimeoutError):
                raise _BackendFault("timeout", str(e.reason)) from e
            raise _BackendFault("transport", str(e.reason)) from e
        except (http.client.HTTPException, ConnectionError) as e:
            # urlopen wraps only send-side errors; a dropped connection or a
            # short body surfaces while the reply is read
            raise _BackendFault("transport", f"{type(e).__name__}: {e}") from e


class Gateway:
    """Retry loop and accounting around a backend.

    Shareable across threads: per-call state lives on the stack, the mock
    script is read-only, and the live path opens one connection per call.
    A connection the server drops, or a reply body cut short, is a
    transport fault and is retried like any other.
    """

    def __init__(self, backend) -> None:
        self.backend = backend

    def send_vision_query(
        self,
        image: bytes,
        prompt: str,
        params: QueryParams,
        key: QueryKey | None = None,
    ) -> RawResponse:
        """Send one image+prompt query, returning the reply text verbatim.

        Retries only _BackendFault signals (transport, timeout, rate
        limit), up to params.max_retries extra attempts with exponential
        backoff. Raised gateway errors carry the per-attempt transcript.
        """
        if not image:
            raise ValueError("image must be non-empty")
        if not prompt:
            raise ValueError("prompt must be non-empty")

        attempts: list[str] = []
        started = time.monotonic()
        last_fault: _BackendFault | None = None
        for attempt in range(1, params.max_retries + 2):
            attempt_start = time.monotonic()
            try:
                text = self.backend.complete(image, prompt, params, key)
            except _BackendFault as fault:
                attempts.append(
                    f"attempt {attempt}: {fault.kind} after "
                    f"{time.monotonic() - attempt_start:.3f}s ({fault.detail})"
                )
                last_fault = fault
                if attempt <= params.max_retries and not self.backend.simulated:
                    time.sleep(params.backoff_base * 2 ** (attempt - 1))
                continue
            except GatewayError as e:
                attempts.append(f"attempt {attempt}: {type(e).__name__} ({e})")
                e.attempts = attempts
                raise
            latency = 0.0 if self.backend.simulated else time.monotonic() - started
            return RawResponse(
                text=text,
                latency=latency,
                attempt_count=attempt,
                backend_id=self.backend.backend_id,
            )

        assert last_fault is not None
        error_cls = _FAULT_ERRORS[last_fault.kind]
        raise error_cls(
            f"{last_fault.kind} after {params.max_retries + 1} attempts: {last_fault.detail}",
            attempts,
        )
