"""Uniform access to a vision-capable chat model.

Two backends sit behind one retry loop: a live OpenAI-compatible HTTP
backend (bearer token from FOVLINK_API_KEY, base URL from
FOVLINK_BASE_URL) and a deterministic scripted mock for tests. The mock
holds its script as one flat table, key to reply text or scripted fault,
in which equal texts are one ``str``: a run asks the same question about
the same frame several times, so its replies repeat. The fixture loader
builds that table while the JSON is decoded, each entry checked and
turned into its reply as soon as it is parsed, so no entry dict is ever
held beside it; a script built in code goes through the same entry rule.

Retries apply only to transport-level failures and rate-limit signals,
never to well-formed model replies, with exponential backoff between
attempts, each at most ``threading.TIMEOUT_MAX`` seconds. A faulted
attempt leaves only its kind and detail behind, so no request body
outlives its attempt through a backoff.
HTTP 408, 429 and 5xx are retried; any other 4xx fails after one attempt.

Defaults lean towards determinism: temperature 0, max_tokens 300 (enough
for the coordinate template while still letting verbose-reply failures
happen with live models). Images travel as base64 data URIs without any
resizing; a transformation here would be an undocumented confound. Every
backend gets the scene's ``dataset.Frame``, opened once per scene task.
A backend marked ``simulated`` answers by query key and never looks at
the pixels, so it costs no read. The live backend sends ``Frame.base64``,
which the task's first query encodes from one read before its clock
starts, and splices it into the JSON of a request built with an empty
image: every prompt, run and retry about a frame reuses one encoding, and
the body is byte for byte ``json.dumps(build_chat_request(...))``.

The HTTP stack (``http.client``, ``urllib.request``, ``urllib.error``,
and the ``email`` and ``ssl`` modules they pull in) is imported by the
first live request, not at import or when a ``LiveBackend`` is built: a
mock run, a re-render and the set-up of a live run never load it. A
``LiveBackend`` checks its base URL when it is built, with
``urllib.parse``, which ``pathlib`` has already loaded.
"""

from __future__ import annotations

import base64
import copy
import json
import math
import os
import time
from dataclasses import dataclass
from pathlib import Path
from threading import TIMEOUT_MAX
from urllib.parse import urlsplit

from .dataset import Frame
from .errors import FovlinkError
from .shape import load_json, utf8_encodable

QueryKey = tuple[str, str, int]  # (scene_id, prompt_id, run_idx)


@dataclass(frozen=True, slots=True)
class QueryParams:
    model_name: str = "gpt-4o"
    max_tokens: int = 300
    temperature: float = 0.0
    timeout: float = 60.0
    max_retries: int = 2
    backoff_base: float = 0.5

    def __post_init__(self) -> None:
        # a socket timeout or a sleep longer than TIMEOUT_MAX overflows
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be >= 1")
        if not 0 < self.timeout <= TIMEOUT_MAX:
            raise ValueError(f"timeout must be positive and at most {TIMEOUT_MAX} s")
        if not 0 <= self.temperature < math.inf:
            raise ValueError("temperature must be finite and >= 0")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if not 0 <= self.backoff_base <= TIMEOUT_MAX:
            raise ValueError(f"backoff_base must be from 0 to {TIMEOUT_MAX} s")


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
FAULT_KINDS = tuple(_FAULT_ERRORS)


class _ScriptedFault(str):
    """A scripted fault in a ``MockBackend`` table, by its kind."""


def _reply(key: str | None, entry: object, shared: dict[str, str]) -> str:
    """The reply of one fixture entry: its text (one ``str`` per distinct
    text through ``shared``) or its fault as a ``_ScriptedFault``."""
    if not isinstance(entry, dict) or ("text" in entry) == ("fault" in entry):
        raise MalformedBackendReply(f"fixture entry {key!r} must have exactly one of 'text' or 'fault'")
    if "fault" in entry:
        if entry["fault"] not in FAULT_KINDS:
            raise MalformedBackendReply(f"fixture entry {key!r} has unknown fault {entry['fault']!r}")
        reply = _ScriptedFault(entry["fault"])
    else:
        reply = entry["text"]
        if not isinstance(reply, str):
            raise MalformedBackendReply(f"fixture entry {key!r} has non-string text")
        if not utf8_encodable(reply):
            raise MalformedBackendReply(f"fixture entry {key!r} has text with a lone surrogate")
        reply = shared.setdefault(reply, reply)
    if len(entry) > 1:
        field = next(field for field in entry if field not in ("text", "fault"))
        raise MalformedBackendReply(f"fixture entry {key!r} has unknown field {field!r}")
    return reply


def load_mock_fixture(path: str | Path) -> dict[str, str]:
    """Load a mock script, {"scene|prompt|run": {"text": ...} | {"fault": kind}}, as its
    reply table; each entry becomes its reply as soon as it is decoded."""
    shared: dict[str, str] = {}

    def as_reply(obj: dict) -> dict | tuple[str]:
        # a 1-tuple, unlike any JSON value; an object that is no entry stays
        # a dict, to be rejected below under its key
        try:
            return (_reply(None, obj, shared),)
        except MalformedBackendReply:
            return obj

    try:
        text = Path(path).read_text(encoding="utf-8")
        table = load_json(text, object_hook=as_reply)
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise MalformedBackendReply(f"mock fixture is not valid JSON: {e}") from e
    if isinstance(table, tuple):  # the root is itself one entry: reject it by its key
        table = json.loads(text)
    if not isinstance(table, dict):
        raise MalformedBackendReply("mock fixture must be a JSON object")
    for key, value in table.items():
        table[key] = value[0] if type(value) is tuple else _reply(key, value, shared)
    return table


def mock_lookup(script: dict[str, dict | str], key: QueryKey) -> dict | str:
    """Exact scripted entry for a key; a missing key is an error, not a default."""
    scene_id, prompt_id, run_idx = key
    flat = f"{scene_id}|{prompt_id}|{run_idx}"
    try:
        return script[flat]
    except KeyError:
        raise UnscriptedKey(f"no scripted reply for {flat!r}") from None


class MockBackend:
    """Replays a fixture script; read-only after load, safe to share.

    ``table`` maps each key to its reply text, or to a ``_ScriptedFault``;
    equal texts are one ``str`` object. A script built in code is checked by
    the loader's entry rule; ``from_file`` keeps the table the loader built.
    """

    simulated = True
    backend_id = "mock"

    def __init__(self, script: dict[str, dict]) -> None:
        shared: dict[str, str] = {}
        self.table = {key: _reply(key, entry, shared) for key, entry in script.items()}

    @classmethod
    def from_file(cls, path: str | Path) -> MockBackend:
        backend = cls.__new__(cls)
        backend.table = load_mock_fixture(path)
        return backend

    def complete(self, image: bytes | Frame, prompt: str, params: QueryParams, key: QueryKey | None) -> str:
        if key is None:
            raise UnscriptedKey("mock backend requires a query key")
        reply = mock_lookup(self.table, key)
        if isinstance(reply, _ScriptedFault):
            raise _BackendFault(str(reply), f"scripted fault for {key}")
        return reply


# where the encoded image ends in the JSON of a chat request
_IMAGE_URL_END = b';base64,"'


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
        data = load_json(body)
        content = data["choices"][0]["message"]["content"]
    except (UnicodeDecodeError, json.JSONDecodeError, KeyError, IndexError, TypeError) as e:
        raise MalformedBackendReply(f"unexpected completion payload: {e}") from e
    if not isinstance(content, str):
        raise MalformedBackendReply("completion content is not text")
    if not utf8_encodable(content):
        raise MalformedBackendReply("completion content holds a lone surrogate")
    return content


class LiveBackend:
    """OpenAI-compatible chat-completions backend over plain HTTP."""

    simulated = False

    def __init__(self, base_url: str | None = None, api_key: str | None = None) -> None:
        base = base_url or os.environ.get("FOVLINK_BASE_URL")
        if not base:
            raise TransportError("no base URL: set FOVLINK_BASE_URL or pass base_url")
        try:
            url = urlsplit(base)
            url.port  # raises ValueError for a port that does not parse
        except ValueError as e:
            raise TransportError(f"malformed base URL {base!r}: {e}") from None
        if url.scheme not in ("http", "https") or not url.hostname:
            raise TransportError(f"base URL {base!r} needs an http or https scheme and a host")
        self.base_url = base.rstrip("/")
        self.api_key = api_key or os.environ.get("FOVLINK_API_KEY", "")
        self.backend_id = f"live:{self.base_url}"

    def complete(self, image: bytes | Frame, prompt: str, params: QueryParams, key: QueryKey | None) -> str:
        # imported here, on the first request, so that neither a simulated run
        # nor building this backend pays for loading the HTTP stack
        import http.client
        import urllib.error
        import urllib.request

        # a Frame keeps its encoding, made by its first request; encoded
        # before the try, a frame that cannot be read is no transport fault
        encoded = image.base64 if isinstance(image, Frame) else base64.b64encode(image)
        # base64 needs no JSON escaping and no caller text follows the image
        # URL, so the body is the request's JSON with the encoding spliced in
        template = json.dumps(build_chat_request(b"", prompt, params)).encode("utf-8")
        cut = template.rindex(_IMAGE_URL_END) + len(_IMAGE_URL_END) - 1
        body = b"".join((template[:cut], encoded, template[cut:]))
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
            # the error holds the reply and its socket, which no one reads
            e.close()
            if e.code == 429:
                raise _BackendFault("rate_limit", f"HTTP 429: {e.reason}") from e
            if 400 <= e.code < 500 and e.code != 408:
                # the same request would be refused again: no retry
                raise TransportError(f"HTTP {e.code}: {e.reason} (client error, not retried)") from e
            raise _BackendFault("transport", f"HTTP {e.code}: {e.reason}") from e
        except TimeoutError as e:
            raise _BackendFault("timeout", str(e) or "request timed out") from e
        except urllib.error.URLError as e:
            if isinstance(e.reason, TimeoutError):
                raise _BackendFault("timeout", str(e.reason)) from e
            raise _BackendFault("transport", str(e.reason)) from e
        except (http.client.HTTPException, OSError) as e:
            # urlopen wraps only send-side errors; a dropped connection, a
            # short body or an unreachable host surfaces while the reply is read
            raise _BackendFault("transport", f"{type(e).__name__}: {e}") from e


class Gateway:
    """Retry loop and accounting around a backend.

    Shareable across threads: per-call state lives on the stack, the mock
    script is read-only, and the live path opens one connection per call.
    A connection the server drops, or a reply body cut short, is a
    transport fault and is retried like any other.

    The view ``lending(spare)`` returns hands each backoff to
    ``spare(deadline)`` first, with ``deadline`` the ``time.monotonic()`` at
    which the backoff ends, so its caller can do other work meanwhile;
    it then sleeps out what is left of the backoff, if anything.
    """

    _spare = None  # what a view made by ``lending`` hands its backoffs to

    def __init__(self, backend) -> None:
        self.backend = backend

    def lending(self, spare) -> Gateway:
        """This gateway, of the same class, calling ``spare(deadline)`` at each backoff."""
        view = copy.copy(self)
        view._spare = spare
        return view

    def _backoff(self, seconds: float) -> None:
        if self._spare is not None:
            deadline = time.monotonic() + seconds
            self._spare(deadline)
            seconds = max(deadline - time.monotonic(), 0.0)
        time.sleep(seconds)

    def send_vision_query(
        self,
        image: bytes | Frame,
        prompt: str,
        params: QueryParams,
        key: QueryKey | None = None,
    ) -> RawResponse:
        """Send one image+prompt query, returning the reply text verbatim.

        ``image`` is the scene's ``Frame``, or bytes from a direct caller.
        A simulated backend never looks at the pixels; the live backend
        sends the frame's base64 encoding, made once per frame before the
        clock starts, so ``latency`` (first attempt to reply, retries and
        backoffs included, and so whatever a lending view's ``spare`` ran
        past a backoff) leaves out the frame's read and encoding.

        Retries only _BackendFault signals (transport, timeout, rate
        limit), up to params.max_retries extra attempts with exponential
        backoff, each at most ``TIMEOUT_MAX`` seconds. Raised gateway
        errors carry the per-attempt transcript.
        """
        if not image:
            raise ValueError("image must be non-empty")
        if not prompt:
            raise ValueError("prompt must be non-empty")

        if isinstance(image, Frame) and not self.backend.simulated:
            image.base64  # read and encoded here, before the clock starts
        attempts: list[str] = []
        started = time.monotonic()
        kind = detail = ""
        for attempt in range(1, params.max_retries + 2):
            attempt_start = time.monotonic()
            try:
                text = self.backend.complete(image, prompt, params, key)
            except _BackendFault as fault:
                # the fault's traceback holds the attempt's locals, the request
                # body among them: keep its words, and back off once it is gone
                kind, detail = fault.kind, fault.detail
            except GatewayError as e:
                attempts.append(f"attempt {attempt}: {type(e).__name__} ({e})")
                e.attempts = attempts
                raise
            else:
                latency = 0.0 if self.backend.simulated else time.monotonic() - started
                return RawResponse(
                    text=text,
                    latency=latency,
                    attempt_count=attempt,
                    backend_id=self.backend.backend_id,
                )
            attempts.append(
                f"attempt {attempt}: {kind} after {time.monotonic() - attempt_start:.3f}s ({detail})"
            )
            if attempt <= params.max_retries and not self.backend.simulated:
                # 2.0 ** 1023 is the largest power of two a float holds
                self._backoff(min(params.backoff_base * 2.0 ** min(attempt - 1, 1023), TIMEOUT_MAX))

        raise _FAULT_ERRORS[kind](
            f"{kind} after {params.max_retries + 1} attempts: {detail}",
            attempts,
        )
