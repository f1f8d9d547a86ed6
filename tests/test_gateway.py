from __future__ import annotations

import base64
import errno
import hashlib
import json
import math
import re
import socket
import time
import tracemalloc
import weakref
from collections import Counter
from threading import TIMEOUT_MAX

import pytest

from fovlink.dataset import Frame, SceneRecord
from fovlink.gateway import (
    LiveBackend,
    Gateway,
    MalformedBackendReply,
    MockBackend,
    QueryParams,
    RateLimitedExhausted,
    Timeout,
    TransportError,
    UnscriptedKey,
    _BackendFault,
    _ScriptedFault,
    build_chat_request,
    load_mock_fixture,
    mock_lookup,
    parse_chat_reply,
)

from conftest import LoopbackServer, http_reply, script_key, write_fixture

PARAMS = QueryParams(max_retries=2, backoff_base=0.0)


class FlakyBackend:
    """Fails the first N calls with a given fault kind, then succeeds."""

    simulated = True
    backend_id = "flaky"

    def __init__(self, failures: int, kind: str = "rate_limit", text: str = "ok") -> None:
        self.remaining = failures
        self.kind = kind
        self.text = text
        self.calls = 0

    def complete(self, image, prompt, params, key):
        self.calls += 1
        if self.remaining > 0:
            self.remaining -= 1
            raise _BackendFault(self.kind, "scripted flakiness")
        return self.text


class TestMockBackend:
    def test_scripted_reply_byte_identical(self):
        script = {script_key("scene_007", "BIN", 0): {"text": "yes"}}
        gateway = Gateway(MockBackend(script))
        response = gateway.send_vision_query(b"img", "prompt", PARAMS, ("scene_007", "BIN", 0))
        assert response.text == "yes"
        assert response.attempt_count == 1
        assert response.latency == 0.0
        assert response.backend_id == "mock"

    def test_unscripted_key(self):
        gateway = Gateway(MockBackend({}))
        with pytest.raises(UnscriptedKey):
            gateway.send_vision_query(b"img", "prompt", PARAMS, ("ghost", "BIN", 0))

    def test_a_query_with_no_key(self):
        gateway = Gateway(MockBackend({}))
        with pytest.raises(UnscriptedKey, match="mock backend requires a query key"):
            gateway.send_vision_query(b"img", "prompt", PARAMS)

    def test_mock_lookup_direct(self):
        script = {script_key("s", "P1", 2): {"text": "(0.1,0.1), (0.2,0.2)"}}
        assert mock_lookup(script, ("s", "P1", 2))["text"] == "(0.1,0.1), (0.2,0.2)"
        with pytest.raises(UnscriptedKey):
            mock_lookup(script, ("s", "P1", 3))

    @pytest.mark.parametrize(
        "kind,error",
        [("timeout", Timeout), ("rate_limit", RateLimitedExhausted), ("transport", TransportError)],
    )
    def test_scripted_fault_surfaces_after_retries(self, kind, error):
        script = {script_key("s", "BIN", 0): {"fault": kind}}
        gateway = Gateway(MockBackend(script))
        with pytest.raises(error) as exc:
            gateway.send_vision_query(b"img", "prompt", PARAMS, ("s", "BIN", 0))
        # transcript records one line per attempt (initial + 2 retries)
        assert len(exc.value.attempts) == 3

    def test_fixture_loader_round_trip(self, tmp_path):
        script = {script_key("s", "BIN", 0): {"text": "yes"}, script_key("s", "BIN", 1): {"fault": "timeout"}}
        path = tmp_path / "fixture.json"
        path.write_text(json.dumps(script), encoding="utf-8")
        table = load_mock_fixture(path)
        assert table == {script_key("s", "BIN", 0): "yes", script_key("s", "BIN", 1): "timeout"}
        assert type(table[script_key("s", "BIN", 0)]) is str
        assert type(table[script_key("s", "BIN", 1)]) is _ScriptedFault
        assert MockBackend.from_file(path).table == table == MockBackend(script).table

    @pytest.mark.parametrize(
        "entry",
        [{"text": "a", "fault": "timeout"}, {}, {"fault": "weird"}, {"text": 5}, {"text": "a", "note": 1}],
    )
    def test_fixture_loader_rejects_bad_entries(self, tmp_path, entry):
        path = tmp_path / "fixture.json"
        path.write_text(json.dumps({"k": entry}), encoding="utf-8")
        with pytest.raises(MalformedBackendReply):
            load_mock_fixture(path)

    @pytest.mark.parametrize(
        "entry,message",
        [
            ({"text": "a", "fault": "timeout"}, "must have exactly one of 'text' or 'fault'"),
            ({}, "must have exactly one of 'text' or 'fault'"),
            ("yes", "must have exactly one of 'text' or 'fault'"),
            ({"fault": "weird"}, "has unknown fault 'weird'"),
            ({"text": 5}, "has non-string text"),
            ({"text": "yes \ud800"}, "has text with a lone surrogate"),
            ({"text": "a", "note": 1}, "has unknown field 'note'"),
            ({"fault": "timeout", "note": 1}, "has unknown field 'note'"),
        ],
    )
    def test_a_script_built_in_code_follows_the_fixture_entry_rule(self, tmp_path, entry, message):
        with pytest.raises(MalformedBackendReply) as built:
            MockBackend({"k": entry})
        assert str(built.value) == f"fixture entry 'k' {message}"
        with pytest.raises(MalformedBackendReply) as loaded:
            load_mock_fixture(write_fixture(tmp_path, {"k": entry}))
        assert str(loaded.value) == str(built.value)

    @pytest.mark.parametrize(
        "raw,message",
        [
            ('{"text": "yes"}', "fixture entry 'text' must have exactly one of 'text' or 'fault'"),
            ('{"fault": "timeout"}', "fixture entry 'fault' must have exactly one of 'text' or 'fault'"),
            ('{"k": {"text": "a"}, "text": "b"}', "fixture entry 'text' must have exactly one of 'text' or 'fault'"),
            ('{"k": [{"text": "a"}]}', "fixture entry 'k' must have exactly one of 'text' or 'fault'"),
            ('{"k": {"text": {"text": "a"}}}', "fixture entry 'k' has non-string text"),
            ("[1]", "mock fixture must be a JSON object"),
            ('[{"text": "a"}]', "mock fixture must be a JSON object"),
        ],
        ids=["text-root", "fault-root", "root-with-text-key", "entry-in-array", "entry-as-text", "array", "array-of-entries"],
    )
    def test_a_root_that_is_no_script_keeps_its_message(self, tmp_path, raw, message):
        path = tmp_path / "fixture.json"
        path.write_text(raw, encoding="utf-8")
        with pytest.raises(MalformedBackendReply) as exc:
            load_mock_fixture(path)
        assert str(exc.value) == message

    def test_an_entry_shaped_object_under_an_entry_key_is_an_entry(self, tmp_path):
        path = tmp_path / "fixture.json"
        path.write_text('{"text": {"text": "a"}, "fault": {"fault": "transport"}}', encoding="utf-8")
        assert MockBackend.from_file(path).table == {"text": "a", "fault": "transport"}

    @pytest.mark.parametrize(
        "raw", [b'{"k": {"text": "yes"}', b"\xff\xfe not utf-8"], ids=["truncated", "not-utf8"]
    )
    def test_fixture_loader_rejects_unreadable_json(self, tmp_path, raw):
        path = tmp_path / "fixture.json"
        path.write_bytes(raw)
        with pytest.raises(MalformedBackendReply):
            load_mock_fixture(path)


class TestRetryLoop:
    def test_two_rate_limits_then_success(self):
        backend = FlakyBackend(failures=2)
        response = Gateway(backend).send_vision_query(b"img", "prompt", PARAMS)
        assert response.attempt_count == 3
        assert backend.calls == 3

    def test_exhaustion_raises_with_transcript(self):
        backend = FlakyBackend(failures=99)
        with pytest.raises(RateLimitedExhausted) as exc:
            Gateway(backend).send_vision_query(b"img", "prompt", PARAMS)
        assert backend.calls == 3
        assert [a.startswith(f"attempt {i + 1}:") for i, a in enumerate(exc.value.attempts)]

    def test_empty_prompt_never_reaches_backend(self):
        backend = FlakyBackend(failures=0)
        with pytest.raises(ValueError):
            Gateway(backend).send_vision_query(b"img", "", PARAMS)
        with pytest.raises(ValueError):
            Gateway(backend).send_vision_query(b"", "prompt", PARAMS)
        assert backend.calls == 0


class TestWirePayload:
    def test_image_and_prompt_pass_through_unmodified(self):
        image = bytes(range(256)) * 3
        prompt = 'Is there a human pedestrian in this image? Answer only either "yes" or "no".'
        body = build_chat_request(image, prompt, QueryParams(model_name="m", max_tokens=7))
        content = body["messages"][0]["content"]
        assert content[0] == {"type": "text", "text": prompt}
        url = content[1]["image_url"]["url"]
        prefix = "data:image/jpeg;base64,"
        assert url.startswith(prefix)
        decoded = base64.b64decode(url[len(prefix):])
        assert hashlib.sha256(decoded).digest() == hashlib.sha256(image).digest()
        assert body["max_tokens"] == 7
        assert body["model"] == "m"

    def test_parse_chat_reply(self):
        body = json.dumps({"choices": [{"message": {"content": "yes"}}]}).encode()
        assert parse_chat_reply(body) == "yes"

    @pytest.mark.parametrize(
        "body",
        [b"not json", b"{}", b'{"choices": []}', b'{"choices": [{"message": {"content": 5}}]}'],
    )
    def test_parse_chat_reply_malformed(self, body):
        with pytest.raises(MalformedBackendReply):
            parse_chat_reply(body)


class _FakeReply:
    def __init__(self, body: bytes) -> None:
        self._body = body

    def read(self) -> bytes:
        return self._body

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class TestLiveBackend:
    def test_requires_base_url(self, monkeypatch):
        monkeypatch.delenv("FOVLINK_BASE_URL", raising=False)
        with pytest.raises(TransportError):
            LiveBackend()

    @pytest.mark.parametrize(
        "url, reason",
        [
            ("http://[::1", "malformed base URL 'http://[::1': Invalid IPv6 URL"),
            ("127.0.0.1:9", "needs an http or https scheme and a host"),
            ("ftp://example.invalid", "needs an http or https scheme and a host"),
            ("http://127.0.0.1:notaport", "Port could not be cast to integer value"),
        ],
        ids=["ipv6", "no_scheme", "ftp", "port"],
    )
    def test_a_malformed_base_url_is_refused_when_the_backend_is_built(self, monkeypatch, url, reason):
        # each used to be tried for every scene, or to end in a ValueError traceback
        monkeypatch.setenv("FOVLINK_BASE_URL", url)
        with pytest.raises(TransportError, match=re.escape(reason)):
            LiveBackend()

    def test_posts_chat_completion_and_reads_reply(self, monkeypatch):
        captured = {}

        def fake_urlopen(request, timeout):
            captured["url"] = request.full_url
            captured["auth"] = request.get_header("Authorization")
            captured["body"] = json.loads(request.data)
            captured["timeout"] = timeout
            return _FakeReply(json.dumps({"choices": [{"message": {"content": "no"}}]}).encode())

        monkeypatch.setattr("urllib.request.urlopen", fake_urlopen)
        backend = LiveBackend(base_url="https://inference.example/v1", api_key="sekrit")
        gateway = Gateway(backend)
        response = gateway.send_vision_query(b"img", "prompt", QueryParams(timeout=11.0))
        assert response.text == "no"
        assert response.backend_id == "live:https://inference.example/v1"
        assert captured["url"] == "https://inference.example/v1/chat/completions"
        assert captured["auth"] == "Bearer sekrit"
        assert captured["timeout"] == 11.0
        assert captured["body"]["messages"][0]["content"][0]["text"] == "prompt"

    def test_http_429_exhausts_as_rate_limited(self, monkeypatch):
        import urllib.error

        calls = {"n": 0}

        def fake_urlopen(request, timeout):
            calls["n"] += 1
            raise urllib.error.HTTPError(request.full_url, 429, "slow down", {}, None)

        monkeypatch.setattr("urllib.request.urlopen", fake_urlopen)
        backend = LiveBackend(base_url="https://inference.example/v1")
        with pytest.raises(RateLimitedExhausted):
            Gateway(backend).send_vision_query(b"img", "prompt", PARAMS)
        assert calls["n"] == 3


    def test_a_timeout_wrapped_in_a_url_error_is_retried_as_a_timeout(self, monkeypatch):
        import urllib.error

        calls = {"n": 0}

        def fake_urlopen(request, timeout):
            calls["n"] += 1
            raise urllib.error.URLError(TimeoutError("timed out while connecting"))

        monkeypatch.setattr("urllib.request.urlopen", fake_urlopen)
        backend = LiveBackend(base_url="https://inference.example/v1")
        with pytest.raises(Timeout) as raised:
            Gateway(backend).send_vision_query(b"img", "prompt", PARAMS)
        assert calls["n"] == PARAMS.max_retries + 1
        for n, attempt in enumerate(raised.value.attempts, start=1):
            assert attempt.startswith(f"attempt {n}: timeout after ")
            assert "timed out while connecting" in attempt

    def test_read_timeout_raises_timeout(self):
        def respond(body):
            time.sleep(0.6)  # past the client's timeout, then close without a reply
            return None

        with LoopbackServer(respond) as server:
            backend = LiveBackend(base_url=server.url)
            with pytest.raises(Timeout) as raised:
                Gateway(backend).send_vision_query(b"img", "prompt", QueryParams(timeout=0.2, max_retries=0))
        assert raised.value.attempts[0].startswith("attempt 1: timeout after ")

    def test_refused_connection_raises_transport_error(self):
        with socket.create_server(("127.0.0.1", 0)) as listener:
            port = listener.getsockname()[1]
        backend = LiveBackend(base_url=f"http://127.0.0.1:{port}/v1")
        with pytest.raises(TransportError) as raised:
            Gateway(backend).send_vision_query(b"img", "prompt", QueryParams(timeout=5.0, max_retries=0))
        assert raised.value.attempts[0].startswith("attempt 1: transport after ")


class TestDroppedConnections:
    """Faults that surface while the reply is read, not while the request is sent."""

    @pytest.mark.parametrize(
        "reply, detail",
        [
            (None, "RemoteDisconnected"),  # accepts the request, then closes
            (http_reply(b'{"choices": [', length=200), "IncompleteRead"),
        ],
        ids=["closed", "short_body"],
    )
    def test_retried_then_raised_as_transport_error(self, reply, detail):
        with LoopbackServer(lambda body: reply) as server:
            backend = LiveBackend(base_url=server.url)
            with pytest.raises(TransportError) as raised:
                Gateway(backend).send_vision_query(b"img", "prompt", PARAMS)
        assert server.connections == PARAMS.max_retries + 1
        attempts = raised.value.attempts
        assert len(attempts) == PARAMS.max_retries + 1
        for n, attempt in enumerate(attempts, start=1):
            assert attempt.startswith(f"attempt {n}: transport after ")
            assert detail in attempt


class _ReplyThatCannotBeRead(_FakeReply):
    def read(self) -> bytes:
        raise OSError(errno.EHOSTUNREACH, "No route to host")


class TestReplySideOSError:
    """An OSError that is no ConnectionError or TimeoutError, raised on the reply side, is a transport fault."""

    @pytest.mark.parametrize("where", ["getresponse", "read"])
    def test_retried_then_raised_as_transport_error(self, monkeypatch, where):
        # used to escape the gateway, and stop a live run as an i/o error
        calls = []

        def fake_urlopen(request, timeout):
            calls.append(request.full_url)
            if where == "getresponse":
                # urllib wraps a send-side OSError in a URLError, but not one from getresponse
                raise OSError(errno.EHOSTUNREACH, "No route to host")
            return _ReplyThatCannotBeRead(b"")

        monkeypatch.setattr("urllib.request.urlopen", fake_urlopen)
        backend = LiveBackend(base_url="https://inference.example/v1")
        with pytest.raises(TransportError) as raised:
            Gateway(backend).send_vision_query(b"img", "prompt", PARAMS)
        assert len(calls) == PARAMS.max_retries + 1
        attempts = raised.value.attempts
        assert len(attempts) == PARAMS.max_retries + 1
        for n, attempt in enumerate(attempts, start=1):
            assert attempt.startswith(f"attempt {n}: transport after ")
            assert f"OSError: [Errno {errno.EHOSTUNREACH}] No route to host" in attempt


class TestHTTPStatusRetries:
    """408, 429 and 5xx are retried; any other 4xx would be refused again, so it is not."""

    @pytest.mark.parametrize("status", [400, 401, 404])
    def test_client_error_makes_one_attempt(self, status):
        with LoopbackServer(lambda body: http_reply(b'{"error": "no"}', status=status)) as server:
            backend = LiveBackend(base_url=server.url)
            with pytest.raises(TransportError, match="not retried") as raised:
                Gateway(backend).send_vision_query(b"img", "prompt", PARAMS)
        assert server.connections == 1
        assert len(raised.value.attempts) == 1
        assert f"HTTP {status}" in raised.value.attempts[0]

    @pytest.mark.parametrize("status", [408, 500, 503])
    def test_server_error_is_retried(self, status):
        with LoopbackServer(lambda body: http_reply(b'{"error": "busy"}', status=status)) as server:
            backend = LiveBackend(base_url=server.url)
            with pytest.raises(TransportError) as raised:
                Gateway(backend).send_vision_query(b"img", "prompt", PARAMS)
        assert server.connections == PARAMS.max_retries + 1
        attempts = raised.value.attempts
        assert len(attempts) == PARAMS.max_retries + 1
        assert all("transport after" in a and f"HTTP {status}" in a for a in attempts)
        assert "not retried" not in str(raised.value)

    @pytest.mark.parametrize("status", [400, 429, 503])
    def test_an_error_reply_leaves_no_socket_open(self, status, monkeypatch):
        # the HTTPError of each attempt used to keep its reply's socket open until the garbage
        # collector freed it, with a ResourceWarning when the socket was finalized first
        import http.client

        sockets = []
        connect = http.client.HTTPConnection.connect
        monkeypatch.setattr(http.client.HTTPConnection, "connect", lambda conn: connect(conn) or sockets.append(conn.sock))
        with LoopbackServer(lambda body: http_reply(b'{"error": "no"}', status=status)) as server:
            with pytest.raises((RateLimitedExhausted, TransportError)) as raised:
                Gateway(LiveBackend(base_url=server.url)).send_vision_query(b"img", "prompt", PARAMS)
        # the error, and the chain of errors it was raised from, are still held here
        assert raised.value.attempts
        assert len(sockets) == server.connections
        assert [sock.fileno() for sock in sockets] == [-1] * server.connections


class TestQueryParams:
    def test_determinism_leaning_defaults(self):
        params = QueryParams()
        assert params.temperature == 0.0
        assert params.max_tokens == 300

    @pytest.mark.parametrize(
        "kwargs",
        [{"max_tokens": 0}, {"timeout": 0}, {"temperature": -1}, {"max_retries": -1}],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            QueryParams(**kwargs)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("timeout", math.inf),
            ("timeout", math.nan),
            ("timeout", TIMEOUT_MAX * 2),
            ("temperature", math.inf),
            ("temperature", math.nan),
            ("backoff_base", -1.0),
            ("backoff_base", math.inf),
            ("backoff_base", math.nan),
        ],
    )
    def test_values_a_socket_or_a_sleep_cannot_take_are_rejected(self, field, value):
        # these used to pass, then overflowed in socket.settimeout or time.sleep, or sent
        # "temperature":Infinity, which is not JSON
        with pytest.raises(ValueError, match=f"^{field} must be "):
            QueryParams(**{field: value})

    def test_the_longest_timeout_is_one_a_socket_takes(self):
        params = QueryParams(timeout=TIMEOUT_MAX, backoff_base=TIMEOUT_MAX)
        with socket.socket() as sock:
            sock.settimeout(params.timeout)


# text that JSON escapes, text it writes as \uXXXX, and the image URL's own prefix
_WIRE_PROMPTS = [
    'Answer only either "yes" or "no".',
    "back\\slash, a\nnew line and a\ttab",
    "non-ASCII: Fußgänger, 歩行者, \U0001F6B6",
    "a line\u2028separator",
    'data:image/jpeg;base64," and after it',
    "ends with data:image/jpeg;base64,",
]


class TestSplicedBody:
    """The live body splices the encoded frame into the request's JSON; its bytes are json.dumps's."""

    @pytest.mark.parametrize("length", [300, 301, 302], ids=["len%3=0", "len%3=1", "len%3=2"])
    @pytest.mark.parametrize("prompt", _WIRE_PROMPTS)
    def test_body_is_the_json_of_the_request(self, monkeypatch, tmp_path, prompt, length):
        image = (bytes(range(256)) * 2)[:length]
        params = QueryParams(model_name='a "quoted" model;base64,"', max_tokens=17, temperature=0.25)
        expected = json.dumps(build_chat_request(image, prompt, params)).encode("utf-8")
        path = tmp_path / "frame.jpg"
        path.write_bytes(image)
        frame = Frame(SceneRecord("s", path, 1, 1, has_pedestrian=False, gt_boxes=(), tags=frozenset()))
        sent = []

        def fake_urlopen(request, timeout):
            sent.append(request.data)
            return _FakeReply(json.dumps({"choices": [{"message": {"content": "no"}}]}).encode())

        monkeypatch.setattr("urllib.request.urlopen", fake_urlopen)
        backend = LiveBackend(base_url="https://inference.example/v1")
        # the bytes a caller passes, and the bytes of a Frame with their memoised encoding
        for given in (image, frame.read()):
            backend.complete(given, prompt, params, None)
        assert sent == [expected] * 2

    @pytest.mark.parametrize("length", [300, 301, 302], ids=["len%3=0", "len%3=1", "len%3=2"])
    def test_a_frame_is_sent_as_the_json_of_the_request_for_its_bytes(
        self, monkeypatch, tmp_path, frame_reads, length
    ):
        image = (bytes(range(256)) * 2)[:length]
        params = QueryParams(model_name='a "quoted" model;base64,"', max_tokens=17, temperature=0.25)
        path = tmp_path / "frame.jpg"
        path.write_bytes(image)
        frame = Frame(SceneRecord("s", path, 1, 1, has_pedestrian=False, gt_boxes=(), tags=frozenset()))
        sent = []

        def fake_urlopen(request, timeout):
            sent.append(request.data)
            return _FakeReply(json.dumps({"choices": [{"message": {"content": "no"}}]}).encode())

        monkeypatch.setattr("urllib.request.urlopen", fake_urlopen)
        backend = LiveBackend(base_url="https://inference.example/v1")
        for prompt in _WIRE_PROMPTS:
            backend.complete(frame, prompt, params, None)
        assert sent == [json.dumps(build_chat_request(image, prompt, params)).encode("utf-8") for prompt in _WIRE_PROMPTS]
        # every request about the frame sends the encoding of one read
        assert frame_reads == Counter({"frame.jpg": 1})


class TestTextThatUTF8CannotHold:
    """A reply or fixture text that is not UTF-8, or holds a lone surrogate, is a malformed reply."""

    @pytest.mark.parametrize(
        "body",
        [
            b'{"choices": [{"message": {"content": "\xff"}}]}',
            b'{"choices": [{"message": {"content": "yes \\ud800"}}]}',
            b'{"choices": [{"message": {"content": "yes \\udc00 no"}}]}',
            # UTF-8 of a surrogate, which json.loads decodes with surrogatepass
            b'{"choices": [{"message": {"content": "yes \xed\xa0\x80"}}]}',
        ],
        ids=["not-utf8", "escaped-high-surrogate", "escaped-low-surrogate", "encoded-surrogate"],
    )
    def test_parse_chat_reply_rejects(self, body):
        with pytest.raises(MalformedBackendReply):
            parse_chat_reply(body)

    def test_parse_chat_reply_keeps_an_escaped_surrogate_pair(self):
        body = b'{"choices": [{"message": {"content": "walking \\ud83d\\udeb6"}}]}'
        assert parse_chat_reply(body) == "walking \U0001F6B6"

    def test_live_reply_with_a_lone_surrogate_is_not_retried(self):
        reply = http_reply(json.dumps({"choices": [{"message": {"content": "yes \ud800"}}]}).encode())
        with LoopbackServer(lambda body: reply) as server:
            with pytest.raises(MalformedBackendReply, match="lone surrogate"):
                Gateway(LiveBackend(base_url=server.url)).send_vision_query(b"img", "prompt", PARAMS)
        assert server.connections == 1

    def test_fixture_loader_rejects_a_lone_surrogate(self, tmp_path):
        path = tmp_path / "fixture.json"
        path.write_text(json.dumps({"s|BIN|0": {"text": "yes \ud800"}}), encoding="utf-8")
        with pytest.raises(MalformedBackendReply, match="'s\\|BIN\\|0' has text with a lone surrogate"):
            load_mock_fixture(path)


class TestLendingView:
    """A view made by ``lending`` hands each backoff to ``spare``, then sleeps out only what is left of it."""

    @pytest.mark.parametrize("spare_takes, slept", [(0.1, 0.15), (0.4, 0.0)])
    def test_spare_gets_the_deadline_and_the_sleep_is_what_is_left(self, monkeypatch, spare_takes, slept):
        import fovlink.gateway

        clock = [100.0]
        seen = []

        class Backend(FlakyBackend):
            simulated = False

        def spare(deadline):
            seen.append(("spare", deadline))
            clock[0] += spare_takes

        monkeypatch.setattr(fovlink.gateway.time, "monotonic", lambda: clock[0])
        monkeypatch.setattr(fovlink.gateway.time, "sleep", lambda seconds: seen.append(("sleep", seconds)))
        gateway = Gateway(Backend(failures=1)).lending(spare)
        response = gateway.send_vision_query(b"img", "prompt", QueryParams(max_retries=2, backoff_base=0.25))
        assert response.attempt_count == 2
        # the backoff ends at 100.25; a spare that overran it leaves no sleep
        assert seen == [("spare", 100.25), ("sleep", pytest.approx(slept, abs=1e-9))]

    def test_a_subclass_stays_a_subclass_and_the_original_is_untouched(self):
        class Traced(Gateway):
            pass

        def spare(deadline):
            pass

        original = Traced(FlakyBackend(failures=0))
        view = original.lending(spare)
        assert type(view) is Traced
        assert view is not original
        assert view.backend is original.backend
        assert view._spare is spare
        assert original._spare is None


def test_mock_backend_holds_one_str_per_distinct_reply(tmp_path):
    script = {
        script_key(f"s{i}", "BIN", run_idx): {"text": "yes" if i % 2 else "no"}
        for i in range(10)
        for run_idx in range(3)
    }
    script[script_key("s0", "P1", 0)] = {"fault": "timeout"}
    path = write_fixture(tmp_path, script)
    # the loader already gives equal texts one str
    table = load_mock_fixture(path)
    assert len({id(reply) for reply in table.values() if type(reply) is str}) == 2
    assert sum(type(reply) is _ScriptedFault for reply in table.values()) == 1
    backend = MockBackend.from_file(path)
    gateway = Gateway(backend)
    keys = [(f"s{i}", "BIN", run_idx) for i in range(10) for run_idx in range(3)]
    replies = [gateway.send_vision_query(b"img", "prompt", PARAMS, key).text for key in keys]
    assert replies == [script[script_key(*key)]["text"] for key in keys]
    assert len({id(reply) for reply in replies}) == 2
    assert len({id(value) for value in backend.table.values()}) == 3  # "yes", "no" and the fault
    with pytest.raises(Timeout):
        gateway.send_vision_query(b"img", "prompt", PARAMS, ("s0", "P1", 0))


def test_loading_a_fixture_holds_no_entry_dicts(tmp_path):
    # 6,000 entries, 35 distinct texts; the bound sits between a load that
    # decodes a dict per entry (about 3.0 MB) and one that does not (about 1.6 MB)
    script = {
        script_key(f"scene_{i:04d}", prompt_id, run_idx): {"fault": "timeout"}
        if i % 50 == 0
        else {"text": f"({i % 7 / 10}, 0.2), (0.4, {i % 5 / 10}) a pedestrian near the crosswalk"}
        for i in range(1000)
        for prompt_id in ("P1", "P2")
        for run_idx in range(3)
    }
    path = write_fixture(tmp_path, script)
    tracemalloc.start()
    try:
        backend = MockBackend.from_file(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_400_000
    assert backend.table == MockBackend(script).table
    texts = [reply for reply in backend.table.values() if not isinstance(reply, _ScriptedFault)]
    assert len(texts) == 5880
    assert all(type(reply) is str for reply in texts)
    assert len({id(reply) for reply in texts}) == len(set(texts)) == 35


class AlwaysFaulting:
    """A backend that waits on the network and faults every attempt."""

    simulated = False
    backend_id = "down"

    def complete(self, image, prompt, params, key):
        raise _BackendFault("transport", "scripted outage")


@pytest.mark.parametrize("retries", [40, 2000])
def test_backoff_is_capped_at_timeout_max_for_any_retry_count(monkeypatch, retries):
    sleeps = []
    monkeypatch.setattr(time, "sleep", sleeps.append)
    with pytest.raises(TransportError) as exc:
        Gateway(AlwaysFaulting()).send_vision_query(b"img", "prompt", QueryParams(max_retries=retries))
    assert len(exc.value.attempts) == retries + 1
    assert len(sleeps) == retries
    assert sleeps[:3] == [0.5, 1.0, 2.0]
    assert max(sleeps) == sleeps[-1] == TIMEOUT_MAX


class _Sentinel:
    pass


class PinningBackend:
    """Faults every attempt from a frame that holds a fresh sentinel, as a live attempt holds its body."""

    simulated = False
    backend_id = "pinning"

    def __init__(self) -> None:
        self.sentinels: list[weakref.ref] = []

    def complete(self, image, prompt, params, key):
        body = _Sentinel()
        self.sentinels.append(weakref.ref(body))
        try:
            raise ConnectionResetError("peer went away")
        except ConnectionResetError as e:
            raise _BackendFault("transport", str(e)) from e


def test_a_faulted_attempt_holds_nothing_through_the_backoff(monkeypatch):
    backend = PinningBackend()
    alive_at_sleep = []
    monkeypatch.setattr(
        time, "sleep", lambda seconds: alive_at_sleep.append(sum(ref() is not None for ref in backend.sentinels))
    )
    with pytest.raises(TransportError):
        Gateway(backend).send_vision_query(b"img", "prompt", QueryParams(max_retries=3, backoff_base=0.0))
    assert len(backend.sentinels) == 4
    assert alive_at_sleep == [0, 0, 0]
