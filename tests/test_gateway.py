from __future__ import annotations

import base64
import hashlib
import json
import socket
import time

import pytest

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
    build_chat_request,
    load_mock_fixture,
    mock_lookup,
    parse_chat_reply,
)

from conftest import LoopbackServer, http_reply, script_key

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
        assert load_mock_fixture(path) == script

    @pytest.mark.parametrize(
        "entry",
        [{"text": "a", "fault": "timeout"}, {}, {"fault": "weird"}, {"text": 5}],
    )
    def test_fixture_loader_rejects_bad_entries(self, tmp_path, entry):
        path = tmp_path / "fixture.json"
        path.write_text(json.dumps({"k": entry}), encoding="utf-8")
        with pytest.raises(MalformedBackendReply):
            load_mock_fixture(path)

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
