"""OpenAI-compatible loopback stub for the live-path workload.

Run as its own process (a server in the client's process would share its
interpreter lock and distort the parallel-client numbers)::

    python3 bench/stub.py --script live.json

It binds 127.0.0.1 on a free port and prints ``PORT <n>`` once it serves.
Every answered chat request waits ``DELAY_S`` first, the model's service
time.

``POST /chat/completions`` answers deterministically per (scene, prompt):
the scene comes from the marker line of the attached frame, the prompt
from its exact text. A frame whose marker or checksum does not match, or
an unknown prompt, gets HTTP 400, which the client records as a fault and
the benchmark's correctness gate rejects.

Faults are keyed to the request content and a per-key attempt counter,
not to arrival order: the first request for a planned (scene, prompt)
gets the planned 429 or 503 and every later one succeeds, so the number
of retries is the same at any client parallelism. Dropped connections
are not injected: the client aborts the whole run on one today.

``GET /stats`` returns the counters (chat connections accepted, chat
requests, request body bytes, injected faults); ``POST /reset`` zeroes
them and the attempt counters.
"""

from __future__ import annotations

import argparse
import base64
import binascii
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from gen import parse_frame_marker  # noqa: E402

_DATA_URI = "data:image/jpeg;base64,"
DELAY_S = 0.010


class StubState:
    def __init__(self, script: dict) -> None:
        self.prompt_ids = {text: pid for pid, text in script["prompts"].items()}
        self.replies: dict[str, str] = script["replies"]
        self.faults: dict[str, int] = script["faults"]
        self.lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self.lock:
            self.attempts: dict[str, int] = {}
            self.counters = {"connections": 0, "requests": 0, "body_bytes": 0, "faults": 0}

    def count(self, **deltas: int) -> None:
        with self.lock:
            for name, delta in deltas.items():
                self.counters[name] += delta

    def next_attempt(self, key: str) -> int:
        with self.lock:
            self.attempts[key] = self.attempts.get(key, 0) + 1
            return self.attempts[key]


def _content_key(state: StubState, body: bytes) -> str | None:
    try:
        content = json.loads(body)["messages"][0]["content"]
        prompt = content[0]["text"]
        url = content[1]["image_url"]["url"]
    except (ValueError, KeyError, IndexError, TypeError):
        return None
    if prompt not in state.prompt_ids or not url.startswith(_DATA_URI):
        return None
    try:
        frame = base64.b64decode(url[len(_DATA_URI) :], validate=True)
    except binascii.Error:
        return None
    scene_id = parse_frame_marker(frame)
    if scene_id is None:
        return None
    key = f"{scene_id}|{state.prompt_ids[prompt]}"
    return key if key in state.replies else None


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: "StubServer"

    def setup(self) -> None:
        super().setup()
        self.chat_connection = False

    def log_message(self, format, *args) -> None:  # noqa: A002 - base class signature
        pass

    def _reply(self, status: int, payload: dict) -> None:
        data = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_GET(self) -> None:
        if self.path != "/stats":
            self._reply(404, {"error": "not found"})
            return
        with self.server.state.lock:
            counters = dict(self.server.state.counters)
        self._reply(200, counters)

    def do_POST(self) -> None:
        state = self.server.state
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        if self.path == "/reset":
            state.reset()
            self._reply(200, {})
            return
        if self.path != "/chat/completions":
            self._reply(404, {"error": "not found"})
            return
        if not self.chat_connection:
            self.chat_connection = True
            state.count(connections=1)
        state.count(requests=1, body_bytes=len(body))
        key = _content_key(state, body)
        if key is None:
            self._reply(400, {"error": "unrecognised frame or prompt"})
            return
        if key in state.faults and state.next_attempt(key) == 1:
            state.count(faults=1)
            self._reply(state.faults[key], {"error": "injected transient fault"})
            return
        time.sleep(DELAY_S)
        self._reply(200, {"choices": [{"message": {"role": "assistant", "content": state.replies[key]}}]})


class StubServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, state: StubState) -> None:
        super().__init__(("127.0.0.1", 0), Handler)
        self.state = state


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--script", type=Path, required=True)
    args = parser.parse_args()
    state = StubState(json.loads(args.script.read_text(encoding="utf-8")))
    with StubServer(state) as server:
        print(f"PORT {server.server_address[1]}", flush=True)
        server.serve_forever()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
