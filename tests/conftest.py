"""Shared fixture builders: manifests with image files, mock reply scripts and
a loopback HTTP server for the live backend."""

from __future__ import annotations

import json
import socket
import threading
from collections import Counter
from http import HTTPStatus
from pathlib import Path

import pytest


def scene_line(
    scene_id: str,
    *,
    positive: bool,
    width: int = 1000,
    height: int = 1000,
    boxes: list[list[float]] | None = None,
    tags: list[str] | None = None,
    image_path: str | None = None,
) -> dict:
    if boxes is None:
        boxes = [[400.0, 400.0, 600.0, 800.0]] if positive else []
    return {
        "scene_id": scene_id,
        "image_path": image_path or f"images/{scene_id}.jpg",
        "width": width,
        "height": height,
        "has_pedestrian": positive,
        "gt_boxes": boxes,
        "tags": tags or [],
    }


def write_manifest(
    directory: Path, records: list[dict], *, create_images: bool = True, name: str = "manifest.jsonl"
) -> Path:
    path = directory / name
    path.write_text(
        "".join(json.dumps(r, separators=(",", ":")) + "\n" for r in records),
        encoding="utf-8",
    )
    if create_images:
        for record in records:
            image = directory / record["image_path"]
            image.parent.mkdir(parents=True, exist_ok=True)
            # deterministic dummy bytes, file content is never decoded
            image.write_bytes(record["scene_id"].encode("utf-8") * 16)
    return path


@pytest.fixture
def frame_reads(monkeypatch):
    """Counts Path.read_bytes calls per image file name."""
    reads: Counter[str] = Counter()
    read_bytes = Path.read_bytes

    def counting(path):
        reads[path.name] += 1
        return read_bytes(path)

    monkeypatch.setattr(Path, "read_bytes", counting)
    return reads


def write_fixture(directory: Path, script: dict[str, dict], name: str = "fixture.json") -> Path:
    path = directory / name
    path.write_text(json.dumps(script, indent=1), encoding="utf-8")
    return path


def script_key(scene_id: str, prompt_id: str, run_idx: int) -> str:
    return f"{scene_id}|{prompt_id}|{run_idx}"


@pytest.fixture
def small_manifest(tmp_path: Path) -> Path:
    """Three positives (one low-light) and two negatives, with image files."""
    records = [
        scene_line("pos_a", positive=True, tags=["single_pedestrian", "crosswalk_center"]),
        scene_line("pos_b", positive=True, tags=["dusk", "single_pedestrian"]),
        scene_line("pos_c", positive=True, boxes=[[100.0, 100.0, 300.0, 500.0]]),
        scene_line("neg_a", positive=False),
        scene_line("neg_b", positive=False, tags=["night"]),
    ]
    return write_manifest(tmp_path, records)


def http_reply(body: bytes, *, length: int | None = None, status: int = 200) -> bytes:
    """Raw HTTP/1.1 response; ``length`` overrides Content-Length to cut the body short."""
    head = (
        f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\nContent-Type: application/json\r\n"
        f"Content-Length: {len(body) if length is None else length}\r\nConnection: close\r\n\r\n"
    )
    return head.encode("ascii") + body


def completion_reply(text: str) -> bytes:
    return http_reply(json.dumps({"choices": [{"message": {"content": text}}]}).encode("utf-8"))


class LoopbackServer:
    """Socket server on 127.0.0.1 that reads each request whole, then answers it.

    ``respond(request_body)`` returns the raw bytes to send, or None to
    close the connection without a reply. One connection at a time.
    """

    def __init__(self, respond) -> None:
        self.respond = respond
        self.connections = 0
        self._sock = socket.create_server(("127.0.0.1", 0))
        self._sock.settimeout(0.05)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self.url = f"http://127.0.0.1:{self._sock.getsockname()[1]}/v1"

    def __enter__(self) -> LoopbackServer:
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=10)
        self._sock.close()
        assert not self._thread.is_alive(), "loopback server still serving"

    def _serve(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self._sock.accept()
            except TimeoutError:
                continue
            with conn:
                conn.settimeout(5)
                self.connections += 1
                reply = self.respond(self._read_body(conn))
                if reply is not None:
                    conn.sendall(reply)

    @staticmethod
    def _read_body(conn: socket.socket) -> bytes:
        with conn.makefile("rb") as reader:
            length = 0
            while (line := reader.readline()) not in (b"\r\n", b""):
                name, _, value = line.partition(b":")
                if name.strip().lower() == b"content-length":
                    length = int(value)
            return reader.read(length)
