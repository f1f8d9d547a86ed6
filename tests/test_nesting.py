"""JSON nested deeper than the decoder recurses, at the input boundaries.

Each reader fails on it as on any other invalid JSON: ``load_json``
raises ``JSONDecodeError("nesting too deep")`` where ``json.loads`` lets a
``RecursionError`` escape.
"""

from __future__ import annotations

import base64
import json

import pytest

from fovlink.cli import EXIT_DATA, EXIT_OK, main
from fovlink.dataset import load_manifest
from fovlink.gateway import MalformedBackendReply, parse_chat_reply
from fovlink.shape import load_json

from conftest import LoopbackServer, completion_reply, http_reply, scene_line, write_fixture, write_manifest
from test_experiments import binary_script

DEEP = "[" * 100_000


@pytest.fixture
def workspace(tmp_path):
    records = [scene_line("pos_a", positive=True), scene_line("neg_a", positive=False), scene_line("neg_b", positive=False)]
    manifest = write_manifest(tmp_path, records)
    fixture = write_fixture(tmp_path, binary_script(load_manifest(manifest)))
    return tmp_path, manifest, fixture


@pytest.mark.parametrize("doc", [DEEP, DEEP.encode()], ids=["str", "bytes"])
def test_load_json_reports_deep_nesting_as_a_decode_error(doc):
    with pytest.raises(json.JSONDecodeError) as exc:
        load_json(doc)
    assert (exc.value.msg, exc.value.pos) == ("nesting too deep", 0)


def test_report_over_a_deeply_nested_records_line_exits_2(workspace, capsys):
    # used to end in a RecursionError traceback (exit 1)
    tmp_path, manifest, fixture = workspace
    out = tmp_path / "out"
    assert main([str(a) for a in ("exp1", "--manifest", manifest, "--fixture", fixture, "--runs", 1, "--out", out)]) == EXIT_OK
    path = out / "binary_results.jsonl"
    path.write_text(DEEP + "\n" + path.read_text(encoding="utf-8"), encoding="utf-8")
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    assert main(["report", "--in", str(out)]) == EXIT_DATA
    assert capsys.readouterr().err == "fovlink: binary_results.jsonl line 1: invalid JSON (nesting too deep)\n"
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_a_deeply_nested_chat_reply_is_malformed():
    with pytest.raises(MalformedBackendReply, match="nesting too deep"):
        parse_chat_reply(DEEP.encode())


def test_a_deeply_nested_live_reply_is_that_scenes_fault(workspace, monkeypatch):
    # used to abort the whole run with a RecursionError traceback (exit 1)
    tmp_path, manifest, _ = workspace
    marker = base64.b64encode(b"neg_a" * 16)  # conftest frames are the scene id repeated

    def respond(body: bytes) -> bytes:
        return http_reply(DEEP.encode()) if marker in body else completion_reply("no")

    out = tmp_path / "out"
    with LoopbackServer(respond) as server:
        monkeypatch.setenv("FOVLINK_BASE_URL", server.url)
        argv = ("exp1", "--backend", "live", "--manifest", manifest, "--runs", 1, "--retries", 0, "--out", out)
        assert main([str(a) for a in argv]) == EXIT_OK
    records = [json.loads(line) for line in (out / "binary_results.jsonl").read_text(encoding="utf-8").splitlines()]
    faults = {r["scene_id"]: r["fault"] for r in records if r["outcome"] == "fault"}
    assert faults == {"neg_a": "MalformedBackendReply: unexpected completion payload: nesting too deep: line 1 column 1 (char 0)"}
    assert len(records) == 3
