"""JSON numbers at every input boundary.

An integer of more digits than Python converts (``sys.get_int_max_str_digits``)
fails each reader as invalid JSON does, and a number that a run divides as a
float must fit one: an integer of 401 digits is rejected when its file is
loaded, naming the field, before any query runs or any file is written.
"""

from __future__ import annotations

import base64
import json
import sys
from pathlib import Path

import pytest

from fovlink.cli import EXIT_DATA, EXIT_OK, main
from fovlink.dataset import load_manifest

from conftest import LoopbackServer, completion_reply, http_reply, scene_line, script_key, write_fixture, write_manifest
from test_experiments import GT_TEMPLATE, binary_script

# an integer that json.loads refuses to convert, and one that float() overflows on
TOO_MANY_DIGITS = "1" + "0" * 5_000
TOO_LARGE = 10**400
DIGITS = f"integer of more than {sys.get_int_max_str_digits()} digits"


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


@pytest.fixture
def workspace(tmp_path):
    records = [scene_line("pos_a", positive=True), scene_line("pos_b", positive=True), scene_line("neg_a", positive=False)]
    manifest = write_manifest(tmp_path, records)
    fixture = write_fixture(tmp_path, binary_script(load_manifest(manifest)))
    return tmp_path, manifest, fixture


def _with_long_integer(line: str) -> str:
    """``line``, a JSON object, with a key ``extra`` holding an integer of 5,001 digits."""
    return line.replace("{", '{"extra":' + TOO_MANY_DIGITS + ",", 1)


def _exp1(workspace) -> tuple[int, Path]:
    tmp_path, manifest, fixture = workspace
    out = tmp_path / "out"
    return run_cli("exp1", "--manifest", manifest, "--fixture", fixture, "--runs", 1, "--out", out), out


@pytest.fixture
def v2v_out(workspace):
    """Output directory of a one-remote dialogue: a query line, then a response line with a box."""
    tmp_path, manifest, _ = workspace
    fixture = write_fixture(tmp_path, {script_key("pos_a", "P1", 0): {"text": GT_TEMPLATE}}, name="v2v_fixture.json")
    out = tmp_path / "v2v"
    scenario = _write_scenario(tmp_path, {"rate_bps": 1_000_000, "overhead": 0.1})
    assert run_cli("v2v", "--scenario", scenario, "--manifest", manifest, "--fixture", fixture, "--out", out) == EXIT_OK
    return out


def _write_scenario(tmp_path: Path, link: dict, text: str | None = None) -> Path:
    scenario = tmp_path / "scenario.json"
    vehicles = [
        {"vehicle_id": "ego", "role": "ego"},
        {"vehicle_id": "vehicle_a", "role": "remote", "scene_id": "pos_a"},
    ]
    scenario.write_text(text or json.dumps({"vehicles": vehicles, "link": link, "prompt_id": "P1"}), encoding="utf-8")
    return scenario


def _report_exits_2(out: Path, capsys) -> str:
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main(["report", "--in", str(out)]) == EXIT_DATA
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    return capsys.readouterr().err


# -- an integer of more digits than Python converts: each reader exits 2 as for invalid JSON


def test_a_record_with_too_many_digits_is_invalid_json(workspace, capsys):
    # used to end in a ValueError traceback (exit 1)
    code, out = _exp1(workspace)
    assert code == EXIT_OK
    path = out / "binary_results.jsonl"
    first, *rest = path.read_text(encoding="utf-8").splitlines()
    path.write_text("".join(line + "\n" for line in [_with_long_integer(first), *rest]), encoding="utf-8")
    capsys.readouterr()
    assert _report_exits_2(out, capsys) == f"fovlink: binary_results.jsonl line 1: invalid JSON ({DIGITS})\n"


def test_a_transcript_line_with_too_many_digits_is_not_valid_json(v2v_out, capsys):
    path = v2v_out / "v2v_transcript.jsonl"
    first, *rest = path.read_text(encoding="utf-8").splitlines()
    path.write_text("".join(line + "\n" for line in [_with_long_integer(first), *rest]), encoding="utf-8")
    capsys.readouterr()
    err = _report_exits_2(v2v_out, capsys)
    assert err.startswith(f"fovlink: v2v_transcript.jsonl line 1: not valid JSON: {DIGITS}: line 1 column 10 ")


def test_a_scenario_with_too_many_digits_is_not_valid_json(workspace, capsys):
    tmp_path, manifest, fixture = workspace
    scenario = _write_scenario(tmp_path, {}, text='{"link": {"rate_bps": ' + TOO_MANY_DIGITS + "}}")
    out = tmp_path / "out"
    code = run_cli("v2v", "--scenario", scenario, "--manifest", manifest, "--fixture", fixture, "--out", out)
    assert code == EXIT_DATA
    assert capsys.readouterr().err.startswith(f"fovlink: scenario is not valid JSON: {DIGITS}: line 1 column 23 ")
    assert not out.exists()


def test_a_fixture_with_too_many_digits_is_not_valid_json(workspace, capsys):
    _, _, fixture = workspace
    fixture.write_text(_with_long_integer(fixture.read_text(encoding="utf-8")), encoding="utf-8")
    code, out = _exp1(workspace)
    assert code == EXIT_DATA
    assert capsys.readouterr().err.startswith(f"fovlink: fixture error: mock fixture is not valid JSON: {DIGITS}: ")
    assert not out.exists()


def test_a_manifest_line_with_too_many_digits_is_invalid_json(workspace, capsys):
    _, manifest, _ = workspace
    lines = manifest.read_text(encoding="utf-8").splitlines()
    lines[1] = _with_long_integer(lines[1])
    manifest.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    code, out = _exp1(workspace)
    assert code == EXIT_DATA
    assert capsys.readouterr().err == f"fovlink: line 2: invalid JSON ({DIGITS})\n"
    assert not out.exists()


def test_a_live_reply_with_too_many_digits_is_that_scenes_fault(workspace, monkeypatch):
    # used to abort the whole run with a ValueError traceback (exit 1)
    tmp_path, manifest, _ = workspace
    marker = base64.b64encode(b"neg_a" * 16)  # conftest frames are the scene id repeated
    long_usage = b'{"choices":[{"message":{"content":"no"}}],"usage":{"total_tokens":' + TOO_MANY_DIGITS.encode() + b"}}"

    def respond(body: bytes) -> bytes:
        return http_reply(long_usage) if marker in body else completion_reply("no")

    out = tmp_path / "out"
    with LoopbackServer(respond) as server:
        monkeypatch.setenv("FOVLINK_BASE_URL", server.url)
        code = run_cli("exp1", "--backend", "live", "--manifest", manifest, "--runs", 1, "--retries", 0, "--out", out)
    assert code == EXIT_OK
    records = [json.loads(line) for line in (out / "binary_results.jsonl").read_text(encoding="utf-8").splitlines()]
    faults = {r["scene_id"]: r["fault"] for r in records if r["outcome"] == "fault"}
    assert list(faults) == ["neg_a"]
    assert faults["neg_a"].startswith(f"MalformedBackendReply: unexpected completion payload: {DIGITS}: line 1 column 67 ")


# -- a number too large for a float: rejected at load, naming its field


def test_a_manifest_box_too_large_for_a_float_is_rejected_at_load(workspace, capsys):
    tmp_path, manifest, _ = workspace
    write_manifest(tmp_path, [scene_line("pos_a", positive=True, boxes=[[0, 0, TOO_LARGE, 10]])])
    code, out = _exp1(workspace)
    assert code == EXIT_DATA
    assert capsys.readouterr().err == "fovlink: line 1: field 'gt_boxes[0]' must be four numbers that fit a float\n"
    assert not out.exists()


@pytest.mark.parametrize("field", ["width", "height"])
def test_an_image_size_too_large_for_a_float_is_rejected_at_load(workspace, capsys, field):
    # used to pass the load and end the exp2 run in an OverflowError traceback
    tmp_path, manifest, _ = workspace
    write_manifest(tmp_path, [scene_line("pos_a", positive=True, **{field: TOO_LARGE})])
    fixture = write_fixture(tmp_path, {script_key("pos_a", "P1", 0): {"text": GT_TEMPLATE}})
    out = tmp_path / "out"
    code = run_cli("exp2", "--manifest", manifest, "--fixture", fixture, "--runs", 1, "--out", out)
    assert code == EXIT_DATA
    assert capsys.readouterr().err == f"fovlink: line 1: field {field!r} must be an integer that fits a float\n"
    assert not out.exists()


@pytest.mark.parametrize("field", ["rate_bps", "overhead"])
def test_a_scenario_link_figure_too_large_for_a_float_is_rejected_at_load(workspace, capsys, field):
    tmp_path, manifest, fixture = workspace
    scenario = _write_scenario(tmp_path, {"rate_bps": 1_000_000, field: TOO_LARGE})
    out = tmp_path / "out"
    code = run_cli("v2v", "--scenario", scenario, "--manifest", manifest, "--fixture", fixture, "--out", out)
    assert code == EXIT_DATA
    assert capsys.readouterr().err == f"fovlink: scenario: field 'link.{field}' must be a number that fits a float\n"
    assert not out.exists()


def test_a_transcript_box_coordinate_too_large_for_a_float_is_rejected(v2v_out, capsys):
    path = v2v_out / "v2v_transcript.jsonl"
    query, response = path.read_text(encoding="utf-8").splitlines()
    message = json.loads(response)
    message["payload"]["box"]["x2"] = TOO_LARGE
    path.write_text(f"{query}\n{json.dumps(message, separators=(',', ':'))}\n", encoding="utf-8")
    capsys.readouterr()
    err = _report_exits_2(v2v_out, capsys)
    assert err == "fovlink: v2v_transcript.jsonl line 2: field 'payload.box' int too large to convert to float\n"


@pytest.mark.parametrize(
    "field, reason",
    [("rate_bps", "a number"), ("stream_bytes", "a non-negative integer")],
)
def test_a_link_figure_too_large_for_a_float_is_rejected_at_load(v2v_out, capsys, field, reason):
    # each used to pass the link's check and overflow in transmission_time
    path = v2v_out / "v2v_link.json"
    link = {**json.loads(path.read_text(encoding="utf-8")), field: TOO_LARGE}
    path.write_text(json.dumps(link), encoding="utf-8")
    capsys.readouterr()
    err = _report_exits_2(v2v_out, capsys)
    assert err == f"fovlink: v2v_link.json: field {field!r} must be {reason} that fits a float\n"
