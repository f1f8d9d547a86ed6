from __future__ import annotations

import base64
import contextlib
import errno
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from threading import TIMEOUT_MAX

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fovlink
from fovlink.cli import EXIT_BACKEND, EXIT_DATA, EXIT_INTERRUPTED, EXIT_OK, EXIT_USAGE, _build_parser, main
from fovlink.dataset import Frame, load_manifest
from fovlink.experiments import ExperimentConfig
from fovlink.gateway import MockBackend, QueryParams

from conftest import (
    LoopbackServer,
    completion_reply,
    http_reply,
    scene_line,
    script_key,
    write_fixture,
    write_manifest,
)
from test_experiments import GT_TEMPLATE, binary_script, localization_script


@pytest.fixture
def workspace(tmp_path):
    records = [
        scene_line("pos_a", positive=True, tags=["dusk"]),
        scene_line("pos_b", positive=True),
        scene_line("neg_a", positive=False),
    ]
    manifest = write_manifest(tmp_path, records)
    scenes = load_manifest(manifest)
    return tmp_path, manifest, scenes


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


class TestExp1:
    def test_happy_path(self, workspace, capsys):
        tmp_path, manifest, scenes = workspace
        fixture = write_fixture(tmp_path, binary_script(scenes, runs=2))
        out = tmp_path / "out"
        code = run_cli(
            "exp1", "--manifest", manifest, "--fixture", fixture, "--runs", 2, "--out", out
        )
        assert code == EXIT_OK
        stdout = capsys.readouterr().out
        assert "matrix (tp=2, fn=0, fp=0, tn=1)" in stdout
        assert "recall 100.00%" in stdout
        assert (out / "detection_stats.csv").is_file()
        assert (out / "binary_results.jsonl").is_file()
        assert (out / "consistency.csv").is_file()

    def test_unknown_prompt_is_usage_error(self, workspace):
        tmp_path, manifest, scenes = workspace
        fixture = write_fixture(tmp_path, {})
        code = run_cli(
            "exp1", "--manifest", manifest, "--prompt", "P9", "--fixture", fixture,
            "--out", tmp_path / "out",
        )
        assert code == EXIT_USAGE

    def test_missing_manifest_is_data_error(self, workspace):
        tmp_path, _, _ = workspace
        fixture = write_fixture(tmp_path, {})
        code = run_cli(
            "exp1", "--manifest", tmp_path / "ghost.jsonl", "--fixture", fixture,
            "--out", tmp_path / "out",
        )
        assert code == EXIT_DATA

    @pytest.mark.parametrize("command, records", [("exp1", []), ("exp2", [scene_line("neg_a", positive=False)])])
    def test_zero_scenes_is_data_error(self, tmp_path, capsys, command, records):
        # exp2 runs over the positives only
        manifest = write_manifest(tmp_path, records)
        fixture = write_fixture(tmp_path, {})
        code = run_cli(command, "--manifest", manifest, "--fixture", fixture, "--out", tmp_path / "out")
        assert code == EXIT_DATA
        assert capsys.readouterr().err == "fovlink: experiment invoked with zero scenes\n"
        assert not (tmp_path / "out").exists()

    def test_zero_image_width_is_data_error(self, tmp_path, capsys):
        manifest = write_manifest(tmp_path, [scene_line("a", positive=False, width=0, height=10)])
        fixture = write_fixture(tmp_path, {})
        code = run_cli("exp1", "--manifest", manifest, "--fixture", fixture, "--out", tmp_path / "out")
        assert code == EXIT_DATA
        assert capsys.readouterr().err == "fovlink: scene 'a': non-positive image dimensions 0x10\n"

    def test_unscripted_key_is_data_error(self, workspace):
        tmp_path, manifest, _ = workspace
        fixture = write_fixture(tmp_path, {})
        code = run_cli(
            "exp1", "--manifest", manifest, "--fixture", fixture, "--runs", 1,
            "--out", tmp_path / "out",
        )
        assert code == EXIT_DATA

    def test_all_faults_is_backend_error(self, workspace):
        tmp_path, manifest, scenes = workspace
        fixture = write_fixture(
            tmp_path, binary_script(scenes, fault={r.scene_id for r in scenes})
        )
        code = run_cli(
            "exp1", "--manifest", manifest, "--fixture", fixture, "--runs", 1,
            "--out", tmp_path / "out",
        )
        assert code == EXIT_BACKEND

    def test_mock_without_fixture_is_usage_error(self, workspace):
        tmp_path, manifest, _ = workspace
        with pytest.raises(SystemExit) as exc:
            run_cli("exp1", "--manifest", manifest, "--out", tmp_path / "out")
        assert exc.value.code == EXIT_USAGE

    def test_missing_required_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("exp1")
        assert exc.value.code == EXIT_USAGE


class TestArgumentBounds:
    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--runs", "0"),
            ("--parallelism", "0"),
            ("--max-tokens", "0"),
            ("--timeout", "0"),
            ("--retries", "-1"),
            ("--temperature", "-1"),
            ("--runs", "many"),
        ],
    )
    def test_out_of_range_number_is_usage_error(self, workspace, capsys, flag, value):
        tmp_path, manifest, scenes = workspace
        fixture = write_fixture(tmp_path, binary_script(scenes))
        with pytest.raises(SystemExit) as exc:
            run_cli(
                "exp1", "--manifest", manifest, "--fixture", fixture, flag, value,
                "--out", tmp_path / "out",
            )
        assert exc.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1].startswith(f"fovlink exp1: error: argument {flag}: ")
        assert not (tmp_path / "out").exists()


class TestQueryParamBounds:
    """Each query flag rejects exactly the values that the QueryParams field behind it rejects."""

    @pytest.mark.parametrize("text", ["0", "-1", "inf", "nan", str(int(TIMEOUT_MAX) + 1)])
    @pytest.mark.parametrize(
        "flag, field, convert",
        [
            ("--timeout", "timeout", float),
            ("--temperature", "temperature", float),
            ("--retries", "max_retries", int),
            ("--max-tokens", "max_tokens", int),
        ],
    )
    def test_the_cli_rejects_a_value_exactly_when_query_params_does(
        self, workspace, capsys, flag, field, convert, text
    ):
        try:
            QueryParams(**{field: convert(text)})
            rejected = False
        except ValueError:  # int("inf") too: no int flag can be given it
            rejected = True
        tmp_path, manifest, scenes = workspace
        fixture = write_fixture(tmp_path, binary_script(scenes))
        argv = ["exp1", "--manifest", manifest, "--fixture", fixture, "--runs", 1, flag, text, "--out", tmp_path / "out"]
        if not rejected:
            assert run_cli(*argv) == EXIT_OK
            return
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1].startswith(f"fovlink exp1: error: argument {flag}: ")
        assert not (tmp_path / "out").exists()

    def test_v2v_takes_no_parallelism(self, workspace, capsys):
        # v2v sends its queries one by one, so the flag used to be accepted and ignored
        tmp_path, manifest, scenes = workspace
        fixture = write_fixture(tmp_path, localization_script(scenes, "no pedestrian"))
        with pytest.raises(SystemExit) as exc:
            run_cli(
                "v2v", "--scenario", _v2v_scenario(tmp_path), "--manifest", manifest, "--fixture", fixture,
                "--parallelism", "2", "--out", tmp_path / "out",
            )
        assert exc.value.code == EXIT_USAGE
        assert capsys.readouterr().err.splitlines()[-1] == "fovlink: error: unrecognized arguments: --parallelism 2"
        assert not (tmp_path / "out").exists()


# each number flag, the dataclass and field it sets, and a value that field rejects
_FIELD_FLAGS = [
    ("--max-tokens", QueryParams, "max_tokens", "0"),
    ("--temperature", QueryParams, "temperature", "-1"),
    ("--timeout", QueryParams, "timeout", "0"),
    ("--retries", QueryParams, "max_retries", "-1"),
    ("--runs", ExperimentConfig, "runs_per_prompt", "0"),
    ("--parallelism", ExperimentConfig, "parallelism", "0"),
]


class TestFieldFlags:
    """Each number flag takes its default and its bound from the dataclass field it sets."""

    @pytest.mark.parametrize("flag, owner, name, text", _FIELD_FLAGS)
    def test_an_out_of_range_value_is_a_usage_error_in_the_fields_words(
        self, workspace, capsys, flag, owner, name, text
    ):
        with pytest.raises(ValueError) as rejected:
            owner(**{name: type(getattr(owner(), name))(text)})
        tmp_path, manifest, scenes = workspace
        fixture = write_fixture(tmp_path, binary_script(scenes))
        with pytest.raises(SystemExit) as exc:
            run_cli("exp1", "--manifest", manifest, "--fixture", fixture, flag, text, "--out", tmp_path / "out")
        assert exc.value.code == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()[-1]
        assert err == f"fovlink exp1: error: argument {flag}: {rejected.value}, got {text}"
        assert not (tmp_path / "out").exists()

    def test_each_flag_defaults_to_its_fields_default(self):
        args = _build_parser().parse_args(["exp1", "--manifest", "scenes.jsonl", "--out", "out"])
        for flag, owner, name, _ in _FIELD_FLAGS:
            default = getattr(args, flag[2:].replace("-", "_"))
            assert default == getattr(owner(), name) and type(default) is type(getattr(owner(), name)), flag

    def test_a_target_named_twice_is_usage_error(self, workspace, capsys):
        tmp_path, _, _ = workspace
        with pytest.raises(SystemExit) as exc:
            run_cli("report", "--in", tmp_path, "--targets", "csv,svg,csv")
        assert exc.value.code == EXIT_USAGE
        assert capsys.readouterr().err.splitlines()[-1] == (
            "fovlink report: error: argument --targets: must be comma-separated render targets, "
            "each named once, got csv,svg,csv"
        )


@pytest.mark.parametrize(
    "argv, flag, what",
    [
        (["report", "--in", "out", "--targets"], "--targets", "render targets"),
        (["exp3", "--manifest", "ghost.jsonl", "--fixture", "ghost.json", "--out", "out", "--prompts"], "--prompts", "prompt ids"),
    ],
    ids=["targets", "prompts"],
)
@pytest.mark.parametrize("text", ["", " , "], ids=["empty", "commas"])
def test_an_empty_list_is_usage_error(capsys, argv, flag, what, text):
    # report used to write nothing and exit 0; exp3 exited 2
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, text)
    assert exc.value.code == EXIT_USAGE
    assert capsys.readouterr().err.splitlines()[-1].endswith(
        f"error: argument {flag}: must name at least one of the {what}, got none"
    )


@pytest.mark.parametrize(
    "command, flag, value, message",
    [
        ("exp1", "--prompt", "P1", "prompt P1 is not a yes/no prompt"),
        ("exp1", "--prompt", "P9", "unknown prompt_id 'P9'"),
        ("exp2", "--prompt", "BIN", "prompt BIN is not a coordinate prompt"),
        ("exp3", "--prompts", "P1,BIN", "prompt BIN is not a coordinate prompt"),
        ("exp3", "--prompts", "P1,P9", "unknown prompt_id 'P9'"),
    ],
    ids=["exp1-P1", "exp1-P9", "exp2-BIN", "exp3-BIN", "exp3-P9"],
)
def test_a_prompt_the_command_cannot_take_is_usage_error_before_any_input_is_read(
    tmp_path, capsys, command, flag, value, message
):
    # a prompt of the wrong kind used to exit 2, and every such id was
    # checked only after the manifest and fixture were read
    code = run_cli(
        command, "--manifest", tmp_path / "ghost.jsonl", "--fixture", tmp_path / "ghost.json", flag, value,
        "--out", tmp_path / "out",
    )
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == f"fovlink: {message}\n"
    assert not (tmp_path / "out").exists()


def test_a_malformed_base_url_is_backend_error_before_any_request(workspace, monkeypatch, capsys):
    # it used to end in a ValueError traceback
    tmp_path, manifest, _ = workspace
    monkeypatch.setenv("FOVLINK_BASE_URL", "http://[::1")
    code = run_cli("exp1", "--backend", "live", "--manifest", manifest, "--runs", 1, "--out", tmp_path / "out")
    assert code == EXIT_BACKEND
    assert capsys.readouterr().err == "fovlink: backend failure: malformed base URL 'http://[::1': Invalid IPv6 URL\n"
    assert not (tmp_path / "out").exists()


def test_ctrl_c_ends_a_run_with_one_line_and_exit_130(workspace, monkeypatch, capsys):
    # a KeyboardInterrupt used to end the run with a traceback
    tmp_path, manifest, scenes = workspace
    fixture = write_fixture(tmp_path, binary_script(scenes, runs=3))
    complete, calls = MockBackend.complete, []

    def interrupted_on_the_third_call(self, *args):
        calls.append(args)
        if len(calls) == 3:
            raise KeyboardInterrupt
        return complete(self, *args)

    monkeypatch.setattr(MockBackend, "complete", interrupted_on_the_third_call)
    try:
        code = run_cli("exp1", "--manifest", manifest, "--fixture", fixture, "--out", tmp_path / "out")
    except KeyboardInterrupt:
        pytest.fail("a KeyboardInterrupt escaped main")
    assert code == EXIT_INTERRUPTED == 130
    assert capsys.readouterr().err == "fovlink: interrupted\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs on this platform")
def test_a_fifo_as_a_frame_is_data_error_not_a_hang(workspace):
    # opening a FIFO used to block until a writer came, so even a mock run never ended
    tmp_path, manifest, scenes = workspace
    fixture = write_fixture(tmp_path, binary_script(scenes))
    frame = scenes.by_id["neg_a"].image_path
    frame.unlink()
    os.mkfifo(frame)
    src = str(Path(fovlink.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-m", "fovlink", "exp1", "--manifest", str(manifest), "--fixture", str(fixture),
         "--runs", "1", "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=20,
    )
    assert done.returncode == EXIT_DATA
    assert done.stderr == f"fovlink: scene 'neg_a': frame {frame} is not a regular file\n"
    assert not (tmp_path / "out").exists()


class TestFixtureAndBackendExitCodes:
    def test_malformed_fixture_is_data_error(self, workspace, capsys):
        tmp_path, manifest, scenes = workspace
        fixture = write_fixture(tmp_path, binary_script(scenes))
        fixture.write_text(fixture.read_text()[:40], encoding="utf-8")
        code = run_cli(
            "exp1", "--manifest", manifest, "--fixture", fixture, "--out", tmp_path / "out"
        )
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("fovlink: fixture error: mock fixture is not valid JSON")

    def test_fixture_entry_with_an_unknown_field_is_data_error(self, workspace, capsys):
        tmp_path, manifest, scenes = workspace
        script = binary_script(scenes)
        script[script_key("pos_a", "BIN", 0)] = {"text": "yes", "note": 1}
        fixture = write_fixture(tmp_path, script)
        code = run_cli("exp1", "--manifest", manifest, "--fixture", fixture, "--runs", 1, "--out", tmp_path / "out")
        assert code == EXIT_DATA
        assert capsys.readouterr().err == (
            "fovlink: fixture error: fixture entry 'pos_a|BIN|0' has unknown field 'note'\n"
        )
        assert not (tmp_path / "out").exists()

    def test_malformed_live_reply_is_backend_error(self, workspace, monkeypatch, capsys):
        tmp_path, manifest, _ = workspace
        with LoopbackServer(lambda body: http_reply(b"<html>not json</html>")) as server:
            monkeypatch.setenv("FOVLINK_BASE_URL", server.url)
            code = run_cli(
                "exp1", "--backend", "live", "--manifest", manifest, "--runs", 1,
                "--out", tmp_path / "out",
            )
        assert code == EXIT_BACKEND
        assert "backend failure" in capsys.readouterr().err

    def test_run_zero_all_faulted_is_backend_error(self, workspace, capsys):
        tmp_path, manifest, scenes = workspace
        script = binary_script(scenes, runs=3)
        for record in scenes:
            script[script_key(record.scene_id, "BIN", 0)] = {"fault": "transport"}
        fixture = write_fixture(tmp_path, script)
        code = run_cli(
            "exp1", "--manifest", manifest, "--fixture", fixture, "--runs", 3,
            "--out", tmp_path / "out",
        )
        assert code == EXIT_BACKEND
        assert "all 3 scenes failed at the gateway in run 0" in capsys.readouterr().err


class TestFrames:
    """A frame that cannot be used stops the run with one line and exit 2, whatever the backend."""

    def run(self, workspace, monkeypatch, backend):
        tmp_path, manifest, scenes = workspace
        fixture = write_fixture(tmp_path, binary_script(scenes))
        common = ["exp1", "--manifest", manifest, "--runs", 1, "--out", tmp_path / "out"]
        if backend == "mock":
            return run_cli(*common, "--fixture", fixture)
        with LoopbackServer(lambda body: completion_reply("no")) as server:
            monkeypatch.setenv("FOVLINK_BASE_URL", server.url)
            return run_cli(*common, "--backend", "live")

    @pytest.mark.parametrize("backend", ["mock", "live"])
    def test_empty_frame_is_data_error(self, workspace, monkeypatch, capsys, backend):
        # a 0-byte frame used to end in a ValueError traceback (exit 1)
        tmp_path, _, scenes = workspace
        frame = scenes.by_id["pos_b"].image_path
        frame.write_bytes(b"")
        assert self.run(workspace, monkeypatch, backend) == EXIT_DATA
        assert capsys.readouterr().err == f"fovlink: scene 'pos_b': frame {frame} is empty\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("backend", ["mock", "live"])
    @pytest.mark.parametrize(
        "damage, error",
        [("missing", "[Errno 2] No such file or directory"), ("directory", "[Errno 21] Is a directory")],
    )
    def test_unreadable_frame_is_io_error(self, workspace, monkeypatch, capsys, backend, damage, error):
        tmp_path, _, scenes = workspace
        frame = scenes.by_id["neg_a"].image_path
        frame.unlink()
        if damage == "directory":
            frame.mkdir()
        assert self.run(workspace, monkeypatch, backend) == EXIT_DATA
        assert capsys.readouterr().err == f"fovlink: i/o error: {error}: '{frame}'\n"
        assert not (tmp_path / "out").exists()


class TestDroppedConnections:
    """A live server that closes connections yields per-scene faults, not an i/o abort."""

    def test_dropped_scene_is_recorded_as_fault(self, workspace, monkeypatch):
        tmp_path, manifest, _ = workspace
        # conftest frames are the scene id repeated; neg_a's request carries it in base64
        marker = base64.b64encode(b"neg_a" * 16)

        def respond(body: bytes) -> bytes | None:
            return None if marker in body else completion_reply("no")

        out = tmp_path / "out"
        with LoopbackServer(respond) as server:
            monkeypatch.setenv("FOVLINK_BASE_URL", server.url)
            code = run_cli(
                "exp1", "--backend", "live", "--manifest", manifest, "--runs", 1,
                "--retries", 0, "--out", out,
            )
        assert code == EXIT_OK
        lines = (out / "binary_results.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in lines]
        faults = {r["scene_id"]: r["fault"] for r in records if r["outcome"] == "fault"}
        assert list(faults) == ["neg_a"]
        assert faults["neg_a"].startswith("TransportError: transport after 1 attempts")
        assert "RemoteDisconnected" in faults["neg_a"]

    def test_every_connection_dropped_is_backend_error(self, workspace, monkeypatch, capsys):
        tmp_path, manifest, _ = workspace
        with LoopbackServer(lambda body: None) as server:
            monkeypatch.setenv("FOVLINK_BASE_URL", server.url)
            code = run_cli(
                "exp1", "--backend", "live", "--manifest", manifest, "--runs", 1,
                "--retries", 0, "--out", tmp_path / "out",
            )
        assert code == EXIT_BACKEND
        assert "all 3 scenes failed at the gateway" in capsys.readouterr().err


class TestExp2AndExp3:
    def test_exp2_writes_localization_outputs(self, workspace, capsys):
        tmp_path, manifest, scenes = workspace
        fixture = write_fixture(tmp_path, localization_script(scenes, GT_TEMPLATE, runs=2))
        out = tmp_path / "out"
        code = run_cli(
            "exp2", "--manifest", manifest, "--fixture", fixture, "--runs", 2, "--out", out
        )
        assert code == EXIT_OK
        assert "union rate 100.00%" in capsys.readouterr().out
        for name in (
            "localization_summary.csv",
            "failures.csv",
            "localization_results.jsonl",
            "recall_distribution.svg",
            "iou_shares.svg",
        ):
            assert (out / name).is_file(), name

    def test_exp3_compares_prompts(self, workspace, capsys):
        tmp_path, manifest, scenes = workspace
        script = {}
        for prompt_id in ("P1", "P2"):
            script.update(localization_script(scenes, GT_TEMPLATE, prompt_id))
        fixture = write_fixture(tmp_path, script)
        out = tmp_path / "out"
        code = run_cli(
            "exp3", "--manifest", manifest, "--fixture", fixture, "--prompts", "P1,P2",
            "--runs", 1, "--out", out,
        )
        assert code == EXIT_OK
        comparison = (out / "prompt_comparison.csv").read_text().splitlines()
        assert len(comparison) == 3  # header + P1 + P2

    def test_repeated_prompt_id_is_usage_error(self, workspace, capsys):
        # a repeated id used to emit the prompt's rows twice, which
        # `fovlink report` then merged into one row of twice the tests
        tmp_path, manifest, scenes = workspace
        fixture = write_fixture(tmp_path, localization_script(scenes, GT_TEMPLATE))
        with pytest.raises(SystemExit) as exc:
            run_cli(
                "exp3", "--manifest", manifest, "--fixture", fixture, "--prompts", "P1,P1,P3",
                "--runs", 1, "--out", tmp_path / "out",
            )
        assert exc.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1].startswith("fovlink exp3: error: argument --prompts: ")
        assert not (tmp_path / "out").exists()


class TestV2V:
    def test_dialogue_simulation(self, workspace, capsys):
        tmp_path, manifest, scenes = workspace
        scenario = tmp_path / "scenario.json"
        scenario.write_text(
            json.dumps(
                {
                    "vehicles": [
                        {"vehicle_id": "ego", "role": "ego"},
                        {"vehicle_id": "vehicle_a", "role": "remote", "scene_id": "pos_a"},
                        {"vehicle_id": "vehicle_b", "role": "remote", "scene_id": "pos_b"},
                    ],
                    "link": {"rate_bps": 1000000, "overhead": 0.1},
                    "prompt_id": "P1",
                }
            ),
            encoding="utf-8",
        )
        fixture = write_fixture(
            tmp_path,
            {
                script_key("pos_a", "P1", 0): {"text": GT_TEMPLATE},
                script_key("pos_b", "P1", 0): {"text": "yes"},
            },
        )
        out = tmp_path / "out"
        code = run_cli(
            "v2v", "--scenario", scenario, "--manifest", manifest, "--fixture", fixture,
            "--out", out,
        )
        assert code == EXIT_OK
        assert "4 messages" in capsys.readouterr().out
        assert (out / "v2v_transcript.jsonl").is_file()
        assert (out / "v2v_comparison.csv").is_file()
        assert (out / "v2v_link.json").is_file()

    def test_non_string_scene_id_is_data_error(self, workspace, capsys):
        tmp_path, manifest, _ = workspace
        scenario = tmp_path / "scenario.json"
        scenario.write_text(
            json.dumps(
                {
                    "vehicles": [
                        {"vehicle_id": "ego", "role": "ego"},
                        {"vehicle_id": "vehicle_a", "role": "remote", "scene_id": ["pos_a"]},
                    ],
                    "link": {"rate_bps": 1000000},
                    "prompt_id": "P1",
                }
            ),
            encoding="utf-8",
        )
        fixture = write_fixture(tmp_path, {script_key("pos_a", "P1", 0): {"text": "yes"}})
        code = run_cli(
            "v2v", "--scenario", scenario, "--manifest", manifest, "--fixture", fixture,
            "--out", tmp_path / "out",
        )
        assert code == EXIT_DATA
        assert "vehicles[1].scene_id" in capsys.readouterr().err

    def test_bad_scenario_is_data_error(self, workspace):
        tmp_path, manifest, _ = workspace
        scenario = tmp_path / "scenario.json"
        scenario.write_text("{}", encoding="utf-8")
        fixture = write_fixture(tmp_path, {})
        code = run_cli(
            "v2v", "--scenario", scenario, "--manifest", manifest, "--fixture", fixture,
            "--out", tmp_path / "out",
        )
        assert code == EXIT_DATA


    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda s: s["vehicles"][2].update(vehicle_id="vehicle_a"), "vehicle id 'vehicle_a' is named twice"),
            (lambda s: s["vehicles"][1].update(vehicle_id="ego"), "vehicle id 'ego' is named twice"),
            (lambda s: s.update(prompt_id="P9"), "scenario: field 'prompt_id' is an unknown prompt_id 'P9'"),
        ],
        ids=["two_remotes", "remote_named_ego", "prompt_id"],
    )
    def test_a_repeated_vehicle_id_or_unregistered_prompt_is_data_error(self, workspace, capsys, edit, message):
        # the repeated ids used to run, and an unregistered prompt_id exited 1
        tmp_path, manifest, scenes = workspace
        scenario = _v2v_scenario(tmp_path)
        raw = json.loads(scenario.read_text(encoding="utf-8"))
        edit(raw)
        scenario.write_text(json.dumps(raw), encoding="utf-8")
        fixture = write_fixture(tmp_path, localization_script(scenes, GT_TEMPLATE))
        code = run_cli(
            "v2v", "--scenario", scenario, "--manifest", manifest, "--fixture", fixture, "--out", tmp_path / "out"
        )
        assert code == EXIT_DATA
        assert capsys.readouterr().err == f"fovlink: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("rate", [float("nan"), float("inf")], ids=["NaN", "Infinity"])
    def test_non_finite_link_rate_is_data_error(self, workspace, capsys, rate):
        tmp_path, manifest, _ = workspace
        scenario = tmp_path / "scenario.json"
        vehicles = [
            {"vehicle_id": "ego", "role": "ego"},
            {"vehicle_id": "vehicle_a", "role": "remote", "scene_id": "pos_a"},
        ]
        # json.dumps writes the NaN and Infinity literals that json.loads accepts
        scenario.write_text(
            json.dumps({"vehicles": vehicles, "link": {"rate_bps": rate}, "prompt_id": "P1"}),
            encoding="utf-8",
        )
        fixture = write_fixture(tmp_path, {script_key("pos_a", "P1", 0): {"text": "yes"}})
        code = run_cli(
            "v2v", "--scenario", scenario, "--manifest", manifest, "--fixture", fixture,
            "--out", tmp_path / "out",
        )
        assert code == EXIT_DATA
        assert "link rate must be finite and positive" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestReportCommand:
    def test_rerender_round_trip(self, workspace):
        tmp_path, manifest, scenes = workspace
        fixture = write_fixture(tmp_path, binary_script(scenes, runs=2))
        out = tmp_path / "out"
        assert run_cli(
            "exp1", "--manifest", manifest, "--fixture", fixture, "--runs", 2, "--out", out
        ) == EXIT_OK
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert run_cli("report", "--in", out, "--targets", "csv,records,svg") == EXIT_OK
        after = {p.name: p.read_bytes() for p in out.iterdir()}
        assert before == after

    def test_empty_dir_is_data_error(self, tmp_path):
        (tmp_path / "empty").mkdir()
        assert run_cli("report", "--in", tmp_path / "empty") == EXIT_DATA

    def test_bad_target_is_data_error(self, workspace):
        tmp_path, _, _ = workspace
        assert run_cli("report", "--in", tmp_path, "--targets", "pdf") == EXIT_DATA


@pytest.mark.parametrize(
    "argv, code",
    [(["--help"], EXIT_OK), (["report", "--in", "no_such_dir"], EXIT_DATA)],
    ids=["help", "report"],
)
def test_python_dash_m_fovlink_runs_the_cli(tmp_path, argv, code):
    src = str(Path(fovlink.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-m", "fovlink", *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == code, done.stderr
    assert "Traceback" not in done.stderr


@pytest.fixture(scope="module")
def fixture_workspace(tmp_path_factory):
    """A manifest and a valid two-run exp1 fixture for it, one entry a scripted fault."""
    root = tmp_path_factory.mktemp("fixture_property")
    records = [scene_line("pos_a", positive=True), scene_line("neg_a", positive=False)]
    manifest = write_manifest(root, records)
    script = binary_script(load_manifest(manifest), runs=2)
    script[script_key("neg_a", "BIN", 1)] = {"fault": "timeout"}
    fixture = write_fixture(root, script)
    assert run_cli(
        "exp1", "--manifest", manifest, "--fixture", fixture, "--runs", 2, "--out", root / "out"
    ) == EXIT_OK
    return manifest, script


# one value of each JSON type; a swap picks a value whose type differs
_JSON_VALUES = {"str": "x", "int": 7, "float": 0.5, "bool": True, "null": None, "list": ["x"], "object": {"k": 1}}


def _json_type(value) -> str:
    return next(kind for kind, sample in _JSON_VALUES.items() if type(value) is type(sample))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_exp1_over_a_corrupted_fixture_exits_2(fixture_workspace, data):
    manifest, script = fixture_workspace
    script = {key: dict(entry) for key, entry in script.items()}
    # every field: the whole object, each entry, each entry's text or fault
    paths = [()] + [(key,) for key in script] + [(key, name) for key in script for name in script[key]]
    path = data.draw(st.sampled_from(paths))
    mutation = data.draw(st.sampled_from(("swap", "delete", "truncate") if path else ("swap", "truncate")))
    text = json.dumps(script, indent=1)
    if mutation == "truncate":
        text = text[: data.draw(st.integers(0, len(text) - 1))]
    else:
        parent = script
        for key in path[:-1]:
            parent = parent[key]
        current = parent[path[-1]] if path else script
        if mutation == "swap":
            kind = data.draw(st.sampled_from(sorted(set(_JSON_VALUES) - {_json_type(current)})))
            value = _JSON_VALUES[kind]
            if path:
                parent[path[-1]] = value
            else:
                script = value
        else:
            del parent[path[-1]]
        text = json.dumps(script, indent=1)
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
        fixture = Path(tmp) / "fixture.json"
        fixture.write_text(text, encoding="utf-8")
        code = run_cli(
            "exp1", "--manifest", manifest, "--fixture", fixture, "--runs", 2,
            "--out", Path(tmp) / "out",
        )
    assert code == EXIT_DATA
    assert err.getvalue().startswith("fovlink: fixture error: ")
    assert "Traceback" not in err.getvalue()


def _v2v_scenario(tmp_path: Path) -> Path:
    scenario = tmp_path / "scenario.json"
    vehicles = [
        {"vehicle_id": "ego", "role": "ego"},
        {"vehicle_id": "vehicle_a", "role": "remote", "scene_id": "pos_a"},
        {"vehicle_id": "vehicle_b", "role": "remote", "scene_id": "pos_b"},
    ]
    link = {"rate_bps": 1000000, "overhead": 0.1}
    scenario.write_text(json.dumps({"vehicles": vehicles, "link": link, "prompt_id": "P1"}), encoding="utf-8")
    return scenario


def test_run_subcommands_print_exactly_these_lines(workspace, capsys):
    """The whole stdout of exp1, exp2, exp3 and v2v: summary lines, then one ``wrote`` line per file."""
    tmp_path, manifest, scenes = workspace
    script = binary_script(scenes, runs=2, flip={"pos_b"})
    script[script_key("neg_a", "BIN", 1)] = {"fault": "timeout"}
    for prompt_id, miss in (("P1", "I cannot identify any pedestrian."), ("P2", "(0.1,0.1), (0.2")):
        script.update(localization_script(scenes, GT_TEMPLATE, prompt_id, runs=2))
        script[script_key("pos_b", prompt_id, 1)] = {"text": miss}
    fixture = write_fixture(tmp_path, script)
    common = ["--manifest", manifest, "--fixture", fixture, "--runs", 2]
    out = tmp_path / "out"
    cases = [
        (
            ["exp1", *common],
            ["exp1 BIN: matrix (tp=1, fn=1, fp=0, tn=1), recall 50.00%"],
            ["binary_results.jsonl", "consistency.csv", "detection_stats.csv"],
        ),
        (
            ["exp2", "--prompt", "P2", *common],
            ["exp2 P2: union rate 75.00% over 4 tests, recall_all 75.00%"],
            [
                "consistency.csv", "failures.csv", "iou_shares.svg", "localization_results.jsonl",
                "localization_summary.csv", "recall_distribution.svg",
            ],
        ),
        (
            ["exp3", "--prompts", "P2,P1", *common],
            ["exp3 P2: union rate 75.00%", "exp3 P1: union rate 75.00%"],
            [
                "comparison_results.jsonl", "consistency.csv", "iou_shares.svg",
                "prompt_comparison.csv", "recall_distribution.svg",
            ],
        ),
        (
            ["v2v", "--scenario", _v2v_scenario(tmp_path), "--manifest", manifest, "--fixture", fixture],
            [
                "v2v: 4 messages, dialogue 1535 B (0.013644 s) vs stream 160 B (0.001422 s), "
                "ratio 9.593750"
            ],
            ["v2v_comparison.csv", "v2v_link.json", "v2v_transcript.jsonl"],
        ),
    ]
    for argv, summary, files in cases:
        target = out / str(argv[0])
        assert run_cli(*argv, "--out", target) == EXIT_OK, argv
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines() == summary + [f"wrote {target / name}" for name in files]


class TestRepliesUTF8CannotHold:
    """Reply text that is not UTF-8, or holds a lone surrogate, is stopped where it enters, never at the writer."""

    def test_non_utf8_live_reply_is_backend_error(self, workspace, monkeypatch, capsys):
        # used to escape as a UnicodeDecodeError traceback
        tmp_path, manifest, _ = workspace
        reply = http_reply(b'{"choices": [{"message": {"content": "\xff"}}]}')
        with LoopbackServer(lambda body: reply) as server:
            monkeypatch.setenv("FOVLINK_BASE_URL", server.url)
            code = run_cli(
                "exp1", "--backend", "live", "--manifest", manifest, "--runs", 1,
                "--out", tmp_path / "out",
            )
        assert code == EXIT_BACKEND
        assert "backend failure" in capsys.readouterr().err

    def test_live_reply_with_a_lone_surrogate_is_a_recorded_fault(self, workspace, monkeypatch):
        # used to crash the report writer with a UnicodeEncodeError
        tmp_path, manifest, _ = workspace
        marker = base64.b64encode(b"pos_b" * 16)

        def respond(body: bytes) -> bytes:
            return completion_reply("yes \ud800" if marker in body else "yes")

        out = tmp_path / "out"
        with LoopbackServer(respond) as server:
            monkeypatch.setenv("FOVLINK_BASE_URL", server.url)
            code = run_cli("exp1", "--backend", "live", "--manifest", manifest, "--runs", 1, "--out", out)
        assert code == EXIT_OK
        records = [json.loads(line) for line in (out / "binary_results.jsonl").read_text().splitlines()]
        faults = {r["scene_id"]: r["fault"] for r in records if r["outcome"] == "fault"}
        assert list(faults) == ["pos_b"]
        assert faults["pos_b"].startswith("MalformedBackendReply: completion content holds a lone surrogate")
        assert run_cli("report", "--in", out) == EXIT_OK

    def test_fixture_text_with_a_lone_surrogate_is_data_error(self, workspace, capsys):
        tmp_path, manifest, scenes = workspace
        script = binary_script(scenes)
        script[script_key("pos_a", "BIN", 0)] = {"text": "yes \ud800"}
        fixture = write_fixture(tmp_path, script)
        code = run_cli("exp1", "--manifest", manifest, "--fixture", fixture, "--runs", 1, "--out", tmp_path / "out")
        assert code == EXIT_DATA
        assert capsys.readouterr().err == (
            "fovlink: fixture error: fixture entry 'pos_a|BIN|0' has text with a lone surrogate\n"
        )
        assert not (tmp_path / "out").exists()


def test_a_live_frame_that_vanishes_after_it_was_opened_is_io_error(workspace, monkeypatch, capsys):
    # read before any request, so it is never taken for a retried transport fault
    tmp_path, manifest, scenes = workspace
    read = Frame.read

    def vanish_then_read(frame):
        frame.path.unlink(missing_ok=True)
        return read(frame)

    monkeypatch.setattr(Frame, "read", vanish_then_read)
    with LoopbackServer(lambda body: completion_reply("no")) as server:
        monkeypatch.setenv("FOVLINK_BASE_URL", server.url)
        code = run_cli("exp1", "--backend", "live", "--manifest", manifest, "--runs", 1, "--out", tmp_path / "out")
    assert code == EXIT_DATA
    frame = scenes.by_id["pos_a"].image_path
    assert capsys.readouterr().err == f"fovlink: i/o error: [Errno 2] No such file or directory: '{frame}'\n"
    assert server.connections == 0
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("parallelism", [1, 2, 4])
def test_a_live_run_stops_at_its_first_error(tmp_path, monkeypatch, capsys, parallelism):
    # the other workers used to take every remaining scene before the error surfaced:
    # 117 of 120 requests at parallelism 2 and 4
    records = [scene_line(f"s{i:02d}", positive=False) for i in range(40)]
    manifest = write_manifest(tmp_path, records)
    missing = load_manifest(manifest).by_id["s20"].image_path
    missing.unlink()
    with LoopbackServer(lambda body: completion_reply("no")) as server:
        monkeypatch.setenv("FOVLINK_BASE_URL", server.url)
        code = run_cli(
            "exp1", "--backend", "live", "--manifest", manifest, "--runs", 3, "--retries", 0,
            "--parallelism", parallelism, "--out", tmp_path / "out",
        )
    assert code == EXIT_DATA
    assert capsys.readouterr().err == f"fovlink: i/o error: [Errno 2] No such file or directory: '{missing}'\n"
    # the 20 scenes before the missing frame, and at most the one scene each other worker holds
    if parallelism == 1:
        assert server.connections == 60
    else:
        assert server.connections <= 3 * (20 + parallelism - 1)


def test_an_unreachable_host_on_the_reply_side_is_a_recorded_fault(workspace, monkeypatch, capsys):
    # an OSError that urllib does not wrap used to stop the whole run as an i/o error
    import urllib.request

    import fovlink.gateway

    tmp_path, manifest, _ = workspace
    marker = base64.b64encode(b"pos_b" * 16)
    urlopen = urllib.request.urlopen

    def unreachable_for_pos_b(request, timeout):
        if marker in request.data:
            raise OSError(errno.EHOSTUNREACH, "No route to host")
        return urlopen(request, timeout=timeout)

    monkeypatch.setattr(urllib.request, "urlopen", unreachable_for_pos_b)
    monkeypatch.setattr(fovlink.gateway.time, "sleep", lambda seconds: None)
    out = tmp_path / "out"
    with LoopbackServer(lambda body: completion_reply("yes")) as server:
        monkeypatch.setenv("FOVLINK_BASE_URL", server.url)
        code = run_cli("exp1", "--backend", "live", "--manifest", manifest, "--runs", 1, "--out", out)
    assert code == EXIT_OK
    assert "i/o error" not in capsys.readouterr().err
    records = [json.loads(line) for line in (out / "binary_results.jsonl").read_text().splitlines()]
    faults = {r["scene_id"]: r["fault"] for r in records if r["outcome"] == "fault"}
    assert faults == {
        "pos_b": f"TransportError: transport after 3 attempts: OSError: [Errno {errno.EHOSTUNREACH}] No route to host"
    }
    assert server.connections == 2


class TestInputsUTF8CannotHold:
    """An input that is not UTF-8, or holds a string UTF-8 cannot encode, exits 2 where it is read."""

    def test_manifest_that_is_not_utf8_is_data_error(self, workspace, capsys):
        tmp_path, manifest, scenes = workspace
        fixture = write_fixture(tmp_path, binary_script(scenes))
        manifest.write_bytes(manifest.read_bytes().replace(b"pos_a", b"pos_\xff", 1))
        code = run_cli("exp1", "--manifest", manifest, "--fixture", fixture, "--runs", 1, "--out", tmp_path / "out")
        assert code == EXIT_DATA
        assert capsys.readouterr().err.startswith(f"fovlink: manifest {manifest} is not UTF-8: ")
        assert not (tmp_path / "out").exists()

    def test_records_file_that_is_not_utf8_is_data_error(self, workspace, capsys):
        tmp_path, manifest, scenes = workspace
        out = tmp_path / "out"
        fixture = write_fixture(tmp_path, binary_script(scenes))
        assert run_cli("exp1", "--manifest", manifest, "--fixture", fixture, "--runs", 1, "--out", out) == EXIT_OK
        records = out / "binary_results.jsonl"
        records.write_bytes(records.read_bytes().replace(b'"yes"', b'"y\xffs"', 1))
        capsys.readouterr()
        assert run_cli("report", "--in", out) == EXIT_DATA
        assert capsys.readouterr().err.startswith("fovlink: binary_results.jsonl is not UTF-8: ")

    def test_scenario_that_is_not_utf8_is_data_error(self, workspace, capsys):
        tmp_path, manifest, _ = workspace
        scenario = _v2v_scenario(tmp_path)
        scenario.write_bytes(scenario.read_bytes().replace(b'"ego"', b'"eg\xff"', 1))
        fixture = write_fixture(tmp_path, {})
        code = run_cli(
            "v2v", "--scenario", scenario, "--manifest", manifest, "--fixture", fixture, "--out", tmp_path / "out"
        )
        assert code == EXIT_DATA
        assert capsys.readouterr().err.startswith(f"fovlink: scenario {scenario} is not UTF-8: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "field, line",
        [
            ("scene_id", scene_line("s\ud800", positive=True, image_path="images/s.jpg")),
            ("image_path", scene_line("s", positive=True, image_path="images/\ud800.jpg")),
            ("tags[1]", scene_line("s", positive=True, tags=["dusk", "d\ud800"])),
        ],
        ids=["scene_id", "image_path", "tag"],
    )
    def test_manifest_string_with_a_lone_surrogate_is_data_error(self, tmp_path, capsys, field, line):
        # each used to crash later with a UnicodeEncodeError: in the report
        # writer, in os.open or not at all
        manifest = write_manifest(tmp_path, [line], create_images=False)
        fixture = write_fixture(tmp_path, {})
        code = run_cli("exp1", "--manifest", manifest, "--fixture", fixture, "--runs", 1, "--out", tmp_path / "out")
        assert code == EXIT_DATA
        reason = "must be a non-empty string" if field != "tags[1]" else "must be a string"
        assert capsys.readouterr().err == f"fovlink: line 1: field {field!r} {reason} UTF-8 can encode\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "field, reason, edit",
        [
            (
                "vehicles[1].vehicle_id",
                "must be a non-empty string",
                lambda s: s["vehicles"][1].update(vehicle_id="r\ud800"),
            ),
            ("vehicles[1].scene_id", "must be a string", lambda s: s["vehicles"][1].update(scene_id="pos_a\ud800")),
            ("prompt_id", "must be a string", lambda s: s.update(prompt_id="P1\ud800")),
        ],
        ids=["vehicle_id", "scene_id", "prompt_id"],
    )
    def test_scenario_string_with_a_lone_surrogate_is_data_error(self, workspace, capsys, field, reason, edit):
        # a vehicle_id used to crash the transcript writer with a UnicodeEncodeError
        tmp_path, manifest, scenes = workspace
        scenario = _v2v_scenario(tmp_path)
        raw = json.loads(scenario.read_text(encoding="utf-8"))
        edit(raw)
        scenario.write_text(json.dumps(raw), encoding="utf-8")
        fixture = write_fixture(tmp_path, localization_script(scenes, "no pedestrian"))
        code = run_cli(
            "v2v", "--scenario", scenario, "--manifest", manifest, "--fixture", fixture, "--out", tmp_path / "out"
        )
        assert code == EXIT_DATA
        assert capsys.readouterr().err == f"fovlink: scenario: field {field!r} {reason} UTF-8 can encode\n"
        assert not (tmp_path / "out").exists()
