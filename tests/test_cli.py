from __future__ import annotations

import base64
import json

import pytest

from fovlink.cli import EXIT_BACKEND, EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from fovlink.dataset import load_manifest

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
