"""A fovlink process imports only what it runs.

The HTTP stack, logging, statistics and hashlib load at their one point
of use, so a mock run, a re-render and the set-up of a live backend never
pay for them; no run loads the thread pool. Each check runs in a fresh interpreter,
since this test process has long imported all of them.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import fovlink
from fovlink.dataset import load_manifest

from conftest import LoopbackServer, completion_reply, scene_line, write_fixture, write_manifest
from test_experiments import binary_script

HTTP_STACK = ("http.client", "urllib.request", "urllib.error", "email.parser")
POOL = ("concurrent.futures",)
LOADED_ON_USE = (*HTTP_STACK, *POOL, "logging", "statistics", "hashlib")

# prints, as JSON, the modules each step adds to those the interpreter started with
_PROBE = """
import json, sys
before = set(sys.modules)
added = {}
import fovlink.cli
added["import"] = sorted(set(sys.modules) - before)
from fovlink.gateway import Gateway, LiveBackend
Gateway(LiveBackend(base_url="http://127.0.0.1:9/v1"))
added["live_backend"] = sorted(set(sys.modules) - before)
code = fovlink.cli.main(sys.argv[1:])
added["mock_exp1"] = sorted(set(sys.modules) - before)
print(json.dumps({"code": code, "added": added}))
"""


def _fresh_python(args: list[str], cwd: Path, **env: str) -> subprocess.CompletedProcess:
    src = str(Path(fovlink.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd, env={**os.environ, "PYTHONPATH": path, **env}, capture_output=True, text=True, timeout=60,
    )


def _workspace(tmp_path: Path) -> tuple[Path, Path]:
    records = [scene_line("pos_a", positive=True), *(scene_line(s, positive=False) for s in ("neg_a", "neg_b"))]
    manifest = write_manifest(tmp_path, records)
    fixture = write_fixture(tmp_path, binary_script(load_manifest(manifest), runs=2))
    return manifest, fixture


def test_import_live_set_up_and_a_mock_run_leave_out_what_they_do_not_use(tmp_path):
    manifest, fixture = _workspace(tmp_path)
    argv = ["exp1", "--manifest", manifest, "--fixture", fixture, "--runs", "2", "--parallelism", "2"]
    done = _fresh_python(["-c", _PROBE, *map(str, argv), "--out", str(tmp_path / "out")], tmp_path)
    assert done.returncode == 0, done.stderr
    probe = json.loads(done.stdout.splitlines()[-1])
    assert probe["code"] == 0
    added = probe["added"]
    assert "fovlink.cli" in added["import"]
    assert [m for m in LOADED_ON_USE if m in added["import"]] == []
    assert [m for m in LOADED_ON_USE if m in added["live_backend"]] == []
    assert [m for m in (*HTTP_STACK, *POOL) if m in added["mock_exp1"]] == []


def test_a_live_run_imports_the_http_stack_on_its_worker_threads(tmp_path):
    manifest, _ = _workspace(tmp_path)
    out = tmp_path / "out"
    argv = ["exp1", "--backend", "live", "--manifest", manifest, "--runs", "2", "--parallelism", "2", "--out", out]
    with LoopbackServer(lambda body: completion_reply("no")) as server:
        done = _fresh_python(["-m", "fovlink", *map(str, argv)], tmp_path, FOVLINK_BASE_URL=server.url)
    assert done.returncode == 0, done.stderr
    records = [json.loads(line) for line in (out / "binary_results.jsonl").read_text(encoding="utf-8").splitlines()]
    assert len(records) == 6
    assert [r for r in records if r["outcome"] != "verdict"] == []


def test_a_live_run_on_two_workers_imports_no_thread_pool(tmp_path):
    manifest, _ = _workspace(tmp_path)
    argv = ["exp1", "--backend", "live", "--manifest", manifest, "--runs", "2", "--parallelism", "2"]
    probe = "import json, sys, fovlink.cli; print(json.dumps([fovlink.cli.main(sys.argv[1:]), sorted(sys.modules)]))"
    with LoopbackServer(lambda body: completion_reply("no")) as server:
        done = _fresh_python(
            ["-c", probe, *map(str, argv), "--out", str(tmp_path / "out")], tmp_path, FOVLINK_BASE_URL=server.url
        )
    assert done.returncode == 0, done.stderr
    assert server.connections == 6
    code, modules = json.loads(done.stdout.splitlines()[-1])
    assert code == 0
    assert [m for m in POOL if m in modules] == []
