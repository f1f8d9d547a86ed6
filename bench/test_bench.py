"""Self-tests of the benchmark at a tiny size.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import gen  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from fovlink import gateway  # noqa: E402
from fovlink.prompts import PROMPTS  # noqa: E402

TEXTS = {p: s.text for p, s in PROMPTS.items()}
SCENES = 24


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("live", [False, True])
def test_generator_is_byte_identical_for_a_seed(tmp_path, live):
    for name in ("a", "b"):
        gen.generate(tmp_path / name, 7, SCENES, TEXTS, live)
    gen.generate(tmp_path / "other", 8, SCENES, TEXTS, live)
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "other")


def test_gate_rejects_a_fixture_with_one_flipped_verdict(tmp_path):
    data = tmp_path / "data"
    gen.generate(data, 7, SCENES, TEXTS, live=False)
    workload = workloads.EvalMock(data, tmp_path / "out")
    assert workload.run_pass(gateway.Gateway(workload.setup())).problems == []

    fixture_path = data / "fixture.json"
    fixture = json.loads(fixture_path.read_text(encoding="utf-8"))
    key = next(k for k, v in sorted(fixture.items()) if k.endswith("|BIN|1") and v.get("text") == "yes")
    fixture[key] = {"text": "no"}
    fixture_path.write_text(json.dumps(fixture), encoding="utf-8")
    problems = workload.run_pass(gateway.Gateway(workload.setup())).problems
    assert any(p.startswith("exp1 per-run confusion matrices") for p in problems), problems


def test_stub_retries_do_not_depend_on_parallelism(tmp_path, monkeypatch):
    for name in ("no_proxy", "NO_PROXY"):
        monkeypatch.setenv(name, "127.0.0.1")
    data = tmp_path / "data"
    gen.generate(data, 7, SCENES, TEXTS, live=True)
    assert json.loads((data / "expected.json").read_text())["transient_faults"] >= 1
    stub = subprocess.Popen(
        [sys.executable, str(ROOT / "bench" / "stub.py"), "--script", str(data / "live.json")],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        port = int(stub.stdout.readline().split()[1])
        workload = workloads.LiveLoopback(data, tmp_path / "out", workloads.Stub(port))
        retries = {}
        for parallelism in (1, 2):
            monkeypatch.setattr(workloads, "PARALLELISM", parallelism)
            tracer = spans.Tracer()
            result = workload.run_pass(spans.traced_gateway(gateway, workload.setup(), tracer))
            assert result.problems == []
            retries[parallelism] = spans.summarize(tracer.spans)["gateway.retries"]
    finally:
        stub.terminate()
        stub.wait(timeout=10)
        stub.stdout.close()
    assert retries[1] == retries[2] >= 1
