"""Every demo script runs to completion against the current API."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from fovlink.cli import EXIT_OK, main

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.name for demo in DEMOS])
def test_demo_exits_0(demo, tmp_path):
    # demos that need files write them under a mkdtemp directory, so TMPDIR
    # keeps them inside the test's own directory
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "TMPDIR": str(tmp_path)}
    done = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr


def test_fovlink_report_reproduces_the_mock_experiments_demo_report(tmp_path):
    # the demo's failures.csv left its low-light failure share empty, which a re-render filled in
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "TMPDIR": str(tmp_path)}
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "03_mock_experiments.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    (report,) = tmp_path.glob("fovlink_demo_*/report")
    copy = shutil.copytree(report, tmp_path / "rerendered")
    assert main(["report", "--in", str(copy)]) == EXIT_OK
    names = sorted(p.name for p in report.iterdir())
    assert "failures.csv" in names
    assert sorted(p.name for p in copy.iterdir()) == names
    for name in names:
        assert (copy / name).read_bytes() == (report / name).read_bytes(), name
