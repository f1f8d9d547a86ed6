"""tools/identity_matrix.py: the byte-identity matrix between two source trees."""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import fovlink

SRC = Path(fovlink.__file__).resolve().parents[1]
TOOL = Path(__file__).resolve().parents[1] / "tools" / "identity_matrix.py"


def run_matrix(src_a: Path, src_b: Path, work: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(TOOL), str(src_a), str(src_b), "--scenes", "12", "--work", str(work)],
        capture_output=True, text=True, timeout=300,
    )


def test_a_tree_matches_itself(tmp_path):
    done = run_matrix(SRC, SRC, tmp_path / "work")
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert lines[-1] == "65 cases over 12 scenes (seed 5), 0 differ"
    # the twelve exp1/exp2/exp3 runs, v2v, the four live runs and their re-renders all succeed and write files
    succeeded = [line for line in lines if line.startswith("ok   exit 0 files") and " 0  fovlink" not in line]
    assert len(succeeded) == 2 * (12 + 2 + 4)


def test_changed_output_differs_and_option_order_does_not(tmp_path):
    changed = tmp_path / "src"
    shutil.copytree(SRC, changed, ignore=shutil.ignore_patterns("__pycache__"))
    cli = changed / "fovlink" / "cli.py"
    text = cli.read_text(encoding="utf-8")
    model = '    shared.add_argument("--model", default="gpt-4o", help="model name for live mode")\n'
    backend = '    shared.add_argument("--backend", choices=("live", "mock"), default="mock")\n'
    assert model in text and backend in text
    text = text.replace(backend, "").replace(model, model + backend)
    cli.write_text(text.replace("recall_all {", "recall over all {"), encoding="utf-8")
    done = run_matrix(SRC, changed, tmp_path / "work")
    assert done.returncode == 1, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    differing = [line for line in lines if line.startswith("DIFF")]
    # the four mock exp2 runs and the two live ones
    assert len(differing) == 6 and all("fovlink exp2 " in line for line in differing)
    assert any(line.startswith("ok   exit 0 files  0  fovlink exp1 --help") for line in lines)
    assert lines[-1] == "65 cases over 12 scenes (seed 5), 6 differ"


def test_a_changed_request_body_differs_in_the_live_runs_only(tmp_path):
    changed = tmp_path / "src"
    shutil.copytree(SRC, changed, ignore=shutil.ignore_patterns("__pycache__"))
    gateway = changed / "fovlink" / "gateway.py"
    text = gateway.read_text(encoding="utf-8")
    model = '        "model": params.model_name,\n'
    assert model in text
    # the server answers by frame and prompt only, so only the bodies tell
    gateway.write_text(text.replace(model, '        "model": params.model_name.upper(),\n'), encoding="utf-8")
    done = run_matrix(SRC, changed, tmp_path / "work")
    assert done.returncode == 1, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    differing = [line for line in lines if line.startswith("DIFF")]
    assert len(differing) == 4 and all(" --backend live " in line for line in differing)
    assert lines[-1] == "65 cases over 12 scenes (seed 5), 4 differ"
    assert sum("request bodies differ" in line for line in lines) == 4
