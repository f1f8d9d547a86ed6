#!/usr/bin/env python3
"""Byte-identity matrix: run one set of fovlink commands against two source
trees and compare everything they print and write.

    python tools/identity_matrix.py PARENT_SRC CHANGED_SRC [--scenes 60] [--seed 5] [--work DIR]

One workload (manifest, frames, mock fixture) is generated with
``bench/gen.py`` from the prompts of PARENT_SRC. Then each source tree
runs, in a fresh interpreter of its own with ``PYTHONPATH`` set to it and
its own working directory:

- exp1, exp2 and exp3 at ``--runs`` 1 and 3 and ``--parallelism`` 1 and 8;
- exp1 ``--prompt BIN_REFINED`` (a fixture hole, exit 2), exp3
  ``--prompts P1,P3 --parallelism 4`` and exp3 ``--prompts P1,P1`` (exit 1);
- v2v over two remotes whose P1 reply is scripted and one whose reply the
  tool scripts as a timeout;
- ``fovlink report --targets csv,records,svg`` on every output directory;
- ``--help`` of the program and of every subcommand, and usage errors.

Each command goes through ``fovlink.cli.main`` as ``python -m fovlink``
would call it. The exit code, stdout, stderr and the SHA-256 of every
file in the command's output directory are compared. Usage and help text
are compared with their options sorted, so a change of option order is
the one difference that passes. The live backend is not exercised.

Exit status: 0 when every case matches, 1 otherwise. Standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
REPORT_TARGETS = "csv,records,svg"
# a case is (argv, the directory whose files it is judged by, relative to the side's cwd)
Case = tuple[list[str], str]


def _cases(inputs: Path) -> list[Case]:
    manifest, fixture = str(inputs / "manifest.jsonl"), str(inputs / "fixture.json")
    common = ["--manifest", manifest, "--fixture", fixture]
    runs = [
        [command, *common, "--runs", runs, "--parallelism", parallelism]
        for command in ("exp1", "exp2", "exp3")
        for runs in ("1", "3")
        for parallelism in ("1", "8")
    ]
    runs += [
        ["exp1", *common, "--prompt", "BIN_REFINED", "--runs", "1"],
        ["exp3", *common, "--prompts", "P1,P3", "--parallelism", "4"],
        ["exp3", *common, "--prompts", "P1,P1"],
        ["v2v", "--scenario", str(inputs / "scenario.json"), *common],
    ]
    cases: list[Case] = []
    for index, argv in enumerate(runs):
        out = f"out/{index:02d}_{argv[0]}"
        cases += [([*argv, "--out", out], out), (["report", "--in", out, "--targets", REPORT_TARGETS], out)]
    out = "out/usage"
    usage = [
        [],
        ["exp9"],
        ["exp1"],
        ["exp1", "--manifest", manifest, "--fixture", fixture],
        ["exp2", "--manifest", manifest, "--out", out],
        ["exp1", *common, "--runs", "0", "--out", out],
        ["exp2", *common, "--parallelism", "many", "--out", out],
        ["exp3", *common, "--prompts", "P1,P2,P1", "--out", out],
        ["exp1", *common, "--backend", "cloud", "--out", out],
        ["v2v"],
        ["v2v", *common, "--out", out],
        ["report"],
        ["report", "--in", "out/missing"],
        ["report", "--in", "out/00_exp1", "--targets", "pdf"],
        ["--help"],
        *([command, "--help"] for command in ("exp1", "exp2", "exp3", "v2v", "report")),
    ]
    return cases + [(argv, out) for argv in usage]


def _write_inputs(inputs: Path, src: Path, n_scenes: int, seed: int) -> None:
    """The generated workload plus a v2v scenario over its scripted P1 replies."""
    sys.path[:0] = [str(BENCH), str(src)]
    import gen
    from fovlink.prompts import PROMPTS

    gen.generate(inputs, seed, n_scenes, {p: spec.text for p, spec in PROMPTS.items()}, live=False)
    expected = json.loads((inputs / "expected.json").read_text(encoding="utf-8"))
    remotes = expected["dialogues"]["pairs"][0]
    # a third remote whose reply is a scripted fault, so the dialogue carries an error message
    lines = (inputs / "manifest.jsonl").read_text(encoding="utf-8").splitlines()
    scenes = [json.loads(line) for line in lines]
    faulted = next(s["scene_id"] for s in scenes if s["has_pedestrian"] and s["scene_id"] not in remotes)
    fixture = json.loads((inputs / "fixture.json").read_text(encoding="utf-8"))
    fixture[f"{faulted}|P1|0"] = {"fault": "timeout"}
    (inputs / "fixture.json").write_text(json.dumps(fixture, indent=1, sort_keys=True), encoding="utf-8")
    remotes = [*remotes, faulted]
    vehicles = [{"vehicle_id": "ego", "role": "ego"}]
    vehicles += [
        {"vehicle_id": f"remote_{i}", "role": "remote", "scene_id": scene_id} for i, scene_id in enumerate(remotes)
    ]
    scenario = {"vehicles": vehicles, "link": expected["dialogues"]["link"], "prompt_id": "P1"}
    (inputs / "scenario.json").write_text(json.dumps(scenario), encoding="utf-8")


def _run_side() -> None:
    """Run the cases read from stdin in this interpreter; write their results to stdout as JSON."""
    from fovlink.cli import main

    results = []
    for argv, out_dir in json.loads(sys.stdin.read()):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as e:
                code = e.code if isinstance(e.code, int) else 0 if e.code is None else 1
            except Exception:  # reported as the interpreter would, then compared
                traceback.print_exc()
                code = 1
        directory = Path(out_dir)
        files = {
            str(path.relative_to(directory)): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(directory.rglob("*"))
            if path.is_file()
        }
        results.append({"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "files": files})
    json.dump(results, sys.stdout)


def _side(script: Path, src: Path, cwd: Path, cases: list[Case]) -> list[dict]:
    cwd.mkdir(parents=True)
    # fixed columns, so argparse wraps usage and help text the same way on both sides
    env = {**os.environ, "PYTHONPATH": str(src), "COLUMNS": "100"}
    done = subprocess.run(
        [sys.executable, str(script), "--side"],
        input=json.dumps(cases), cwd=cwd, env=env, capture_output=True, text=True, check=False,
    )
    if done.returncode != 0:
        raise SystemExit(f"identity_matrix: side {src} failed:\n{done.stderr}")
    return json.loads(done.stdout)


def _sorted_options(text: str) -> str:
    """``text`` with each usage block's tokens and each help section's entries sorted."""
    lines, canonical = text.split("\n"), []
    i = 0
    while i < len(lines):
        line = lines[i]
        if line.startswith("usage:"):
            block = [line]
            while i + 1 < len(lines) and lines[i + 1].startswith(" "):
                i += 1
                block.append(lines[i])
            canonical.append("usage: " + " ".join(sorted(" ".join(block).split()[1:])))
        elif line.endswith(":") and not line.startswith(" "):
            # a help section: an entry starts at two spaces, its wrapped help is indented further
            entries: list[list[str]] = []
            while i + 1 < len(lines) and lines[i + 1].startswith(" "):
                i += 1
                if lines[i].startswith("  ") and not lines[i].startswith("   ") or not entries:
                    entries.append([])
                entries[-1].append(lines[i])
            canonical += [line, *("\n".join(entry) for entry in sorted(entries))]
        else:
            canonical.append(line)
        i += 1
    return "\n".join(canonical)


def _differences(a: dict, b: dict) -> list[str]:
    found = []
    if a["code"] != b["code"]:
        found.append(f"exit code {a['code']} != {b['code']}")
    for stream in ("stdout", "stderr"):
        if _sorted_options(a[stream]) != _sorted_options(b[stream]):
            found.append(f"{stream}:\n  --- {a[stream]!r}\n  +++ {b[stream]!r}")
    names = sorted(set(a["files"]) | set(b["files"]))
    found += [f"file {name} differs" for name in names if a["files"].get(name) != b["files"].get(name)]
    return found


def compare(src_a: Path, src_b: Path, work: Path, n_scenes: int, seed: int) -> int:
    """Print one line per case and return the number of cases that differ."""
    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    _write_inputs(inputs, src_a, n_scenes, seed)
    cases = _cases(inputs)
    script = Path(__file__).resolve()
    side_a = _side(script, src_a, work / "a", cases)
    side_b = _side(script, src_b, work / "b", cases)
    differing = 0
    for (argv, _), a, b in zip(cases, side_a, side_b):
        found = _differences(a, b)
        differing += bool(found)
        shown = " ".join(arg.replace(str(inputs), "IN") for arg in argv)
        print(f"{'DIFF' if found else 'ok  '} exit {a['code']} files {len(a['files']):2d}  fovlink {shown}")
        for text in found:
            print(f"    {text}")
    print(f"{len(cases)} cases over {n_scenes} scenes (seed {seed}), {differing} differ")
    return differing


def main(argv: list[str] | None = None) -> int:
    if argv is None and sys.argv[1:] == ["--side"]:
        _run_side()
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src_a", type=Path, help="source tree of the parent, e.g. a checkout's src")
    parser.add_argument("src_b", type=Path, help="source tree of the change")
    parser.add_argument("--scenes", type=int, default=60)
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--work", type=Path, help="empty or missing directory to keep the outputs in")
    args = parser.parse_args(argv)
    src_a, src_b = args.src_a.resolve(), args.src_b.resolve()
    with tempfile.TemporaryDirectory() as tmp:
        work = args.work.resolve() if args.work else Path(tmp)
        return 1 if compare(src_a, src_b, work, args.scenes, args.seed) else 0


if __name__ == "__main__":
    raise SystemExit(main())
