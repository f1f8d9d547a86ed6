"""Work the benchmark runs in child processes, away from the measured one.

    python3 bench/child.py gen DIR SEED N_SCENES LIVE
    python3 bench/child.py setup WORKLOAD DATA_DIR [BASE_URL]
    python3 bench/child.py prepare DATA_DIR OUT_DIR

``gen`` writes a workload's inputs. ``setup`` times, in a fresh process,
the import of ``fovlink.cli`` (interpreter start-up excluded) and then the
program's set-up proper: manifest, fixture, backend. It prints
``{"import_s": ..., "setup_s": ...}``. The ``report`` subcommand has no
set-up beyond the import, so on report-rerender ``setup_s`` is the import.
``prepare`` runs one eval-mock pass to write the output directories that
report-rerender re-renders, and prints the gate's problems as JSON.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

_start = time.perf_counter()
ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]


def _setup(workload: str, data: Path, base_url: str | None) -> dict[str, float]:
    import fovlink.cli  # noqa: F401 - what every subcommand imports
    from fovlink import dataset, gateway

    imported = time.perf_counter()
    import_s = imported - _start
    if workload == "eval-mock":
        dataset.load_manifest(data / "manifest.jsonl")
        gateway.Gateway(gateway.MockBackend.from_file(data / "fixture.json"))
    elif workload == "live-loopback":
        dataset.load_manifest(data / "manifest.jsonl")
        gateway.Gateway(gateway.LiveBackend(base_url=base_url, api_key="benchmark"))
    else:
        return {"import_s": import_s, "setup_s": import_s}
    return {"import_s": import_s, "setup_s": time.perf_counter() - imported}


def main(argv: list[str]) -> int:
    task = argv[0]
    if task == "gen":
        from fovlink.prompts import PROMPTS

        import gen

        out, seed, n_scenes, live = Path(argv[1]), int(argv[2]), int(argv[3]), argv[4] == "1"
        gen.generate(out, seed, n_scenes, {p: s.text for p, s in PROMPTS.items()}, live)
        return 0
    if task == "setup":
        base_url = argv[3] if len(argv) > 3 else None
        print(json.dumps(_setup(argv[1], Path(argv[2]), base_url)))
        return 0
    if task == "prepare":
        from fovlink.gateway import Gateway

        from workloads import EvalMock

        workload = EvalMock(Path(argv[1]), Path(argv[2]))
        result = workload.run_pass(Gateway(workload.setup()))
        print(json.dumps({"problems": result.problems}))
        return 0
    print(f"unknown task {task!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
