"""fovlink benchmark.

    python3 bench/run.py --workload eval-mock --seed 1 --seconds 40 --trace 0

Workloads (closed loops from one process, at most 2 worker threads):

- ``eval-mock``: exp1 BIN, exp2 P1 and exp3 P1,P2,P3 on the mock backend
  at parallelism 2, each followed by ``emit_report``, then one two-remote
  P1 dialogue per pair of positive scenes, every message encoded and
  decoded. With no model latency, all the time is the harness's own.
- ``live-loopback``: exp1 BIN and exp2 P1 through ``LiveBackend`` at
  parallelism 2 against an OpenAI-compatible stub in its own process on
  127.0.0.1 (10 ms service delay). The only workload that builds HTTP
  requests and retries.
- ``report-rerender``: ``rerender`` over the exp1, exp2, exp3 and v2v
  output directories of the eval-mock campaign at the same seed, written
  at set-up. The report read path; no gateway, parsing or frame reads.

The seed makes every input (``gen.py``). A run repeats passes of the
workload for about ``--seconds`` and checks every pass against the
generator's expected counts. The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``: end-to-end metrics with
``--trace 0``, per-layer metrics (from traced passes, alternated with
untraced ones to give the tracing overhead) with ``--trace 1``. The line
before it records the machine and the workload parameters, and
``bench/.work/result-<workload>.json`` keeps every pass.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
WORK = BENCH / ".work"
# 1,000 frames (220 MB) for the mock campaign rather than 2,000, and 100 live
# scenes rather than 200: half the pass time gives each run twice the passes
# to take a median over, and a traced live run several traced passes. Query
# latency percentiles pool every traced pass of a run, so p99 keeps more than
# 10 samples beyond it.
SIZES = {"eval-mock": 1000, "live-loopback": 100, "report-rerender": 1000}
SETUP_REPEATS = 15
NOTES = [
    "frames are read warm from the page cache; cold-disk reads are not measured",
    "live traffic crosses the loopback interface, not a real link",
    "the stub injects 429/503 replies that clear on retry but no dropped"
    " connections: one aborts the whole run today (RemoteDisconnected is not retried)",
]


def _child(*args: str, timeout: float = 600) -> str:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child {args[0]} failed: {proc.stderr.strip()}")
    return proc.stdout


def _inputs(workload: str, seed: int) -> Path:
    """Generated inputs for (size, seed), made once and reused across runs."""
    n = SIZES[workload]
    data = WORK / "data" / f"{n}-{seed}"
    if (data / "complete").is_file():
        return data
    # one seed per size is kept: 2,000 frames take 440 MB
    for old in (WORK / "data").glob(f"{n}-*"):
        shutil.rmtree(old)
    _child("gen", str(data), str(seed), str(n), "1" if workload == "live-loopback" else "0")
    (data / "complete").write_text("", encoding="utf-8")
    return data


def _start_stub(data: Path) -> tuple[subprocess.Popen, int]:
    proc = subprocess.Popen(
        [
            sys.executable,
            str(BENCH / "stub.py"),
            "--script",
            str(data / "live.json"),
        ],
        stdout=subprocess.PIPE,
        text=True,
        cwd=ROOT,
    )
    line = proc.stdout.readline().split()
    if len(line) != 2 or line[0] != "PORT":
        _stop(proc)
        raise RuntimeError("loopback stub did not start")
    return proc, int(line[1])


def _stop(proc: subprocess.Popen) -> None:
    proc.terminate()
    try:
        proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


def _cpu_ticks() -> list[int] | None:
    """The machine's CPU time counters (``/proc/stat``), or None off Linux."""
    try:
        with open("/proc/stat", encoding="ascii") as f:
            return [int(v) for v in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def _steal_share(before: list[int] | None, after: list[int] | None) -> float | None:
    """Share of the machine's CPU time the hypervisor gave to other guests."""
    if before is None or after is None or len(before) < 8:
        return None
    spent = [b - a for a, b in zip(before, after)]
    return spent[7] / sum(spent) if sum(spent) else None


def _median(values):
    return statistics.median(values) if values else 0.0


def _run(args, data: Path, stub_port: int | None) -> dict:
    from fovlink import gateway

    import spans
    import workloads

    out = WORK / "out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    setup_args = [args.workload, str(data)]
    setup_problems: list[str] = []
    if args.workload == "eval-mock":
        wl = workloads.EvalMock(data, out)
    elif args.workload == "live-loopback":
        stub = workloads.Stub(stub_port)
        wl = workloads.LiveLoopback(data, out, stub)
        setup_args.append(stub.base_url)
    else:
        setup_problems = json.loads(_child("prepare", str(data), str(out)))["problems"]
        wl = workloads.ReportRerender(out)

    setup_s: list[float] = []
    import_s: list[float] = []

    def probe_setup() -> None:
        probe = json.loads(_child("setup", *setup_args))
        setup_s.append(probe["setup_s"])
        import_s.append(probe["import_s"])

    probe_setup()  # warm-up: byte-compiles and fills the page cache
    setup_s.clear()
    import_s.clear()
    backend = wl.setup()

    passes = []  # (traced, Pass, per-layer metrics or None)
    query_ms: list[float] = []  # every traced send_vision_query of the run
    cycle = (False, True) if args.trace else (False,)
    start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        for traced in cycle:
            if not traced:
                gw = None if backend is None else gateway.Gateway(backend)
                passes.append((False, wl.run_pass(gw), None))
                continue
            tracer = spans.Tracer()
            with spans.instrument(tracer, workloads.MODULES):
                traced_backend = wl.setup()
                gw = None if traced_backend is None else spans.traced_gateway(gateway, traced_backend, tracer)
                result = wl.run_pass(gw)
            passes.append((True, result, {**spans.summarize(tracer.spans), **result.counts}))
            query_ms += spans.query_ms(tracer.spans)
            last_tracer = tracer
        # set-up samples are spread over the run, so one slow spell of the
        # machine does not decide their median
        if len(setup_s) < SETUP_REPEATS:
            probe_setup()
        now = time.perf_counter()
        if now - start + (now - cycle_start) > args.seconds:
            break
    while len(setup_s) < SETUP_REPEATS:
        probe_setup()
    if args.trace:
        last_tracer.write(WORK / f"trace-{args.workload}.jsonl")

    untraced = [p for traced, p, _ in passes if not traced]
    problems = setup_problems + [msg for _, p, _ in passes for msg in p.problems]
    attempted = sum(p.operations for _, p, _ in passes)
    failed = attempted if setup_problems else sum(p.operations for _, p, _ in passes if p.problems)
    if args.trace:
        layer = [m for _, _, m in passes if m is not None]
        metrics = {name: _median([m.get(name, 0.0) for m in layer]) for name in _per_layer_names()}
        metrics.update(spans.latency_percentiles(query_ms))
        metrics["setup.import_s"] = _median(import_s)
        traced_wall = _median([p.wall_s for traced, p, _ in passes if traced])
        metrics["trace.overhead_share"] = traced_wall / _median([p.wall_s for p in untraced]) - 1.0
    else:
        metrics = {
            "setup_s": _median(setup_s),
            "wall_s": _median([p.wall_s for p in untraced]),
            "queries_per_s": _median([p.operations / p.wall_s for p in untraced]),
            "records_per_s": _median([p.records / p.wall_s for p in untraced]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "problems": problems[:20],
        "setup_samples_s": setup_s,
        "import_samples_s": import_s,
        "samples": {
            "setup_s": len(setup_s),
            "passes": len(untraced),
            "traced_passes": len(passes) - len(untraced),
            "traced_queries": len(query_ms),
        },
        "passes": [
            {"traced": traced, "wall_s": p.wall_s, "operations": p.operations, "ok": not p.problems}
            for traced, p, _ in passes
        ],
    }


def _benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _per_layer_names() -> list[str]:
    return [m["name"] for m in _benchmark_spec()["per_layer"]]


def _units() -> dict[str, str]:
    spec = _benchmark_spec()
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main() -> int:
    parser = argparse.ArgumentParser(description="fovlink benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "fovlink" / "__init__.py").is_file():
        print(f"fovlink sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import fovlink
    import gen
    import stub
    import workloads

    if Path(fovlink.__file__).resolve().parent != ROOT / "src" / "fovlink":
        print(f"imported fovlink from {fovlink.__file__}, not from this checkout", file=sys.stderr)
        return 2
    # the live workload must reach the stub directly, never through a proxy
    for name in list(os.environ):
        if name.lower() in ("http_proxy", "https_proxy", "all_proxy"):
            del os.environ[name]
    os.environ["no_proxy"] = os.environ["NO_PROXY"] = "127.0.0.1,localhost"

    WORK.mkdir(parents=True, exist_ok=True)
    data = _inputs(args.workload, args.seed)
    stub_proc, port = _start_stub(data) if args.workload == "live-loopback" else (None, None)
    ticks = _cpu_ticks()
    try:
        result = _run(args, data, port)
    finally:
        if stub_proc is not None:
            _stop(stub_proc)

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "system": platform.platform(),
            # passes slow down as this rises; on a shared 2-vCPU host it
            # went from 4% to 14% between runs a minute apart
            "steal_share": _steal_share(ticks, _cpu_ticks()),
        },
        "params": {
            "scenes": SIZES[args.workload],
            "positive_share": gen.POSITIVE_SHARE,
            "runs": gen.RUNS,
            "frame_bytes": gen.FRAME_BYTES,
            "scripted_fault_share": gen.FAULT_SHARE if args.workload != "live-loopback" else 0.0,
            "parallelism": workloads.PARALLELISM,
            "stub_delay_ms": stub.DELAY_S * 1000 if args.workload == "live-loopback" else None,
            "setup_repeats": SETUP_REPEATS,
        },
        "notes": NOTES,
        **{k: result[k] for k in ("problems", "samples", "setup_samples_s", "import_samples_s", "passes")},
    }
    (WORK / f"result-{args.workload}.json").write_text(
        json.dumps({**info, **{k: result[k] for k in ("correct", "attempted", "failed", "metrics")}}, indent=1),
        encoding="utf-8",
    )
    print(json.dumps(info))
    metrics = {name: {"value": value, "unit": _units()[name]} for name, value in result["metrics"].items()}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"], "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
