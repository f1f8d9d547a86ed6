"""The three workloads: set-up, one timed pass, and the correctness gate.

Every call into fovlink goes through a module attribute (``experiments.
run_binary_experiment``, not a name imported once), so the traced process
can swap in timing wrappers. Passes call the same public functions, with
the same arguments, that the ``fovlink`` subcommands use.

A pass returns what it measured plus a list of problems: every mismatch
between the program's outputs and the generator's expected counts. A pass
with problems counts all its operations as failed.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from fovlink import dataset, experiments, gateway, geometry, parsing, report, stats, v2v

MODULES = {
    "dataset": dataset,
    "experiments": experiments,
    "gateway": gateway,
    "geometry": geometry,
    "parsing": parsing,
    "report": report,
    "stats": stats,
    "v2v": v2v,
}

TARGETS = ("csv", "records", "svg")  # the CLI default
PARALLELISM = 2  # nproc on the reference machine; no workload uses more
COORD_PROMPTS = ("P1", "P2", "P3")
OUTPUT_DIRS = ("exp1", "exp2", "exp3", "v2v")


@dataclass
class Pass:
    wall_s: float
    operations: int  # queries answered (eval, live) or result records re-rendered
    records: int  # result records written or re-rendered
    problems: list[str] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)  # exact per-layer counts


def _expect(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


def _csv_rows(path: Path) -> dict[str, list[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return {cells[0]: cells[1:] for cells in (line.split(",") for line in lines[1:])}


def _line_count(path: Path) -> int:
    with open(path, "rb") as f:
        return sum(1 for _ in f)


def _config() -> experiments.ExperimentConfig:
    return experiments.ExperimentConfig(
        runs_per_prompt=3, parallelism=PARALLELISM, params=gateway.QueryParams()
    )


def _consistency(results):
    try:
        return experiments.analyze_run_consistency(results)
    except experiments.InsufficientRuns:
        return None


def _lowlight_share(results, scenes):
    try:
        return experiments.lowlight_failure_share(results, scenes)
    except experiments.EmptyFailureSet:
        return None


def _scene_maps(scenes) -> tuple[dict[str, bool], dict[str, bool]]:
    labels = {r.scene_id: r.has_pedestrian for r in scenes}
    lowlight = {r.scene_id: bool(r.tags & experiments.LOWLIGHT_TAGS) for r in scenes}
    return labels, lowlight


def _tally_localization(outcome) -> dict[str, int]:
    counts = Counter()
    for r in outcome.results:
        if r.fault is not None:
            counts["faults"] += 1
        elif r.detection.box is not None:
            counts["located"] += 1
            counts["clamped"] += r.detection.box.clamped
        else:
            counts[r.detection.failure_kind.value] += 1
    counts["n_overlapping"] = outcome.summary.n_overlapping
    counts["n_tests"] = outcome.summary.n_tests
    return counts


def _check_binary(problems, outcome, want: dict, out: Path) -> None:
    got = [[m.tp, m.fn_, m.fp, m.tn] for m in outcome.per_run_matrices]
    _expect(problems, "exp1 per-run confusion matrices", got, want["per_run"])
    detections = [r.detection for r in outcome.results if r.detection is not None]
    _expect(problems, "exp1 coerced verdicts", sum(d.coerced for d in detections), want["coerced"])
    _expect(problems, "exp1 faults", len(outcome.results) - len(detections), want["faults"])
    rows = _csv_rows(out / "detection_stats.csv")
    csv_matrices = [[int(c) for c in rows.get(f"run_{i}", ["-1"] * 4)[:4]] for i in range(len(want["per_run"]))]
    _expect(problems, "detection_stats.csv matrices", csv_matrices, want["per_run"])
    _expect(problems, "binary_results.jsonl records", _line_count(out / "binary_results.jsonl"), want["queries"])


def _check_localization(problems, prompt_id: str, outcome, want: dict) -> None:
    got = {k: _tally_localization(outcome).get(k, 0) for k in want}
    _expect(problems, f"{prompt_id} outcome counts", got, want)


def _check_summary_csv(problems, path: Path, want: dict[str, dict]) -> None:
    rows = _csv_rows(path)
    for prompt_id, counts in want.items():
        got = [int(c) for c in rows.get(prompt_id, ["-1", "-1"])[:2]]
        _expect(problems, f"{path.name} {prompt_id} n_tests,n_overlapping", got, [counts["n_tests"], counts["n_overlapping"]])


def _exp1_exp2(scenes, gw, config, out: Path):
    """exp1 BIN and exp2 P1 with their reports, as the subcommands run them."""
    labels, lowlight = _scene_maps(scenes)
    binary = experiments.run_binary_experiment(scenes, "BIN", gw, config)
    report.emit_report(
        report.ReportBundle(binary=binary, consistency=_consistency(binary.results), labels=labels, lowlight=lowlight),
        TARGETS,
        out / "exp1",
    )
    loc = experiments.run_localization_experiment(scenes, "P1", gw, config)
    report.emit_report(
        report.ReportBundle(
            localization=loc,
            consistency=_consistency(loc.results),
            labels=labels,
            lowlight=lowlight,
            lowlight_share=_lowlight_share(loc.results, scenes),
        ),
        TARGETS,
        out / "exp2",
    )
    return binary, loc


def _check_exp1_exp2(problems, binary, loc, want: dict, out: Path) -> None:
    p1 = want["localization"]["P1"]
    _check_binary(problems, binary, want["binary"]["BIN"], out / "exp1")
    _check_localization(problems, "exp2 P1", loc, p1)
    _check_summary_csv(problems, out / "exp2" / "localization_summary.csv", {"P1": p1})
    failures = _csv_rows(out / "exp2" / "failures.csv")
    for kind in ("NoPedestrianDetected", "PartialCoordinates", "AmbiguousDescription"):
        _expect(problems, f"failures.csv {kind}", int(failures.get(kind, ["-1"])[0]), p1[kind])
    _expect(
        problems,
        "localization_results.jsonl records",
        _line_count(out / "exp2" / "localization_results.jsonl"),
        p1["faults"] + p1["n_tests"],
    )


class EvalMock:
    """Mock-backend evaluation campaign: exp1, exp2, exp3, then dialogues."""

    def __init__(self, data: Path, out: Path) -> None:
        self.data = data
        self.out = out
        self.expected = json.loads((data / "expected.json").read_text(encoding="utf-8"))

    def setup(self):
        """The program's set-up: manifest, fixture, backend."""
        self.scenes = dataset.load_manifest(self.data / "manifest.jsonl")
        return gateway.MockBackend.from_file(self.data / "fixture.json")

    def run_pass(self, gw) -> Pass:
        scenes, config, out, want = self.scenes, _config(), self.out, self.expected
        labels, lowlight = _scene_maps(scenes)
        pairs = want["dialogues"]["pairs"]
        link = v2v.LinkModel(rate=want["dialogues"]["link"]["rate_bps"], overhead=want["dialogues"]["link"]["overhead"])
        ego = v2v.VehicleAgent("ego", v2v.Role.EGO)

        start = time.perf_counter()
        binary, loc = _exp1_exp2(scenes, gw, config, out)
        comparison = experiments.run_prompt_comparison(scenes, COORD_PROMPTS, gw, config)
        all_results = [r for pid in comparison.prompt_ids for r in comparison.runs[pid].results]
        report.emit_report(
            report.ReportBundle(
                comparison=comparison, consistency=_consistency(all_results), labels=labels, lowlight=lowlight
            ),
            TARGETS,
            out / "exp3",
        )
        transcripts, encoded, decoded = [], [], []
        for pair in pairs:
            remotes = [
                v2v.VehicleAgent(f"remote_{chr(ord('a') + i)}", v2v.Role.REMOTE, current_frame=scene_id)
                for i, scene_id in enumerate(pair)
            ]
            transcript = v2v.run_dialogue(ego, remotes, scenes, "P1", gw, link, config.params)
            data = [v2v.encode_message(m) for m in transcript.messages]
            transcripts.append(transcript)
            encoded.append(data)
            decoded.append([v2v.decode_message(d) for d in data])
        report.emit_report(report.ReportBundle(transcript=transcripts[0]), TARGETS, out / "v2v")
        wall = time.perf_counter() - start

        problems: list[str] = []
        _check_exp1_exp2(problems, binary, loc, want, out)
        for pid in COORD_PROMPTS:
            _check_localization(problems, f"exp3 {pid}", comparison.runs[pid], want["localization"][pid])
        _check_summary_csv(
            problems, out / "exp3" / "prompt_comparison.csv", {p: want["localization"][p] for p in COORD_PROMPTS}
        )
        _expect(
            problems,
            "comparison_results.jsonl records",
            _line_count(out / "exp3" / "comparison_results.jsonl"),
            sum(want["localization"][p][k] for p in COORD_PROMPTS for k in ("faults", "n_tests")),
        )
        sizes = [t.dialogue_bytes for t in transcripts]
        _expect(problems, "dialogue bytes", sizes, want["dialogues"]["bytes"])
        _expect(problems, "dialogue message counts", {len(t.messages) for t in transcripts}, {4})
        for transcript, data, back in zip(transcripts, encoded, decoded):
            if back != list(transcript.messages) or [len(d) for d in data] != list(transcript.sizes):
                problems.append("a V2V message did not survive encode/decode")
                break
        v2v_rows = _csv_rows(out / "v2v" / "v2v_comparison.csv")
        _expect(problems, "v2v_comparison.csv dialogue_bytes", v2v_rows.get("dialogue_bytes"), [str(sizes[0])])

        exp_results = [*binary.results, *loc.results, *all_results]
        faults = sum(r.fault is not None for r in exp_results)
        # P1 runs twice: in exp2 and again in exp3
        scripted = sum(want["localization"][p]["faults"] for p in ("P1", *COORD_PROMPTS))
        scripted += want["binary"]["BIN"]["faults"]
        _expect(problems, "recorded faults", faults, scripted)
        return Pass(
            wall_s=wall,
            operations=len(exp_results) + sum(len(pair) for pair in pairs),
            records=len(exp_results),
            problems=problems,
            counts={
                "experiments.fault_share": faults / len(exp_results),
                "v2v.messages": float(sum(len(t.messages) for t in transcripts)),
                "v2v.bytes_per_dialogue": sum(sizes) / len(sizes),
            },
        )


class Stub:
    """Client side of the loopback stub's control endpoints."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.base_url = f"http://127.0.0.1:{port}"

    def _call(self, method: str, path: str) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request(method, path, body=b"" if method == "POST" else None)
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def reset(self) -> None:
        self._call("POST", "/reset")

    def stats(self) -> dict:
        return self._call("GET", "/stats")


class LiveLoopback:
    """exp1 BIN and exp2 P1 over HTTP to the out-of-process loopback stub."""

    def __init__(self, data: Path, out: Path, stub: Stub) -> None:
        self.data = data
        self.out = out
        self.stub = stub
        self.expected = json.loads((data / "expected.json").read_text(encoding="utf-8"))

    def setup(self):
        """The program's set-up: manifest and live backend."""
        self.scenes = dataset.load_manifest(self.data / "manifest.jsonl")
        return gateway.LiveBackend(base_url=self.stub.base_url, api_key="benchmark")

    def run_pass(self, gw) -> Pass:
        self.stub.reset()
        start = time.perf_counter()
        binary, loc = _exp1_exp2(self.scenes, gw, _config(), self.out)
        wall = time.perf_counter() - start
        served = self.stub.stats()

        problems: list[str] = []
        want = self.expected
        _check_exp1_exp2(problems, binary, loc, want, self.out)
        results = [*binary.results, *loc.results]
        _expect(problems, "injected transient faults", served["faults"], want["transient_faults"])
        _expect(problems, "requests served", served["requests"], len(results) + want["transient_faults"])
        return Pass(
            wall_s=wall,
            operations=len(results),
            records=len(results),
            problems=problems,
            counts={
                "experiments.fault_share": sum(r.fault is not None for r in results) / len(results),
                "gateway.connections_per_query": served["connections"] / len(results),
                "gateway.request_bytes_per_query": served["body_bytes"] / len(results),
            },
        )


def _digest_outputs(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class ReportRerender:
    """``fovlink report`` over the four output directories of the eval campaign."""

    def __init__(self, out: Path) -> None:
        self.out = out
        self.pristine = _digest_outputs(out)
        self.records = sum(_line_count(p) for p in sorted(out.glob("*/*_results.jsonl")))

    def setup(self):
        return None

    def run_pass(self, gw=None) -> Pass:
        written = []
        start = time.perf_counter()
        for name in OUTPUT_DIRS:
            written += report.rerender(self.out / name, TARGETS)
        wall = time.perf_counter() - start
        problems: list[str] = []
        _expect(problems, "re-rendered files", sorted(str(p.relative_to(self.out)) for p in written), sorted(self.pristine))
        changed = sorted(k for k, v in _digest_outputs(self.out).items() if self.pristine.get(k) != v)
        _expect(problems, "files not byte-identical after re-render", changed, [])
        return Pass(wall_s=wall, operations=self.records, records=self.records, problems=problems)
