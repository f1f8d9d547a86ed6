from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path
from xml.etree import ElementTree

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fovlink
from fovlink.cli import EXIT_DATA, EXIT_OK, main
from fovlink.dataset import load_manifest
from fovlink.experiments import (
    BinaryExperimentResult,
    ExperimentConfig,
    LocalizationExperimentResult,
    LocalizationSample,
    PromptComparison,
    RunResult,
    analyze_run_consistency,
    run_binary_experiment,
    run_localization_experiment,
    run_prompt_comparison,
)
from fovlink.geometry import NormalizedBBox
from fovlink.parsing import DetectionKind, ParsedDetection
from fovlink.gateway import Gateway, MockBackend, QueryParams
from fovlink.report import (
    RESULT_RECORD_FIELDS,
    ReportBundle,
    ReportError,
    _decode_record,
    _read_lines,
    emit_report,
    normalize_targets,
    record_to_result,
    rerender,
    result_to_record,
)
from fovlink.shape import COMPACT_JSON
from fovlink.stats import ConfusionMatrix, derive_detection_stats
from fovlink.v2v import LinkModel, Role, VehicleAgent, run_dialogue

from conftest import scene_line, script_key, write_fixture, write_manifest
from test_experiments import GT_TEMPLATE, binary_script, comparison_script, localization_script

CONFIG = ExperimentConfig(runs_per_prompt=2, params=QueryParams(backoff_base=0.0))


def make_binary_bundle(manifest):
    scenes = load_manifest(manifest)
    gateway = Gateway(MockBackend(binary_script(scenes, runs=2)))
    outcome = run_binary_experiment(scenes, "BIN", gateway, CONFIG)
    return ReportBundle(
        binary=outcome,
        consistency=analyze_run_consistency(outcome.results),
        labels={r.scene_id: r.has_pedestrian for r in scenes},
        lowlight={r.scene_id: bool(r.tags & {"dusk", "sunset", "shade", "solar_glare"}) for r in scenes},
    )


def make_localization_bundle(manifest):
    scenes = load_manifest(manifest)
    gateway = Gateway(MockBackend(localization_script(scenes, GT_TEMPLATE, runs=2)))
    outcome = run_localization_experiment(scenes, "P1", gateway, CONFIG)
    return ReportBundle(
        localization=outcome,
        labels={r.scene_id: r.has_pedestrian for r in scenes},
        lowlight={r.scene_id: False for r in scenes},
    )


class TestTargets:
    def test_aliases_and_validation(self):
        assert normalize_targets(["csv", "structured-records", "svg"]) == {"csv", "records", "svg"}
        with pytest.raises(ReportError):
            normalize_targets(["pdf"])


class TestDetectionStatsCsv:
    def test_benchmark_matrix_renders_9524(self, tmp_path):
        matrix = ConfusionMatrix(120, 6, 5, 129)
        stats = derive_detection_stats(matrix)
        bundle = ReportBundle(
            binary=BinaryExperimentResult(
                results=(),
                matrix=matrix,
                stats=stats,
                per_run_matrices=(matrix,),
                per_run_stats=(stats,),
            )
        )
        files = emit_report(bundle, ["csv"], tmp_path)
        content = (tmp_path / "detection_stats.csv").read_text()
        assert files == [tmp_path / "detection_stats.csv"]
        lines = content.splitlines()
        assert lines[0].startswith("detection_stats_v1,tp,fn,fp,tn,recall_pct")
        assert lines[1] == "run_0,120,6,5,129,95.24,96.27,96.00,95.56,3.73,4.00,4.76,95.77,95.62,91.53"


class TestRecordRoundTrip:
    def test_record_schema_golden(self):
        # field set and order are the documented result-file schema;
        # changing either is a schema version bump
        result = RunResult(
            scene_id="pos_a",
            prompt_id="P1",
            run_idx=0,
            detection=ParsedDetection(
                kind=DetectionKind.LOCATED,
                box=NormalizedBBox(0.4, 0.4, 0.6, 0.8),
                raw_excerpt="(0.4,0.4), (0.6,0.8)",
            ),
            latency=0.0,
            raw_text="(0.4,0.4), (0.6,0.8)",
        )
        record = result_to_record(result, None, True, False)
        assert tuple(record) == RESULT_RECORD_FIELDS
        line = json.dumps(record, separators=(",", ":"), ensure_ascii=False)
        assert line == (
            '{"scene_id":"pos_a","prompt_id":"P1","run_idx":0,"outcome":"located",'
            '"verdict":null,"label":true,"scene_lowlight":false,'
            '"box":[0.4,0.4,0.6,0.8],"box_clamped":false,"box_degenerate":false,'
            '"failure_kind":null,"coerced":false,"fault":null,"latency":0.0,'
            '"raw_text":"(0.4,0.4), (0.6,0.8)","overlap":null,"recall":null,"iou":null}'
        )

    def test_rendered_summary_matches_in_memory_values(self, small_manifest, tmp_path):
        bundle = make_localization_bundle(small_manifest)
        emit_report(bundle, ["csv"], tmp_path)
        row = (tmp_path / "localization_summary.csv").read_text().splitlines()[1].split(",")
        summary = bundle.localization.summary
        assert row[1] == str(summary.n_tests)
        assert row[2] == str(summary.n_overlapping)
        assert row[3] == f"{summary.union_rate * 100:.2f}"
        assert row[6] == f"{summary.recall_mean_all * 100:.2f}"

    def test_records_invert(self, small_manifest):
        bundle = make_localization_bundle(small_manifest)
        loc = bundle.localization
        samples = {(s.scene_id, s.run_idx): s for s in loc.samples}
        for result in loc.results:
            record = result_to_record(result, samples.get((result.scene_id, result.run_idx)), True, False)
            rebuilt, sample = record_to_result(record)
            assert rebuilt == result
            assert sample == samples.get((result.scene_id, result.run_idx))

    def test_missing_fields_rejected(self):
        with pytest.raises(ReportError):
            record_to_result({"scene_id": "s"})


class TestEmission:
    def test_emission_is_reproducible(self, small_manifest, tmp_path):
        bundle = make_binary_bundle(small_manifest)
        first = emit_report(bundle, ["csv", "records", "svg"], tmp_path / "a")
        second = emit_report(bundle, ["csv", "records", "svg"], tmp_path / "b")
        assert [p.name for p in first] == [p.name for p in second]
        for left, right in zip(first, second):
            assert left.read_bytes() == right.read_bytes()

    def test_empty_consistency_emits_header_only(self, tmp_path):
        files = emit_report(ReportBundle(consistency=[]), ["csv", "svg"], tmp_path)
        assert [p.name for p in files] == ["consistency.csv"]
        assert (
            (tmp_path / "consistency.csv").read_text()
            == "consistency_v1,prompt_id,n_runs,kinds,min_pairwise_iou,flagged\n"
        )
        assert not list(tmp_path.glob("*.svg"))

    def test_localization_emits_summary_failures_and_charts(self, small_manifest, tmp_path):
        bundle = make_localization_bundle(small_manifest)
        files = emit_report(bundle, ["csv", "records", "svg"], tmp_path)
        names = {p.name for p in files}
        assert names == {
            "localization_summary.csv",
            "failures.csv",
            "localization_results.jsonl",
            "recall_distribution.svg",
            "iou_shares.svg",
        }
        # hand computation: 6 samples, pos_c's gt box is disjoint from the
        # scripted reply, so 4 overlap; std_all of [1,1,1,1,0,0] = sqrt(2)/3
        summary = (tmp_path / "localization_summary.csv").read_text().splitlines()
        assert summary[1] == "P1,6,4,66.67,100.00,0.00,66.67,47.14,100.00"

    def test_empty_bundle_warns_and_writes_nothing(self, tmp_path, caplog):
        with caplog.at_level("WARNING"):
            files = emit_report(ReportBundle(), ["csv", "records", "svg"], tmp_path)
        assert files == []
        assert "empty bundle" in caplog.text


class TestRerender:
    def test_binary_rerender_is_byte_identical(self, small_manifest, tmp_path):
        bundle = make_binary_bundle(small_manifest)
        out = tmp_path / "out"
        emit_report(bundle, ["csv", "records", "svg"], out)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        rerender(out, ["csv", "records", "svg"])
        after = {p.name: p.read_bytes() for p in out.iterdir()}
        assert before == after

    def test_comparison_rerender_is_byte_identical(self, small_manifest, tmp_path):
        scenes = load_manifest(small_manifest)
        script = {}
        for prompt_id in ("P1", "P2", "P3"):
            script.update(localization_script(scenes, GT_TEMPLATE, prompt_id, runs=2))
        comparison = run_prompt_comparison(
            scenes, ("P1", "P2", "P3"), Gateway(MockBackend(script)), CONFIG
        )
        all_results = [r for pid in comparison.prompt_ids for r in comparison.runs[pid].results]
        bundle = ReportBundle(
            comparison=comparison,
            consistency=analyze_run_consistency(all_results),
            labels={r.scene_id: r.has_pedestrian for r in scenes},
            lowlight={r.scene_id: False for r in scenes},
        )
        out = tmp_path / "out"
        emit_report(bundle, ["csv", "records", "svg"], out)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        rerender(out, ["csv", "records", "svg"])
        after = {p.name: p.read_bytes() for p in out.iterdir()}
        assert before == after

    def test_v2v_rerender_is_byte_identical(self, small_manifest, tmp_path):
        scenes = load_manifest(small_manifest)
        ego = VehicleAgent("ego", Role.EGO)
        remotes = [VehicleAgent("vehicle_a", Role.REMOTE, current_frame="pos_a")]
        script = {script_key("pos_a", "P1", 0): {"text": GT_TEMPLATE}}
        transcript = run_dialogue(
            ego, remotes, scenes, "P1", Gateway(MockBackend(script)),
            LinkModel(rate=1_000_000, overhead=0.1), QueryParams(backoff_base=0.0),
        )
        out = tmp_path / "out"
        emit_report(ReportBundle(transcript=transcript), ["csv", "records"], out)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        rerender(out, ["csv", "records"])
        after = {p.name: p.read_bytes() for p in out.iterdir()}
        assert before == after

    @pytest.mark.parametrize(
        "link_update",
        [None, {"stream_bytes": -10}, {"rate_bps": True}],
        ids=["response-before-query", "negative-stream-bytes", "bool-rate"],
    )
    def test_damaged_v2v_directory_is_a_report_error(self, small_manifest, tmp_path, link_update):
        scenes = load_manifest(small_manifest)
        remotes = [VehicleAgent("vehicle_a", Role.REMOTE, current_frame="pos_a")]
        script = {script_key("pos_a", "P1", 0): {"text": GT_TEMPLATE}}
        transcript = run_dialogue(
            VehicleAgent("ego", Role.EGO), remotes, scenes, "P1", Gateway(MockBackend(script)),
            LinkModel(rate=1_000_000, overhead=0.1), QueryParams(backoff_base=0.0),
        )
        out = tmp_path / "out"
        emit_report(ReportBundle(transcript=transcript), ["csv", "records"], out)
        if link_update is None:
            lines = (out / "v2v_transcript.jsonl").read_text(encoding="utf-8").splitlines()
            text = "".join(line + "\n" for line in reversed(lines))
            (out / "v2v_transcript.jsonl").write_text(text, encoding="utf-8")
        else:
            link = {**json.loads((out / "v2v_link.json").read_text(encoding="utf-8")), **link_update}
            (out / "v2v_link.json").write_text(json.dumps(link), encoding="utf-8")
        with pytest.raises(ReportError):
            rerender(out, ["csv", "records"])
        assert main(["report", "--in", str(out)]) == EXIT_DATA

    def test_rerender_requires_known_files(self, tmp_path):
        (tmp_path / "notes.txt").write_text("hello")
        with pytest.raises(ReportError):
            rerender(tmp_path, ["csv"])

    def test_rerender_missing_dir(self, tmp_path):
        with pytest.raises(ReportError):
            rerender(tmp_path / "ghost", ["csv"])


# characters that str.splitlines() treats as line breaks but that JSON
# strings written with ensure_ascii=False carry raw
_UNICODE_BREAKS = ("\u2028", "\u2029", "\u0085")


@pytest.mark.parametrize("char", _UNICODE_BREAKS, ids=["u2028", "u2029", "u0085"])
@pytest.mark.parametrize(
    "command, prompt_id, records",
    [("exp1", "BIN", "binary_results.jsonl"), ("exp2", "P1", "localization_results.jsonl")],
)
def test_reply_with_a_unicode_line_break_rerenders_byte_identically(
    small_manifest, tmp_path, command, prompt_id, records, char
):
    scenes = load_manifest(small_manifest)
    if command == "exp1":
        script = binary_script(scenes, prompt_id, runs=2)
    else:
        script = localization_script(scenes, GT_TEMPLATE, prompt_id, runs=2)
    for entry in script.values():
        entry["text"] += f"{char}indeed"
    fixture = write_fixture(tmp_path, script)
    out = tmp_path / "out"
    argv = [command, "--manifest", small_manifest, "--prompt", prompt_id, "--fixture", fixture]
    assert main([str(a) for a in argv] + ["--runs", "2", "--out", str(out)]) == EXIT_OK
    assert char in (out / records).read_text(encoding="utf-8")
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main(["report", "--in", str(out), "--targets", "csv,records,svg"]) == EXIT_OK
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_v2v_description_with_a_unicode_line_break_rerenders_byte_identically(small_manifest, tmp_path):
    scenes = load_manifest(small_manifest)
    remotes = [VehicleAgent("vehicle_a", Role.REMOTE, current_frame="pos_a")]
    script = {script_key("pos_a", "P1", 0): {"text": "A person stands\u2028near the parked car."}}
    transcript = run_dialogue(
        VehicleAgent("ego", Role.EGO), remotes, scenes, "P1", Gateway(MockBackend(script)),
        LinkModel(rate=1_000_000, overhead=0.1), QueryParams(backoff_base=0.0),
    )
    assert "\u2028" in transcript.messages[1].payload.description
    out = tmp_path / "out"
    emit_report(ReportBundle(transcript=transcript), ["csv", "records"], out)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    rerender(out, ["csv", "records"])
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


# one positive per reply kind, so the records hold every outcome
_MIXED_REPLIES = (
    GT_TEMPLATE,
    "I cannot identify any pedestrian in this image.",
    "(0.41,0.42), (0.6",
    "A person stands near the parked car.",
    None,  # scripted gateway fault
)
RECORD_FILES = ("binary_results.jsonl", "localization_results.jsonl", "comparison_results.jsonl")


@pytest.fixture(scope="module")
def record_dirs(tmp_path_factory):
    """exp1, exp2 and exp3 output directories whose records cover every outcome."""
    root = tmp_path_factory.mktemp("records")
    positives = [f"pos_{i}" for i in range(len(_MIXED_REPLIES))]
    lines = [
        scene_line(s, positive=True, tags=["dusk"] if i % 2 else []) for i, s in enumerate(positives)
    ]
    lines += [scene_line("neg_a", positive=False), scene_line("neg_b", positive=False)]
    manifest = write_manifest(root, lines)
    script = {}
    for run_idx in range(2):
        for prompt_id in ("P1", "P2"):
            for scene_id, reply in zip(positives, _MIXED_REPLIES):
                entry = {"fault": "transport"} if reply is None else {"text": reply}
                script[script_key(scene_id, prompt_id, run_idx)] = entry
        answers = ["yes", "maybe", None, "yes", "no", "no", "yes"]  # None: scripted fault
        for scene_id, answer in zip([*positives, "neg_a", "neg_b"], answers):
            entry = {"fault": "timeout"} if answer is None else {"text": answer}
            script[script_key(scene_id, "BIN", run_idx)] = entry
    fixture = write_fixture(root, script)
    common = ["--manifest", manifest, "--fixture", fixture, "--runs", "2", "--retries", "0"]
    dirs = {}
    for name, argv in (
        ("binary_results.jsonl", ["exp1"]),
        ("localization_results.jsonl", ["exp2"]),
        ("comparison_results.jsonl", ["exp3", "--prompts", "P1,P2"]),
    ):
        dirs[name] = root / argv[0]
        assert main([*map(str, argv + common), "--out", str(dirs[name])]) == EXIT_OK
    return dirs


class TestMalformedRecords:
    def test_empty_binary_records_file_is_a_report_error(self, record_dirs, tmp_path):
        out = tmp_path / "out"
        shutil.copytree(record_dirs["binary_results.jsonl"], out)
        (out / "binary_results.jsonl").write_text("", encoding="utf-8")
        with pytest.raises(ReportError, match="no binary result records"):
            rerender(out, ["csv"])
        assert main(["report", "--in", str(out)]) == EXIT_DATA

    @pytest.mark.parametrize(
        "name,outcome,field,value,reason",
        [
            ("localization_results.jsonl", "located", "box", [0.1, 0.2], "four numbers"),
            ("localization_results.jsonl", "failure", "failure_kind", "Bogus", "unknown failure_kind"),
            ("binary_results.jsonl", "verdict", "raw_text", 5, "'raw_text' has type int"),
            ("localization_results.jsonl", "located", "box", None, "located record has no box"),
            ("binary_results.jsonl", "fault", "fault", None, "fault record has no fault"),
        ],
    )
    def test_bad_field_names_file_and_line(self, record_dirs, tmp_path, name, outcome, field, value, reason):
        out = tmp_path / "out"
        shutil.copytree(record_dirs[name], out)
        records = [json.loads(line) for line in (out / name).read_text(encoding="utf-8").splitlines()]
        index = next(i for i, r in enumerate(records) if r["outcome"] == outcome)
        records[index][field] = value
        (out / name).write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        with pytest.raises(ReportError, match=f"{name} line {index + 1}: .*{reason}"):
            rerender(out, ["csv"])

    @pytest.mark.parametrize(
        "fields",
        [
            {"outcome": "located", "box": [0.1, 0.2], "raw_text": ""},
            {"outcome": "failure", "failure_kind": "Bogus", "raw_text": ""},
            {"outcome": "verdict", "verdict": True, "raw_text": 5},
        ],
    )
    def test_record_to_result_raises_report_error(self, fields):
        with pytest.raises(ReportError):
            record_to_result({**dict.fromkeys(RESULT_RECORD_FIELDS), **fields})


    @pytest.mark.parametrize(
        "name,outcome,field,value",
        [
            ("binary_results.jsonl", "verdict", "box", [0.1, 0.1, 0.2, 0.2]),
            ("localization_results.jsonl", "located", "verdict", True),
            ("comparison_results.jsonl", "failure", "box", [0.1, 0.1, 0.2, 0.2]),
        ],
    )
    def test_fields_that_disagree_with_the_outcome_exit_2(
        self, record_dirs, tmp_path, capsys, name, outcome, field, value
    ):
        out = tmp_path / "out"
        shutil.copytree(record_dirs[name], out)
        records = [json.loads(line) for line in (out / name).read_text(encoding="utf-8").splitlines()]
        next(r for r in records if r["outcome"] == outcome)[field] = value
        (out / name).write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        assert main(["report", "--in", str(out)]) == EXIT_DATA
        assert "malformed result record: fields do not match kind" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name,outcome,field,value",
        [
            ("binary_results.jsonl", "verdict", "box", [0.1, 0.1, 0.2, 0.2]),
            ("localization_results.jsonl", "located", "verdict", True),
            ("comparison_results.jsonl", "failure", "box", [0.1, 0.1, 0.2, 0.2]),
            ("binary_results.jsonl", "fault", "verdict", False),
            ("localization_results.jsonl", "located", "fault", "Timeout: scripted"),
        ],
    )
    def test_disagreeing_fields_name_file_line_and_outcome(
        self, record_dirs, tmp_path, capsys, name, outcome, field, value
    ):
        out = tmp_path / "out"
        shutil.copytree(record_dirs[name], out)
        records = [json.loads(line) for line in (out / name).read_text(encoding="utf-8").splitlines()]
        index = next(i for i, r in enumerate(records) if r["outcome"] == outcome)
        records[index][field] = value
        (out / name).write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        assert main(["report", "--in", str(out)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"{name} line {index + 1}: " in err
        assert f"kind {outcome}: it has a {field}" in err
        assert "DetectionKind." not in err


@pytest.fixture
def v2v_dir(small_manifest, tmp_path):
    """Output directory of a one-remote dialogue: a query line, then a response line."""
    scenes = load_manifest(small_manifest)
    remotes = [VehicleAgent("vehicle_a", Role.REMOTE, current_frame="pos_a")]
    script = {script_key("pos_a", "P1", 0): {"text": GT_TEMPLATE}}
    transcript = run_dialogue(
        VehicleAgent("ego", Role.EGO), remotes, scenes, "P1", Gateway(MockBackend(script)),
        LinkModel(rate=1_000_000, overhead=0.1), QueryParams(backoff_base=0.0),
    )
    out = tmp_path / "v2v"
    emit_report(ReportBundle(transcript=transcript), ["csv", "records"], out)
    return out


class TestDamagedV2VDirectory:
    def test_bad_transcript_line_names_file_and_line(self, v2v_dir, capsys):
        path = v2v_dir / "v2v_transcript.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines()
        response = json.loads(lines[1])
        response["payload"]["presence"] = "yes"
        lines[1] = json.dumps(response)
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        assert main(["report", "--in", str(v2v_dir)]) == EXIT_DATA
        expected = "v2v_transcript.jsonl line 2: field 'payload.presence' has type str"
        assert expected in capsys.readouterr().err

    @pytest.mark.parametrize("rate", [float("nan"), float("inf")], ids=["NaN", "Infinity"])
    def test_non_finite_link_rate_exits_2(self, v2v_dir, capsys, rate):
        path = v2v_dir / "v2v_link.json"
        link = {**json.loads(path.read_text(encoding="utf-8")), "rate_bps": rate}
        path.write_text(json.dumps(link), encoding="utf-8")  # writes the NaN/Infinity literal
        assert main(["report", "--in", str(v2v_dir)]) == EXIT_DATA
        assert "link rate must be finite and positive" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [None, "{not json"], ids=["missing", "not-json"])
    def test_unreadable_link_exits_2(self, v2v_dir, capsys, text):
        path = v2v_dir / "v2v_link.json"
        if text is None:
            path.unlink()
        else:
            path.write_text(text, encoding="utf-8")
        assert main(["report", "--in", str(v2v_dir)]) == EXIT_DATA
        assert "cannot read link metadata v2v_link.json" in capsys.readouterr().err


# JSON types each record field may hold (docs/schemas.md); a swap picks a
# value of any other type
_FIELD_TYPES = {
    "scene_id": {"str"},
    "prompt_id": {"str"},
    "run_idx": {"int"},
    "outcome": {"str"},
    "verdict": {"bool", "null"},
    "label": {"bool", "null"},
    "scene_lowlight": {"bool", "null"},
    "box": {"list", "null"},
    "box_clamped": {"bool", "null"},
    "box_degenerate": {"bool", "null"},
    "failure_kind": {"str", "null"},
    "coerced": {"bool"},
    "fault": {"str", "null"},
    "latency": {"int", "float"},
    "raw_text": {"str"},
    "overlap": {"bool", "null"},
    "recall": {"int", "float", "null"},
    "iou": {"int", "float", "null"},
}
_SWAP_VALUES = {"str": "x", "int": 7, "float": 0.5, "bool": True, "null": None, "list": [0.5], "dict": {"k": 1}}


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_report_over_a_corrupted_record_exits_2(record_dirs, data):
    name = data.draw(st.sampled_from(RECORD_FILES))
    lines = (record_dirs[name] / name).read_text(encoding="utf-8").splitlines()
    index = data.draw(st.integers(0, len(lines) - 1))
    record = json.loads(lines[index])
    field = data.draw(st.sampled_from(RESULT_RECORD_FIELDS))
    mutation = data.draw(st.sampled_from(("swap", "delete", "truncate")))
    if mutation == "swap":
        kind = data.draw(st.sampled_from(sorted(set(_SWAP_VALUES) - _FIELD_TYPES[field])))
        record[field] = _SWAP_VALUES[kind]
        lines[index] = json.dumps(record)
    elif mutation == "delete":
        del record[field]
        lines[index] = json.dumps(record)
    elif isinstance(record["box"], list) and data.draw(st.booleans()):
        record["box"] = record["box"][: data.draw(st.integers(0, 3))]
        lines[index] = json.dumps(record)
    else:
        lines[index] = lines[index][: data.draw(st.integers(1, len(lines[index]) - 1))]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        shutil.copytree(record_dirs[name], out)
        (out / name).write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        assert main(["report", "--in", str(out)]) == EXIT_DATA


def _rewrite(out: Path, name: str, edit) -> None:
    """Apply ``edit`` to the records of ``out / name`` and write them back."""
    path = out / name
    records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    edit(records)
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")


class TestRunIndices:
    def test_negative_run_idx_exits_2(self, record_dirs, tmp_path, capsys):
        # every record at -1 used to crash rebuild_binary with an IndexError
        out = tmp_path / "out"
        shutil.copytree(record_dirs["binary_results.jsonl"], out)
        _rewrite(out, "binary_results.jsonl", lambda records: [r.update(run_idx=-1) for r in records])
        assert main(["report", "--in", str(out)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "binary_results.jsonl line 1: field 'run_idx' must be a non-negative integer" in err

    def test_huge_run_idx_exits_2_at_once(self, record_dirs, tmp_path):
        # one record at 10**9 used to start building 10**9 confusion matrices; a
        # subprocess with a time and memory limit keeps a regression from hanging
        out = tmp_path / "out"
        shutil.copytree(record_dirs["binary_results.jsonl"], out)
        _rewrite(out, "binary_results.jsonl", lambda records: records[0].update(run_idx=10**9))
        src = str(Path(fovlink.__file__).resolve().parents[1])
        limit = 1 << 30
        done = subprocess.run(
            [sys.executable, "-m", "fovlink", "report", "--in", str(out)],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )
        assert done.returncode == EXIT_DATA, done.stderr
        assert "binary_results.jsonl: prompt BIN has run_idx 1000000000 but no run 2" in done.stderr

    @pytest.mark.parametrize(
        "name", ["binary_results.jsonl", "localization_results.jsonl", "comparison_results.jsonl"]
    )
    def test_two_records_of_one_key_exit_2_and_write_nothing(self, record_dirs, tmp_path, capsys, name):
        # an exp2 record moved from run 1 to run 0 used to exit 0 and give both
        # records of that key the second one's recall and iou
        out = tmp_path / "out"
        shutil.copytree(record_dirs[name], out)
        records = [json.loads(line) for line in (out / name).read_text(encoding="utf-8").splitlines()]
        index = next(i for i, r in enumerate(records) if r["run_idx"] == 1)
        _rewrite(out, name, lambda records: records[index].update(run_idx=0))
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert main(["report", "--in", str(out)]) == EXIT_DATA
        scene_id, prompt_id = records[index]["scene_id"], records[index]["prompt_id"]
        err = capsys.readouterr().err
        assert err == f"fovlink: {name}: prompt {prompt_id} has two records of scene {scene_id!r} run 0\n"
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_runs_are_counted_per_prompt(self, record_dirs, tmp_path, capsys):
        # P2 at runs 1 and 2 leaves the file as a whole with runs 0, 1 and 2
        out = tmp_path / "out"
        shutil.copytree(record_dirs["comparison_results.jsonl"], out)

        def shift_p2(records):
            for r in records:
                if r["prompt_id"] == "P2":
                    r["run_idx"] += 1

        _rewrite(out, "comparison_results.jsonl", shift_p2)
        assert main(["report", "--in", str(out)]) == EXIT_DATA
        assert "comparison_results.jsonl: prompt P2 has run_idx 2 but no run 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, field",
    [("localization_results.jsonl", "recall"), ("comparison_results.jsonl", "iou")],
)
def test_sample_fields_set_apart_exit_2(record_dirs, tmp_path, capsys, name, field):
    # "overlap": true with "recall": null used to raise TypeError from math.fsum
    out = tmp_path / "out"
    shutil.copytree(record_dirs[name], out)
    records = [json.loads(line) for line in (out / name).read_text(encoding="utf-8").splitlines()]
    index = next(i for i, r in enumerate(records) if r["overlap"])
    _rewrite(out, name, lambda records: records[index].update({field: None}))
    assert main(["report", "--in", str(out)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"{name} line {index + 1}: malformed result record: overlap, recall and iou must be all set" in err


@pytest.mark.parametrize(
    "part, name",
    [("localization", "localization_results.jsonl"), ("comparison", "comparison_results.jsonl")],
)
def test_empty_records_file_exits_2_and_writes_nothing(record_dirs, tmp_path, capsys, part, name):
    # an empty comparison file used to exit 0 with a header-only CSV beside the old charts
    out = tmp_path / "out"
    shutil.copytree(record_dirs[name], out)
    (out / name).write_text("", encoding="utf-8")
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main(["report", "--in", str(out)]) == EXIT_DATA
    assert f"no {part} result records in {name}" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


# fields that docs/schemas.md lets be null, and the numbers a record holds
_NULLABLE = frozenset(name for name, kinds in _FIELD_TYPES.items() if "null" in kinds)
_EDGE_NUMBERS = (0, -1, 1e308)


@contextlib.contextmanager
def _time_limit(seconds: int):
    def expire(signum, frame):
        raise TimeoutError(f"fovlink report ran longer than {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_report_over_a_record_with_another_documented_value_exits_0_or_2(record_dirs, data):
    name = data.draw(st.sampled_from(RECORD_FILES))
    lines = (record_dirs[name] / name).read_text(encoding="utf-8").splitlines()
    index = data.draw(st.integers(0, len(lines) - 1))
    record = json.loads(lines[index])
    # (field, values of its documented types) that differ from what it holds
    choices = [(field, st.just(None)) for field in sorted(_NULLABLE) if record[field] is not None]
    choices += [(field, st.just(not value)) for field, value in record.items() if type(value) is bool]
    choices.append(("run_idx", st.integers(-3, 10**9)))
    choices += [
        (field, st.sampled_from(_EDGE_NUMBERS))
        for field in ("latency", "recall", "iou")
        if "null" not in _FIELD_TYPES[field] or record[field] is not None
    ]
    field, values = data.draw(st.sampled_from(choices))
    record[field] = data.draw(values)
    lines[index] = json.dumps(record)
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err), _time_limit(20):
        out = Path(tmp) / "out"
        shutil.copytree(record_dirs[name], out)
        (out / name).write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        code = main(["report", "--in", str(out)])
    assert code in (EXIT_OK, EXIT_DATA), err.getvalue()
    assert "Traceback" not in err.getvalue()


def _records_of(out: Path, name: str) -> list[dict]:
    return [json.loads(line) for line in (out / name).read_text(encoding="utf-8").splitlines()]


@pytest.mark.parametrize(
    "name, field",
    [("binary_results.jsonl", "label"), ("localization_results.jsonl", "scene_lowlight")],
)
def test_records_of_one_scene_that_disagree_on_a_scene_fact_exit_2_and_write_nothing(
    record_dirs, tmp_path, capsys, name, field
):
    # used to exit 0 and rewrite every record of the scene to one value
    out = tmp_path / "out"
    shutil.copytree(record_dirs[name], out)
    records = _records_of(out, name)
    assert records[0]["scene_id"] == records[1]["scene_id"]
    _rewrite(out, name, lambda records: records[1].update({field: not records[1][field]}))
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main(["report", "--in", str(out)]) == EXIT_DATA
    scene_id = records[1]["scene_id"]
    assert capsys.readouterr().err == f"fovlink: {name}: the records of scene {scene_id!r} disagree on {field}\n"
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_a_binary_scene_without_a_label_names_the_file(record_dirs, tmp_path, capsys):
    # used to print only "prediction for unknown scene_id"
    out = tmp_path / "out"
    name = "binary_results.jsonl"
    shutil.copytree(record_dirs[name], out)
    scene_id = _records_of(out, name)[0]["scene_id"]
    _rewrite(out, name, lambda records: [r.update(label=None) for r in records if r["scene_id"] == scene_id])
    assert main(["report", "--in", str(out)]) == EXIT_DATA
    assert capsys.readouterr().err == f"fovlink: {name}: scene {scene_id!r} has no label\n"


@pytest.mark.parametrize(
    "name, outcome, field, value",
    [
        ("localization_results.jsonl", "located", "box_degenerate", True),
        ("comparison_results.jsonl", "failure", "box_clamped", True),
        ("localization_results.jsonl", "located", "box_clamped", None),
        ("binary_results.jsonl", "fault", "coerced", True),
    ],
    ids=["flipped-box-degenerate", "box-clamped-without-box", "box-without-box-clamped", "coerced-fault"],
)
def test_a_field_that_the_other_fields_determine_must_agree_with_them(
    record_dirs, tmp_path, capsys, name, outcome, field, value
):
    # each used to exit 0 and rewrite the value from the other fields
    out = tmp_path / "out"
    shutil.copytree(record_dirs[name], out)
    index = next(i for i, r in enumerate(_records_of(out, name)) if r["outcome"] == outcome)
    _rewrite(out, name, lambda records: records[index].update({field: value}))
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main(["report", "--in", str(out)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"{name} line {index + 1}: malformed result record: field {field!r} is {json.dumps(value)}" in err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_a_binary_record_with_a_sample_exits_2(record_dirs, tmp_path, capsys):
    # used to exit 0 and rewrite overlap, recall and iou as null
    out = tmp_path / "out"
    name = "binary_results.jsonl"
    shutil.copytree(record_dirs[name], out)
    scene_id = _records_of(out, name)[0]["scene_id"]
    _rewrite(out, name, lambda records: records[0].update(overlap=True, recall=0.5, iou=0.25))
    assert main(["report", "--in", str(out)]) == EXIT_DATA
    assert capsys.readouterr().err == f"fovlink: {name}: scene {scene_id!r} has overlap, recall and iou\n"


def test_a_box_coordinate_too_large_for_a_float_exits_2(record_dirs, tmp_path, capsys):
    # used to end in an OverflowError traceback
    out = tmp_path / "out"
    name = "localization_results.jsonl"
    shutil.copytree(record_dirs[name], out)
    index = next(i for i, r in enumerate(_records_of(out, name)) if r["outcome"] == "located")
    _rewrite(out, name, lambda records: records[index]["box"].__setitem__(2, 10**400))
    assert main(["report", "--in", str(out)]) == EXIT_DATA
    assert f"{name} line {index + 1}: malformed result record: " in capsys.readouterr().err


@pytest.mark.parametrize("extra", [{"note": "kept out"}, {"note": "kept out", "latency": float("nan")}])
def test_a_record_with_an_unknown_key_rerenders(record_dirs, tmp_path, extra):
    out = tmp_path / "out"
    name = "comparison_results.jsonl"
    shutil.copytree(record_dirs[name], out)
    _rewrite(out, name, lambda records: records[0].update(extra))
    before = {p.name: p.read_bytes() for p in out.iterdir() if p.name != name}
    assert main(["report", "--in", str(out)]) == EXIT_OK
    assert {p.name: p.read_bytes() for p in out.iterdir() if p.name != name} == before
    assert "note" not in (out / name).read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "fields",
    [
        {"outcome": "fault", "fault": None},
        {"outcome": "failure", "failure_kind": "PartialCoordinates", "overlap": False, "recall": 0.0},
    ],
    ids=["fault-without-fault", "sample-without-iou"],
)
def test_record_to_result_checks_the_record(fields):
    record = {**dict.fromkeys(RESULT_RECORD_FIELDS), "scene_id": "s", "prompt_id": "P1", "run_idx": 0}
    record.update(coerced=False, latency=0.0, raw_text="", **fields)
    with pytest.raises(ReportError):
        record_to_result(record)


_NO_SAMPLE = {"overlap": None, "recall": None, "iou": None}


@pytest.mark.parametrize(
    "name, outcome, sample, problem",
    [
        ("localization_results.jsonl", "located", _NO_SAMPLE, "without overlap, recall and iou"),
        ("comparison_results.jsonl", "failure", _NO_SAMPLE, "without overlap, recall and iou"),
        (
            "localization_results.jsonl", "fault", {"overlap": False, "recall": 0, "iou": 0},
            "with overlap, recall and iou",
        ),
        (
            "comparison_results.jsonl", "failure", {"overlap": True, "recall": 0.5, "iou": 0.25},
            "whose overlap, recall and iou are not false, 0 and 0",
        ),
    ],
    ids=["located-without-sample", "failure-without-sample", "fault-with-sample", "failure-with-a-score"],
)
def test_a_localization_record_carries_a_sample_exactly_when_it_is_scored(
    record_dirs, tmp_path, capsys, name, outcome, sample, problem
):
    # each used to exit 0 and rewrite the summary: a fault given false, 0 and 0
    # counted as one more test, a located record without a sample as one fewer
    out = tmp_path / "out"
    shutil.copytree(record_dirs[name], out)
    records = _records_of(out, name)
    index = next(i for i, r in enumerate(records) if r["outcome"] == outcome)
    _rewrite(out, name, lambda records: records[index].update(sample))
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main(["report", "--in", str(out)]) == EXIT_DATA
    record = records[index]
    where = f"scene {record['scene_id']!r} run {record['run_idx']}"
    expected = f"fovlink: {name}: prompt {record['prompt_id']} has a {outcome} record of {where} {problem}\n"
    assert capsys.readouterr().err == expected
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_a_binary_records_file_of_two_prompts_exits_2_and_writes_nothing(record_dirs, tmp_path, capsys):
    # the BIN and BIN_REFINED files of one run concatenated used to fail with only
    # "scene_id 'neg_a' predicted twice", naming neither the file nor the prompts
    out = tmp_path / "out"
    name = "binary_results.jsonl"
    shutil.copytree(record_dirs[name], out)
    _rewrite(out, name, lambda records: records.extend([{**r, "prompt_id": "BIN_REFINED"} for r in records]))
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main(["report", "--in", str(out)]) == EXIT_DATA
    assert capsys.readouterr().err == f"fovlink: {name}: records of more than one prompt: BIN, BIN_REFINED\n"
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


@pytest.mark.parametrize(
    "name, outcome, field",
    [
        ("binary_results.jsonl", "verdict", "raw_text"),
        ("localization_results.jsonl", "fault", "fault"),
        ("comparison_results.jsonl", "located", "scene_id"),
    ],
)
def test_a_record_string_with_a_lone_surrogate_exits_2_and_writes_nothing(
    record_dirs, tmp_path, capsys, name, outcome, field
):
    # json.dumps writes the surrogate as the escape "\ud800"; the report writer
    # used to crash on it with a UnicodeEncodeError
    out = tmp_path / "out"
    shutil.copytree(record_dirs[name], out)
    index = next(i for i, r in enumerate(_records_of(out, name)) if r["outcome"] == outcome)
    _rewrite(out, name, lambda records: records[index].update({field: records[index][field] + "\ud800"}))
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main(["report", "--in", str(out)]) == EXIT_DATA
    assert capsys.readouterr().err == f"fovlink: {name} line {index + 1}: field {field!r} holds a lone surrogate\n"
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_a_directory_of_several_parts_rerenders_each_part_as_its_run_wrote_it(record_dirs, tmp_path):
    # the exp1 and exp2 directories of one manifest copied into one: every file
    # but consistency.csv stays as its run wrote it, and consistency.csv holds
    # both runs' rows
    out = tmp_path / "out"
    exp1, exp2 = record_dirs["binary_results.jsonl"], record_dirs["localization_results.jsonl"]
    shutil.copytree(exp1, out)
    shutil.copytree(exp2, out, dirs_exist_ok=True)
    assert main(["report", "--in", str(out)]) == EXIT_OK
    for source in (exp1, exp2):
        for path in source.iterdir():
            if path.name != "consistency.csv":
                assert (out / path.name).read_bytes() == path.read_bytes(), path.name
    assert (out / "failures.csv").read_bytes() == (exp2 / "failures.csv").read_bytes()
    header, *rows = (exp1 / "consistency.csv").read_text(encoding="utf-8").splitlines()
    rows += (exp2 / "consistency.csv").read_text(encoding="utf-8").splitlines()[1:]
    rows.sort(key=lambda row: tuple(row.split(",")[:2]))
    assert (out / "consistency.csv").read_text(encoding="utf-8") == "".join(f"{r}\n" for r in [header, *rows])


def _comparison_dir(record_dirs, tmp_path, prompts: str) -> Path:
    """exp3 output of ``prompts`` over the manifest of ``record_dirs``; P3 replies as P2 does."""
    if prompts == "P1,P2":
        return record_dirs["comparison_results.jsonl"]
    root = record_dirs["comparison_results.jsonl"].parent
    script = json.loads((root / "fixture.json").read_text(encoding="utf-8"))
    script.update({key.replace("|P2|", "|P3|"): entry for key, entry in script.items() if "|P2|" in key})
    fixture = write_fixture(tmp_path, script)
    common = ["--manifest", root / "manifest.jsonl", "--fixture", fixture, "--runs", "2", "--retries", "0"]
    out = tmp_path / "exp3"
    assert main([*map(str, ["exp3", "--prompts", prompts, *common, "--out", out])]) == EXIT_OK
    return out


@pytest.mark.parametrize("prompts", ["P1,P2", "P2,P3"])
def test_exp2_and_exp3_in_one_directory_exit_2_and_write_nothing(record_dirs, tmp_path, capsys, prompts):
    # both runs write recall_distribution.svg and iou_shares.svg; the report used to
    # exit 0, keep only exp3's charts and, with P1 in both, give P1 n_runs 4 at --runs 2
    exp3 = _comparison_dir(record_dirs, tmp_path, prompts)
    out = tmp_path / "out"
    for source in (record_dirs["localization_results.jsonl"], exp3):
        shutil.copytree(source, out, dirs_exist_ok=True)
    capsys.readouterr()
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main(["report", "--in", str(out)]) == EXIT_DATA
    assert capsys.readouterr().err == "fovlink: two parts of the report would write recall_distribution.svg\n"
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_a_comparison_that_names_a_prompt_twice_writes_nothing(small_manifest, tmp_path):
    # its emit used to write two identical P1 summary rows and every P1 record twice,
    # which fovlink report then rejected as two records of one key
    scenes = load_manifest(small_manifest)
    gateway = Gateway(MockBackend(comparison_script(scenes, ("P1",), runs=2)))
    comparison = run_prompt_comparison(scenes, ("P1", "P1"), gateway, CONFIG)
    out = tmp_path / "out"
    with pytest.raises(ReportError, match="^the prompt comparison names prompt P1 twice$"):
        emit_report(ReportBundle(comparison=comparison), ("csv", "records", "svg"), out)
    assert not out.exists()


def test_a_localization_records_file_of_two_prompts_exits_2_and_writes_nothing(record_dirs, tmp_path, capsys):
    # the exp2 P1 and P2 files of one manifest concatenated used to exit 0 with one
    # P1 summary row of twice the tests, and gave P1's records P2's overlap and recall
    name = "localization_results.jsonl"
    root = record_dirs[name].parent
    p2 = tmp_path / "p2"
    common = ["--manifest", root / "manifest.jsonl", "--fixture", root / "fixture.json", "--runs", "2"]
    assert main([*map(str, ["exp2", "--prompt", "P2", *common, "--retries", "0", "--out", p2])]) == EXIT_OK
    out = tmp_path / "out"
    shutil.copytree(record_dirs[name], out)
    with (out / name).open("a", encoding="utf-8") as f:
        f.write((p2 / name).read_text(encoding="utf-8"))
    capsys.readouterr()
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main(["report", "--in", str(out)]) == EXIT_DATA
    assert capsys.readouterr().err == f"fovlink: {name}: records of more than one prompt: P1, P2\n"
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def _rewrite_transcript(out: Path, edit) -> None:
    """Write each transcript line of ``out`` as ``edit`` gives it from the line's message object."""
    path = out / "v2v_transcript.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("".join(edit(json.loads(line)) + "\n" for line in lines), encoding="utf-8")


def test_a_transcript_string_with_a_lone_surrogate_exits_2_and_writes_nothing(v2v_dir, capsys):
    # used to decode, then crash the transcript writer with a UnicodeEncodeError
    def edit(message):
        if message["msg_type"] == "response":
            message["payload"]["description"] = "a person\ud800"
        return json.dumps(message, separators=(",", ":"))  # the surrogate as the escape "\ud800"

    _rewrite_transcript(v2v_dir, edit)
    before = {p.name: p.read_bytes() for p in v2v_dir.iterdir()}
    assert main(["report", "--in", str(v2v_dir)]) == EXIT_DATA
    assert capsys.readouterr().err == "fovlink: v2v_transcript.jsonl line 2: a string holds a lone surrogate\n"
    assert {p.name: p.read_bytes() for p in v2v_dir.iterdir()} == before


def test_a_transcript_line_that_is_not_its_canonical_encoding_exits_2_and_writes_nothing(v2v_dir, capsys):
    # used to exit 0, rewrite the transcript canonically and take dialogue_bytes
    # from the old line lengths, so a second report changed v2v_comparison.csv
    _rewrite_transcript(v2v_dir, lambda message: json.dumps(message, ensure_ascii=False))
    before = {p.name: p.read_bytes() for p in v2v_dir.iterdir()}
    assert main(["report", "--in", str(v2v_dir)]) == EXIT_DATA
    expected = "fovlink: v2v_transcript.jsonl line 1: not the canonical encoding of its message\n"
    assert capsys.readouterr().err == expected
    assert {p.name: p.read_bytes() for p in v2v_dir.iterdir()} == before


def test_a_transcript_line_that_is_not_an_object_exits_2_and_writes_nothing(v2v_dir, capsys):
    _rewrite_transcript(v2v_dir, lambda message: "[]")
    before = {p.name: p.read_bytes() for p in v2v_dir.iterdir()}
    assert main(["report", "--in", str(v2v_dir)]) == EXIT_DATA
    assert capsys.readouterr().err == "fovlink: v2v_transcript.jsonl line 1: message must be an object\n"
    assert {p.name: p.read_bytes() for p in v2v_dir.iterdir()} == before


def test_a_transcript_with_crlf_endings_rerenders_as_the_one_with_lf_endings(v2v_dir):
    # a \r\n ending is read as \n, so the \r counts toward no message's size
    before = {p.name: p.read_bytes() for p in v2v_dir.iterdir()}
    path = v2v_dir / "v2v_transcript.jsonl"
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    assert main(["report", "--in", str(v2v_dir)]) == EXIT_OK
    assert {p.name: p.read_bytes() for p in v2v_dir.iterdir()} == before


def _chart_bundle() -> ReportBundle:
    """A three-prompt comparison: P1 with a spread of samples, P2 with one sample, P3 with none."""

    def run(scored: list[tuple[float, float]]) -> LocalizationExperimentResult:
        samples = tuple(
            LocalizationSample(scene_id=f"s{i}", run_idx=0, overlap=iou > 0, recall=recall, iou=iou)
            for i, (recall, iou) in enumerate(scored)
        )
        return LocalizationExperimentResult(results=(), samples=samples, summary=None)  # no chart draws it

    p1 = [(1.0, 1.0), (0.0, 0.0), (0.25, 0.05), (0.5, 0.1), (0.5, 0.35), (0.8, 0.55), (0.9, 0.95), (0.007, 0.999)]
    runs = {"P1": run(p1), "P2": run([(0.6, 0.45)]), "P3": run([])}
    return ReportBundle(comparison=PromptComparison(prompt_ids=("P1", "P2", "P3"), runs=runs))


@pytest.mark.parametrize("name", ["recall_distribution.svg", "iou_shares.svg"])
def test_chart_bytes_match_the_golden_file(tmp_path, name):
    # no other test pins chart bytes: the acceptance suite compares a run only with itself;
    # P1's box height (165.30) is taken from unrounded quartiles, rounded ones give 165.29
    emit_report(_chart_bundle(), ["svg"], tmp_path)
    golden = Path(__file__).parent / "data" / "charts" / name
    assert (tmp_path / name).read_bytes() == golden.read_bytes()


def _id_cells_csv_run(tmp_path: Path) -> Path:
    """exp2 at --runs 2 over scenes whose ids hold a comma, a quote and a line break."""
    scenes = ["a,b", 'say "hi"', "two\nlines", "plain"]
    records = [scene_line(s, positive=True, image_path=f"images/s{i}.jpg") for i, s in enumerate(scenes)]
    manifest = write_manifest(tmp_path, records)
    fixture = write_fixture(tmp_path, localization_script(load_manifest(manifest), GT_TEMPLATE, runs=2))
    out = tmp_path / "out"
    argv = ["exp2", "--manifest", manifest, "--fixture", fixture, "--runs", "2", "--out", out]
    assert main([*map(str, argv)]) == EXIT_OK
    return out


def test_csv_cells_that_hold_a_comma_quote_or_line_break_are_quoted(tmp_path):
    # a scene id "a,b" used to write a row of 7 cells under the 6-column consistency header
    out = _id_cells_csv_run(tmp_path)
    with open(out / "consistency.csv", newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    assert {len(row) for row in rows} == {6}
    assert sorted(row[0] for row in rows[1:]) == sorted(["a,b", 'say "hi"', "two\nlines", "plain"])
    text = (out / "consistency.csv").read_text(encoding="utf-8")
    assert '\n"a,b",P1,2,' in text and '\n"say ""hi""",P1,2,' in text and "\nplain,P1,2," in text
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main(["report", "--in", str(out)]) == EXIT_OK
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_summary_csv_quotes_a_prompt_label(tmp_path):
    summary = make_localization_bundle(write_manifest(tmp_path, [scene_line("pos_a", positive=True)]))
    results = tuple(replace(r, prompt_id="P,1") for r in summary.localization.results)
    single = replace(summary.localization, results=results)
    emit_report(ReportBundle(localization=single), ["csv"], tmp_path / "out")
    rows = (tmp_path / "out" / "localization_summary.csv").read_text(encoding="utf-8").splitlines()
    assert rows[1].startswith('"P,1",')


def test_chart_labels_are_xml_escaped(record_dirs, tmp_path):
    # a prompt id "P&1" used to give a recall_distribution.svg no XML parser reads
    out = tmp_path / "out"
    shutil.copytree(record_dirs["comparison_results.jsonl"], out)
    renamed = {"P1": "P&1", "P2": "P<2"}

    def rename(records):
        for r in records:
            r["prompt_id"] = renamed[r["prompt_id"]]

    _rewrite(out, "comparison_results.jsonl", rename)
    assert main(["report", "--in", str(out)]) == EXIT_OK
    svg_text = "{http://www.w3.org/2000/svg}text"
    labels = [t.text for t in ElementTree.parse(out / "recall_distribution.svg").iter(svg_text)]
    assert labels[-2:] == ["P&1", "P<2"]
    ElementTree.parse(out / "iou_shares.svg")


def test_a_failed_write_keeps_the_previous_file_and_leaves_no_temporary(small_manifest, tmp_path):
    # the file used to be truncated before its text was encoded, so it was left empty
    bundle = make_binary_bundle(small_manifest)
    out = tmp_path / "out"
    emit_report(bundle, ["csv", "records"], out)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    first, *rest = bundle.binary.results
    bad = replace(bundle, binary=replace(bundle.binary, results=(replace(first, raw_text="yes \ud800"), *rest)))
    with pytest.raises(UnicodeEncodeError):
        emit_report(bad, ["csv", "records"], out)
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_a_records_line_decodes_without_a_shared_id_table():
    detection = ParsedDetection(kind=DetectionKind.VERDICT, verdict=True, raw_excerpt="yes")
    result = RunResult("scene_00001", "BIN", 0, detection, 0.25, "yes")
    line = COMPACT_JSON.encode(result_to_record(result, None, True, False))
    assert _decode_record(line) == (result, None, True, False)


def _binary_records_bundle(n: int) -> ReportBundle:
    """A records-only binary bundle of ``n`` results, one per scene."""
    detection = ParsedDetection(kind=DetectionKind.VERDICT, verdict=True, raw_excerpt="yes")
    reply = "Yes, a pedestrian is partly hidden by the parked van. " * 3
    results = tuple(RunResult(f"scene_{i:05d}", "BIN", 0, detection, 0.0, reply) for i in range(n))
    binary = BinaryExperimentResult(results=results, matrix=None, stats=None, per_run_matrices=(), per_run_stats=())
    labels = {r.scene_id: True for r in results}
    return ReportBundle(binary=binary, labels=labels, lowlight={s: False for s in labels})


@pytest.mark.parametrize("n", [0, 1, 255, 256, 257, 513])
def test_records_on_either_side_of_a_write_batch_are_each_written_once(tmp_path, n):
    bundle = _binary_records_bundle(n)
    emit_report(bundle, ["records"], tmp_path)
    path = tmp_path / "binary_results.jsonl"
    expected = "".join(
        COMPACT_JSON.encode(result_to_record(r, None, True, False)) + "\n" for r in bundle.binary.results
    ).encode("utf-8")
    assert path.read_bytes() == expected
    # an empty records file is no run to re-render, and is left as it is
    assert main(["report", "--in", str(tmp_path), "--targets", "records"]) == (EXIT_OK if n else EXIT_DATA)
    assert path.read_bytes() == expected
    assert sorted(p.name for p in tmp_path.iterdir()) == ["binary_results.jsonl"]


def _peak_bytes(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_emitting_records_takes_memory_that_does_not_grow_with_their_number(tmp_path):
    # the whole records file used to be built as one string: 2.2 MB of peak at 2,000 results, 17.9 MB at 16,000
    small, large = _binary_records_bundle(2_000), _binary_records_bundle(16_000)
    small_peak = _peak_bytes(lambda: emit_report(small, ["records"], tmp_path / "small"))
    large_peak = _peak_bytes(lambda: emit_report(large, ["records"], tmp_path / "large"))
    assert (tmp_path / "large" / "binary_results.jsonl").stat().st_size > 4_000_000
    assert large_peak < 1.5 * small_peak


def test_reading_a_records_file_holds_one_line_at_a_time(tmp_path):
    # the whole text and the list of its lines used to be held at once
    path = tmp_path / "binary_results.jsonl"
    path.write_text("".join(f'{{"scene_id":"scene_{i:05d}","padding":"{"x" * 280}"}}\n' for i in range(16_000)))
    size = path.stat().st_size
    assert size > 4_000_000
    peak = _peak_bytes(lambda: _read_lines(path, lambda line: None))
    assert peak < size / 4


def test_a_records_file_that_is_not_utf8_names_the_bad_byte_by_its_position_in_the_file(tmp_path):
    # read a block at a time, the error would count from the start of the block holding the byte
    path = tmp_path / "binary_results.jsonl"
    head = "".join(f'{{"scene_id":"scene_{i:04d}"}}\n' for i in range(5_000)).encode()
    path.write_bytes(head + b'{"scene_id":"\xff"}\n')
    offset = len(head) + len(b'{"scene_id":"')
    assert offset > 10 * 8192
    with pytest.raises(ReportError, match=rf"^binary_results\.jsonl is not UTF-8: .* in position {offset}: "):
        _read_lines(path, lambda line: None)


def test_a_malformed_line_blocks_before_a_byte_that_is_not_utf8_is_reported_first(tmp_path):
    path = tmp_path / "binary_results.jsonl"
    head = "not json\n" + "".join(f'{{"scene_id":"scene_{i:04d}"}}\n' for i in range(5_000))
    path.write_bytes(head.encode() + b'{"scene_id":"\xff"}\n')
    with pytest.raises(ReportError, match=r"^binary_results\.jsonl line 1: invalid JSON"):
        _read_lines(path, _decode_record)


def test_a_rerender_keeps_one_str_per_distinct_scene_id_and_prompt_id(record_dirs, tmp_path, monkeypatch):
    # exp1 and exp2 records in one directory: the ids repeat across runs and across the two files
    out = tmp_path / "out"
    shutil.copytree(record_dirs["binary_results.jsonl"], out)
    shutil.copytree(record_dirs["localization_results.jsonl"], out, dirs_exist_ok=True)
    rows = []
    for name in ("rebuild_binary", "rebuild_localization"):
        rebuild = getattr(fovlink.report, name)
        monkeypatch.setattr(fovlink.report, name, lambda part, rebuild=rebuild: rebuild(rows.extend(part) or part))
    assert rerender(out, ["csv", "records"])
    expected = sum(len(_records_of(out, name)) for name in ("binary_results.jsonl", "localization_results.jsonl"))
    assert len(rows) == expected
    for ids in ([row[0].scene_id for row in rows], [row[0].prompt_id for row in rows]):
        assert len(set(ids)) < len(ids)
        assert len({id(value) for value in ids}) == len(set(ids))
