from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fovlink.cli import EXIT_DATA, EXIT_OK, main
from fovlink.dataset import load_manifest
from fovlink.experiments import (
    BinaryExperimentResult,
    ExperimentConfig,
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
    emit_report,
    normalize_targets,
    record_to_result,
    rerender,
    result_to_record,
)
from fovlink.stats import ConfusionMatrix, derive_detection_stats
from fovlink.v2v import LinkModel, Role, VehicleAgent, run_dialogue

from conftest import scene_line, script_key, write_fixture, write_manifest
from test_experiments import GT_TEMPLATE, binary_script, localization_script

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
