from __future__ import annotations

import json
import sys
import threading
import time
from base64 import b64decode
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fovlink import experiments
from fovlink.dataset import Frame, load_manifest
from fovlink.experiments import (
    AllScenesFailed,
    PromptComparison,
    EmptyFailureSet,
    ExperimentConfig,
    ExperimentPrecondition,
    InsufficientRuns,
    RunResult,
    analyze_run_consistency,
    failure_lowlight_share,
    lowlight_by_scene,
    lowlight_failure_share,
    run_binary_experiment,
    run_localization_experiment,
    run_prompt_comparison,
)
from fovlink.gateway import Gateway, LiveBackend, MockBackend, QueryParams, _BackendFault, build_chat_request
from fovlink.parsing import FailureKind, detect_bbox, detect_binary
from fovlink.prompts import ExpectedFormat, get_prompt
from fovlink.report import ReportBundle, emit_report, result_to_record

from conftest import LoopbackServer, completion_reply, http_reply, scene_line, script_key, write_manifest

CONFIG_1RUN = ExperimentConfig(runs_per_prompt=1, params=QueryParams(backoff_base=0.0))

NO_PED_REPLY = "I cannot identify any pedestrian in this image."

# the gt box used by conftest.scene_line, in template form
GT_TEMPLATE = "(0.4,0.4), (0.6,0.8)"


@pytest.mark.parametrize(
    "kwargs, message",
    [({"runs_per_prompt": 0}, "runs_per_prompt must be >= 1"), ({"parallelism": 0}, "parallelism must be >= 1")],
)
def test_a_config_below_one_run_or_one_worker_is_rejected(kwargs, message):
    with pytest.raises(ValueError, match=message):
        ExperimentConfig(**kwargs)


def binary_script(scenes, prompt_id="BIN", runs=1, flip=(), fault=()):
    """Truthful yes/no answers, with chosen scenes flipped or faulted."""
    script = {}
    for record in scenes:
        for run_idx in range(runs):
            key = script_key(record.scene_id, prompt_id, run_idx)
            if record.scene_id in fault:
                script[key] = {"fault": "transport"}
            else:
                truthful = record.has_pedestrian
                answer = (not truthful) if record.scene_id in flip else truthful
                script[key] = {"text": "yes" if answer else "no"}
    return script


def localization_script(scenes, reply, prompt_id="P1", runs=1):
    return {
        script_key(r.scene_id, prompt_id, run_idx): {"text": reply}
        for r in scenes.positives
        for run_idx in range(runs)
    }


class TestBinaryExperiment:
    def test_truthful_fixture_is_perfect(self, small_manifest):
        scenes = load_manifest(small_manifest)
        gateway = Gateway(MockBackend(binary_script(scenes)))
        outcome = run_binary_experiment(scenes, "BIN", gateway, CONFIG_1RUN)
        m = outcome.matrix
        assert (m.tp, m.fn_, m.fp, m.tn) == (3, 0, 0, 2)
        assert outcome.stats.recall == 1.0

    def test_constant_yes_fixture(self, small_manifest):
        scenes = load_manifest(small_manifest)
        script = {
            script_key(r.scene_id, "BIN", 0): {"text": "yes"} for r in scenes
        }
        outcome = run_binary_experiment(scenes, "BIN", Gateway(MockBackend(script)), CONFIG_1RUN)
        assert outcome.stats.recall == 1.0
        assert outcome.stats.specificity == 0.0

    def test_flips_land_in_the_right_cells(self, small_manifest):
        scenes = load_manifest(small_manifest)
        script = binary_script(scenes, flip={"pos_a", "neg_b"})
        outcome = run_binary_experiment(scenes, "BIN", Gateway(MockBackend(script)), CONFIG_1RUN)
        m = outcome.matrix
        assert (m.tp, m.fn_, m.fp, m.tn) == (2, 1, 1, 1)

    def test_unparseable_negative_counts_as_fp_and_flagged(self, small_manifest):
        scenes = load_manifest(small_manifest)
        script = binary_script(scenes)
        script[script_key("neg_a", "BIN", 0)] = {"text": "It looks like someone might be there."}
        outcome = run_binary_experiment(scenes, "BIN", Gateway(MockBackend(script)), CONFIG_1RUN)
        assert outcome.matrix.fp == 1
        flagged = [r for r in outcome.results if r.detection and r.detection.coerced]
        assert [r.scene_id for r in flagged] == ["neg_a"]
        assert flagged[0].detection.verdict is True

    def test_faulted_scene_recorded_and_excluded_from_matrix(self, small_manifest):
        scenes = load_manifest(small_manifest)
        script = binary_script(scenes, fault={"neg_b"})
        outcome = run_binary_experiment(scenes, "BIN", Gateway(MockBackend(script)), CONFIG_1RUN)
        m = outcome.matrix
        assert (m.tp, m.fn_, m.fp, m.tn) == (3, 0, 0, 1)
        faulted = [r for r in outcome.results if r.fault is not None]
        assert [r.scene_id for r in faulted] == ["neg_b"]
        assert "TransportError" in faulted[0].fault

    def test_all_scenes_failing_aborts(self, small_manifest):
        scenes = load_manifest(small_manifest)
        script = binary_script(scenes, fault={r.scene_id for r in scenes})
        with pytest.raises(AllScenesFailed):
            run_binary_experiment(scenes, "BIN", Gateway(MockBackend(script)), CONFIG_1RUN)

    def test_wrong_prompt_format_rejected(self, small_manifest):
        scenes = load_manifest(small_manifest)
        with pytest.raises(ExperimentPrecondition):
            run_binary_experiment(scenes, "P1", Gateway(MockBackend({})), CONFIG_1RUN)

    def test_per_run_matrices_emitted(self, small_manifest):
        scenes = load_manifest(small_manifest)
        config = ExperimentConfig(runs_per_prompt=2, params=QueryParams(backoff_base=0.0))
        script = binary_script(scenes, runs=2)
        # run 1 flips one negative; headline (run 0) must stay clean
        script[script_key("neg_a", "BIN", 1)] = {"text": "yes"}
        outcome = run_binary_experiment(scenes, "BIN", Gateway(MockBackend(script)), config)
        assert outcome.matrix.fp == 0
        assert outcome.per_run_matrices[1].fp == 1
        assert len(outcome.per_run_stats) == 2

    def test_matrix_recall_cross_check(self, small_manifest):
        scenes = load_manifest(small_manifest)
        script = binary_script(scenes, flip={"pos_a"})
        outcome = run_binary_experiment(scenes, "BIN", Gateway(MockBackend(script)), CONFIG_1RUN)
        m = outcome.matrix
        assert outcome.stats.recall == m.tp / (m.tp + m.fn_)

    def test_every_scene_appears_once_per_run(self, small_manifest):
        scenes = load_manifest(small_manifest)
        config = ExperimentConfig(runs_per_prompt=3, params=QueryParams(backoff_base=0.0))
        script = binary_script(scenes, runs=3, fault={"pos_b"})
        outcome = run_binary_experiment(scenes, "BIN", Gateway(MockBackend(script)), config)
        keys = [(r.scene_id, r.run_idx) for r in outcome.results]
        assert len(keys) == len(set(keys)) == len(scenes) * 3
        assert keys == sorted(keys)


class TestLocalizationExperiment:
    def test_echo_fixture_is_perfect(self, small_manifest):
        scenes = load_manifest(small_manifest)
        script = {}
        for record in scenes.positives:
            box = record.gt_boxes[0]
            reply = (
                f"({box.x_min / record.width},{box.y_min / record.height}), "
                f"({box.x_max / record.width},{box.y_max / record.height})"
            )
            script[script_key(record.scene_id, "P1", 0)] = {"text": reply}
        outcome = run_localization_experiment(scenes, "P1", Gateway(MockBackend(script)), CONFIG_1RUN)
        assert outcome.summary.union_rate == 1.0
        assert outcome.summary.recall_mean_all == 1.0
        assert outcome.summary.iou_mean_overlapping == 1.0

    def test_full_frame_reply_penalized_by_iou(self, small_manifest):
        scenes = load_manifest(small_manifest)
        script = localization_script(scenes, "(0,0), (1,1)")
        outcome = run_localization_experiment(scenes, "P1", Gateway(MockBackend(script)), CONFIG_1RUN)
        assert outcome.summary.union_rate == 1.0
        assert outcome.summary.recall_mean_all == 1.0
        # iou collapses to the gt area: all three fixture boxes have area 0.08
        assert outcome.summary.iou_mean_overlapping == pytest.approx(0.08, abs=1e-12)

    def test_total_failure_fixture(self, small_manifest):
        scenes = load_manifest(small_manifest)
        script = localization_script(scenes, NO_PED_REPLY)
        outcome = run_localization_experiment(scenes, "P1", Gateway(MockBackend(script)), CONFIG_1RUN)
        assert outcome.summary.union_rate == 0.0
        assert all(
            s.failure_kind is FailureKind.NO_PEDESTRIAN_DETECTED for s in outcome.samples
        )
        assert outcome.summary.recall_mean_overlapping is None

    def test_requires_single_gt_box(self, tmp_path):
        records = [
            scene_line(
                "multi",
                positive=True,
                boxes=[[0.0, 0.0, 10.0, 10.0], [20.0, 20.0, 30.0, 30.0]],
            )
        ]
        scenes = load_manifest(write_manifest(tmp_path, records))
        with pytest.raises(ExperimentPrecondition):
            run_localization_experiment(scenes, "P1", Gateway(MockBackend({})), CONFIG_1RUN)

    def test_requires_coordinate_prompt(self, small_manifest):
        scenes = load_manifest(small_manifest)
        with pytest.raises(ExperimentPrecondition):
            run_localization_experiment(scenes, "BIN", Gateway(MockBackend({})), CONFIG_1RUN)

    def test_faults_recorded_but_not_scored(self, small_manifest):
        scenes = load_manifest(small_manifest)
        script = localization_script(scenes, GT_TEMPLATE)
        script[script_key("pos_c", "P1", 0)] = {"fault": "timeout"}
        outcome = run_localization_experiment(scenes, "P1", Gateway(MockBackend(script)), CONFIG_1RUN)
        assert {s.scene_id for s in outcome.samples} == {"pos_a", "pos_b"}
        assert sum(1 for r in outcome.results if r.fault) == 1


class TestPromptComparison:
    def test_identical_fixture_identical_summaries(self, small_manifest):
        scenes = load_manifest(small_manifest)
        script = {}
        for prompt_id in ("P1", "P2", "P3"):
            script.update(localization_script(scenes, GT_TEMPLATE, prompt_id))
        comparison = run_prompt_comparison(
            scenes, ("P1", "P2", "P3"), Gateway(MockBackend(script)), CONFIG_1RUN
        )
        summaries = [comparison.runs[p].summary for p in comparison.prompt_ids]
        assert summaries[0] == summaries[1] == summaries[2]

    def test_scripted_quality_ordering(self, small_manifest):
        scenes = load_manifest(small_manifest)
        script = {}
        # P1 echoes the gt area exactly, P2 half-covers it, P3 misses entirely
        replies = {
            "P1": "(0.4,0.4), (0.6,0.8)",
            "P2": "(0.4,0.4), (0.6,0.6)",
            "P3": "(0.85,0.85), (0.95,0.95)",
        }
        for prompt_id, reply in replies.items():
            script.update(localization_script(scenes, reply, prompt_id))
        comparison = run_prompt_comparison(
            scenes, ("P1", "P2", "P3"), Gateway(MockBackend(script)), CONFIG_1RUN
        )
        means = [comparison.runs[p].summary.recall_mean_all for p in ("P1", "P2", "P3")]
        assert means[0] > means[1] > means[2]

    def test_empty_prompt_list_rejected(self, small_manifest):
        scenes = load_manifest(small_manifest)
        with pytest.raises(ExperimentPrecondition):
            run_prompt_comparison(scenes, (), Gateway(MockBackend({})), CONFIG_1RUN)


class TestRunConsistency:
    def _run(self, manifest, script, runs=3):
        scenes = load_manifest(manifest)
        config = ExperimentConfig(runs_per_prompt=runs, params=QueryParams(backoff_base=0.0))
        return run_localization_experiment(scenes, "P1", Gateway(MockBackend(script)), config)

    def test_identical_boxes_not_flagged(self, small_manifest):
        scenes = load_manifest(small_manifest)
        script = localization_script(scenes, GT_TEMPLATE, runs=3)
        outcome = self._run(small_manifest, script)
        records = analyze_run_consistency(outcome.results)
        assert all(not r.flagged for r in records)
        assert all(r.min_pairwise_iou == 1.0 for r in records)

    def test_identical_zero_area_boxes_agree(self, small_manifest):
        # IoU is undefined for boxes of no area; equal ones agree fully
        scenes = load_manifest(small_manifest)
        script = localization_script(scenes, "(0.2,0.3), (0.6,0.3)", runs=3)
        outcome = self._run(small_manifest, script)
        records = analyze_run_consistency(outcome.results)
        assert len(records) == len(scenes.positives)
        assert all(r.min_pairwise_iou == 1.0 and not r.flagged for r in records)

    def test_mixed_kinds_flagged(self, small_manifest):
        scenes = load_manifest(small_manifest)
        script = localization_script(scenes, GT_TEMPLATE, runs=3)
        script[script_key("pos_a", "P1", 2)] = {"text": NO_PED_REPLY}
        outcome = self._run(small_manifest, script)
        by_scene = {r.scene_id: r for r in analyze_run_consistency(outcome.results)}
        assert by_scene["pos_a"].flagged
        assert by_scene["pos_a"].kinds == (
            "failure:NoPedestrianDetected",
            "located",
        )
        assert not by_scene["pos_b"].flagged

    def test_low_pairwise_iou_flagged(self, small_manifest):
        # pairwise IoUs of this triple are {0.8, 0.3, 0.3}; min 0.3 < 0.5
        scenes = load_manifest(small_manifest)
        triple = [
            "(0.0,0.0), (0.45,1.0)",
            "(0.05,0.0), (0.5,1.0)",
            "(0.05,0.0), (0.45,0.3375)",
        ]
        script = localization_script(scenes, GT_TEMPLATE, runs=3)
        for run_idx, reply in enumerate(triple):
            script[script_key("pos_a", "P1", run_idx)] = {"text": reply}
        outcome = self._run(small_manifest, script)
        by_scene = {r.scene_id: r for r in analyze_run_consistency(outcome.results)}
        assert by_scene["pos_a"].flagged
        assert by_scene["pos_a"].min_pairwise_iou == pytest.approx(0.3, abs=1e-9)

    def test_insufficient_runs(self, small_manifest):
        scenes = load_manifest(small_manifest)
        script = localization_script(scenes, GT_TEMPLATE)
        outcome = run_localization_experiment(scenes, "P1", Gateway(MockBackend(script)), CONFIG_1RUN)
        with pytest.raises(InsufficientRuns):
            analyze_run_consistency(outcome.results)


class TestLowlightShare:
    def _failure_run(self, tmp_path, n_failures: int, n_lowlight: int):
        tags = lambda i: ["dusk"] if i < n_lowlight else []  # noqa: E731
        records = [
            scene_line(f"s{i:02d}", positive=True, tags=tags(i)) for i in range(n_failures)
        ]
        scenes = load_manifest(write_manifest(tmp_path, records))
        script = localization_script(scenes, NO_PED_REPLY)
        outcome = run_localization_experiment(scenes, "P1", Gateway(MockBackend(script)), CONFIG_1RUN)
        return outcome, scenes

    def test_nine_of_seventeen(self, tmp_path):
        outcome, scenes = self._failure_run(tmp_path, 17, 9)
        share = lowlight_failure_share(outcome.results, scenes)
        assert share == pytest.approx(9 / 17, abs=1e-12)
        assert f"{share * 100:.2f}" == "52.94"

    def test_no_tagged_failures(self, tmp_path):
        outcome, scenes = self._failure_run(tmp_path, 5, 0)
        assert lowlight_failure_share(outcome.results, scenes) == 0.0

    def test_all_tagged(self, tmp_path):
        outcome, scenes = self._failure_run(tmp_path, 4, 4)
        assert lowlight_failure_share(outcome.results, scenes) == 1.0

    def test_empty_failure_set(self, small_manifest):
        scenes = load_manifest(small_manifest)
        script = localization_script(scenes, GT_TEMPLATE)
        outcome = run_localization_experiment(scenes, "P1", Gateway(MockBackend(script)), CONFIG_1RUN)
        with pytest.raises(EmptyFailureSet):
            lowlight_failure_share(outcome.results, scenes)

    def test_core_counts_a_scene_without_a_tag_as_not_lowlight(self, tmp_path):
        outcome, scenes = self._failure_run(tmp_path, 4, 2)
        lowlight = lowlight_by_scene(scenes)
        assert failure_lowlight_share(outcome.results, lowlight) == 0.5
        # s03 has no entry at all, as when its records carry scene_lowlight null
        del lowlight["s03"]
        assert failure_lowlight_share(outcome.results, lowlight) == 0.5
        del lowlight["s00"]
        assert failure_lowlight_share(outcome.results, lowlight) == 0.25
        assert failure_lowlight_share((), lowlight) is None


class TestDeterminism:
    def test_parallelism_does_not_change_results(self, small_manifest):
        scenes = load_manifest(small_manifest)
        script = binary_script(scenes, runs=3, fault={"neg_a"})
        outcomes = []
        for parallelism in (1, 8):
            config = ExperimentConfig(
                runs_per_prompt=3, parallelism=parallelism, params=QueryParams(backoff_base=0.0)
            )
            outcomes.append(
                run_binary_experiment(scenes, "BIN", Gateway(MockBackend(script)), config)
            )
        assert outcomes[0].results == outcomes[1].results
        assert outcomes[0].matrix == outcomes[1].matrix


def comparison_script(scenes, prompt_ids=("P1", "P2", "P3"), runs=3):
    replies = {"P1": GT_TEMPLATE, "P2": "(0.4,0.4), (0.6,0.6)", "P3": NO_PED_REPLY}
    script = {}
    for prompt_id in prompt_ids:
        script.update(localization_script(scenes, replies[prompt_id], prompt_id, runs=runs))
    return script


CONFIG_3RUNS = ExperimentConfig(runs_per_prompt=3, params=QueryParams(backoff_base=0.0))
TARGETS = ("csv", "records", "svg")


class TestFrameReads:
    """A mock never reads a frame; a backend that looks at pixels reads each once per task."""

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_binary_reads_each_scene_once(self, small_manifest, frame_reads, parallelism):
        scenes = load_manifest(small_manifest)
        config = ExperimentConfig(
            runs_per_prompt=3, parallelism=parallelism, params=QueryParams(backoff_base=0.0)
        )
        script = binary_script(scenes, runs=3)
        run_binary_experiment(scenes, "BIN", Gateway(MockBackend(script)), config)
        assert frame_reads == Counter()
        backend = ThreadRecordingBackend(script, simulated=False)
        run_binary_experiment(scenes, "BIN", Gateway(backend), config)
        assert frame_reads == Counter({f"{r.scene_id}.jpg": 1 for r in scenes})

    def test_localization_reads_each_positive_once(self, small_manifest, frame_reads):
        scenes = load_manifest(small_manifest)
        script = localization_script(scenes, GT_TEMPLATE, runs=3)
        run_localization_experiment(scenes, "P1", Gateway(MockBackend(script)), CONFIG_3RUNS)
        assert frame_reads == Counter()
        for parallelism in (1, 2):
            frame_reads.clear()
            config = replace(CONFIG_3RUNS, parallelism=parallelism)
            backend = ThreadRecordingBackend(script, simulated=False)
            run_localization_experiment(scenes, "P1", Gateway(backend), config)
            assert frame_reads == Counter({f"{r.scene_id}.jpg": 1 for r in scenes.positives})

    def test_comparison_reads_each_positive_once_for_all_prompts(
        self, small_manifest, frame_reads
    ):
        scenes = load_manifest(small_manifest)
        gateway = Gateway(MockBackend(comparison_script(scenes)))
        comparison = run_prompt_comparison(scenes, ("P1", "P2", "P3"), gateway, CONFIG_3RUNS)
        assert frame_reads == Counter()
        assert len(comparison.results) == 3 * 3 * len(scenes.positives)
        for parallelism in (1, 2):
            frame_reads.clear()
            config = replace(CONFIG_3RUNS, parallelism=parallelism)
            backend = ThreadRecordingBackend(comparison_script(scenes), simulated=False)
            comparison = run_prompt_comparison(scenes, ("P1", "P2", "P3"), Gateway(backend), config)
            assert frame_reads == Counter({f"{r.scene_id}.jpg": 1 for r in scenes.positives})
            assert len(comparison.results) == 3 * 3 * len(scenes.positives)

    def test_only_a_backend_that_is_not_simulated_gets_the_frame_bytes(self, small_manifest, frame_reads):
        scenes = load_manifest(small_manifest)
        script = binary_script(scenes)
        for simulated in (True, False):
            frame_reads.clear()
            backend = ThreadRecordingBackend(script, simulated=simulated)
            run_binary_experiment(scenes, "BIN", Gateway(backend), CONFIG_1RUN)
            images = {scene_id: image for (scene_id, _, _), image in backend.images}
            assert len(images) == len(backend.images) == len(scenes)
            # every backend gets the task's Frame; only one that looks at the pixels reads it
            assert {k: (type(v), v.path, v.size) for k, v in images.items()} == {
                r.scene_id: (Frame, r.image_path, r.image_path.stat().st_size) for r in scenes
            }
            assert frame_reads == Counter({} if simulated else {f"{r.scene_id}.jpg": 1 for r in scenes})
        # the encoding each frame kept is of the file's bytes
        assert {k: b64decode(v.base64) for k, v in images.items()} == {
            r.scene_id: r.image_path.read_bytes() for r in scenes
        }


class TestPromptComparisonDispatch:
    def test_matches_one_localization_run_per_prompt(self, small_manifest):
        scenes = load_manifest(small_manifest)
        gateway = Gateway(MockBackend(comparison_script(scenes)))
        comparison = run_prompt_comparison(scenes, ("P1", "P2", "P3"), gateway, CONFIG_3RUNS)
        for prompt_id in ("P1", "P2", "P3"):
            alone = run_localization_experiment(scenes, prompt_id, gateway, CONFIG_3RUNS)
            assert comparison.runs[prompt_id] == alone

    def test_parallelism_does_not_change_results_or_files(self, small_manifest, tmp_path):
        scenes = load_manifest(small_manifest)
        gateway = Gateway(MockBackend(comparison_script(scenes)))
        outcomes, files = [], []
        for parallelism in (1, 8):
            config = ExperimentConfig(
                runs_per_prompt=3, parallelism=parallelism, params=QueryParams(backoff_base=0.0)
            )
            comparison = run_prompt_comparison(scenes, ("P1", "P2", "P3"), gateway, config)
            out = tmp_path / f"p{parallelism}"
            paths = emit_report(ReportBundle(comparison=comparison), TARGETS, out)
            outcomes.append(comparison)
            files.append({p.name: p.read_bytes() for p in paths})
        assert outcomes[0] == outcomes[1]
        assert files[0] == files[1]

    def test_repeated_prompt_id_is_queried_once(self, small_manifest, frame_reads):
        scenes = load_manifest(small_manifest)
        gateway = Gateway(MockBackend(comparison_script(scenes, ("P1",))))
        comparison = run_prompt_comparison(scenes, ("P1", "P1"), gateway, CONFIG_3RUNS)
        alone = run_localization_experiment(scenes, "P1", gateway, CONFIG_3RUNS)
        assert comparison == PromptComparison(prompt_ids=("P1", "P1"), runs={"P1": alone})
        assert [pid for pid, _ in comparison.summary_table()] == ["P1", "P1"]
        # a mock reads no frame
        assert frame_reads == Counter()
        backend = ThreadRecordingBackend(comparison_script(scenes, ("P1",)), simulated=False)
        run_prompt_comparison(scenes, ("P1", "P1"), Gateway(backend), CONFIG_3RUNS)
        run_localization_experiment(scenes, "P1", Gateway(backend), CONFIG_3RUNS)
        # one read per positive for the comparison, one more for the lone run
        assert frame_reads == Counter({f"{r.scene_id}.jpg": 2 for r in scenes.positives})
        assert len(backend.threads) == 2 * 3 * len(scenes.positives)

    def test_prompt_with_every_query_faulted_aborts(self, small_manifest):
        scenes = load_manifest(small_manifest)
        script = comparison_script(scenes)
        for key in script:
            if "|P2|" in key:
                script[key] = {"fault": "timeout"}
        with pytest.raises(AllScenesFailed, match="all 3 scenes failed at the gateway"):
            run_prompt_comparison(
                scenes, ("P1", "P2", "P3"), Gateway(MockBackend(script)), CONFIG_3RUNS
            )

    def test_every_prompt_validated_before_any_query(self, small_manifest, frame_reads):
        scenes = load_manifest(small_manifest)
        gateway = Gateway(MockBackend(comparison_script(scenes)))
        with pytest.raises(ExperimentPrecondition, match="BIN is not a coordinate prompt"):
            run_prompt_comparison(scenes, ("P1", "BIN"), gateway, CONFIG_3RUNS)
        assert not frame_reads


class ThreadRecordingBackend(MockBackend):
    """Replays a mock script and records the thread and the (key, image) of every call.

    With ``simulated=False`` it stands for a backend that waits on the
    network and, like the live one, looks at the pixels through the
    frame's ``base64``. With ``meet`` set, its first two calls wait for
    each other, so they can only finish on two threads at once.
    """

    def __init__(self, script, *, simulated=True, meet=False) -> None:
        super().__init__(script)
        self.simulated = simulated
        self.threads: list[int] = []
        self.images: list[tuple[tuple, object]] = []
        self._lock = threading.Lock()
        self._meeting = threading.Barrier(2, timeout=10) if meet else None

    def complete(self, image, prompt, params, key):
        with self._lock:
            self.threads.append(threading.get_ident())
            self.images.append((key, image))
            first_two = len(self.threads) <= 2
        if not self.simulated:
            image.base64
        if self._meeting is not None and first_two:
            self._meeting.wait()
        return super().complete(image, prompt, params, key)


def without_latency(comparison: PromptComparison) -> PromptComparison:
    """``comparison`` with every latency zeroed: a backend that is not simulated times its replies."""
    runs = {
        pid: replace(run, results=tuple(replace(r, latency=0.0) for r in run.results))
        for pid, run in comparison.runs.items()
    }
    return replace(comparison, runs=runs)


class TestThreadPool:
    """Only a backend that waits on the network gets worker threads."""

    def config(self, parallelism):
        return ExperimentConfig(
            runs_per_prompt=3, parallelism=parallelism, params=QueryParams(backoff_base=0.0)
        )

    def test_network_backend_gives_equal_results_at_any_parallelism(self, small_manifest):
        scenes = load_manifest(small_manifest)
        script = comparison_script(scenes)
        script[script_key("pos_b", "P2", 1)] = {"fault": "timeout"}
        outcomes = []
        for parallelism, meet in ((1, False), (8, True)):
            backend = ThreadRecordingBackend(script, simulated=False, meet=meet)
            comparison = run_prompt_comparison(
                scenes, ("P1", "P2", "P3"), Gateway(backend), self.config(parallelism)
            )
            outcomes.append(without_latency(comparison))
        assert outcomes[0] == outcomes[1]
        assert any(r.fault is not None for r in outcomes[0].results)

    def test_network_backend_runs_on_worker_threads(self, small_manifest):
        scenes = load_manifest(small_manifest)
        backend = ThreadRecordingBackend(comparison_script(scenes), simulated=False, meet=True)
        run_prompt_comparison(scenes, ("P1", "P2", "P3"), Gateway(backend), self.config(8))
        assert 1 < len(set(backend.threads)) <= 8

    def test_mock_backend_answers_on_the_calling_thread(self, small_manifest):
        scenes = load_manifest(small_manifest)
        backend = ThreadRecordingBackend(comparison_script(scenes))
        comparison = run_prompt_comparison(
            scenes, ("P1", "P2", "P3"), Gateway(backend), self.config(8)
        )
        assert set(backend.threads) == {threading.get_ident()}
        assert len(backend.threads) == len(comparison.results) == 3 * 3 * len(scenes.positives)


def test_a_live_scene_task_reads_and_encodes_its_frame_once(tmp_path, frame_reads, monkeypatch):
    """Two prompts x three runs, and a retry, send the bytes of one read and one encoding."""
    import fovlink.dataset

    encodes = []
    b64encode = fovlink.dataset.b64encode
    monkeypatch.setattr(fovlink.dataset, "b64encode", lambda data: encodes.append(1) or b64encode(data))
    scenes = load_manifest(write_manifest(tmp_path, [scene_line("pos_a", positive=True)]))
    image = scenes.by_id["pos_a"].image_path.read_bytes()
    frame_reads.clear()
    bodies = []

    def respond(body: bytes) -> bytes:
        bodies.append(body)
        return http_reply(b'{"error": "busy"}', status=503) if len(bodies) == 1 else completion_reply(GT_TEMPLATE)

    with LoopbackServer(respond) as server:
        gateway = Gateway(LiveBackend(base_url=server.url))
        comparison = run_prompt_comparison(scenes, ("P1", "P2"), gateway, CONFIG_3RUNS)
    assert frame_reads == Counter({"pos_a.jpg": 1})
    assert len(encodes) == 1
    assert [r.fault for r in comparison.results] == [None] * 6
    expected = {
        pid: json.dumps(build_chat_request(image, get_prompt(pid).text, CONFIG_3RUNS.params)).encode("utf-8")
        for pid in ("P1", "P2")
    }
    # the 503 and its retry, then the two other runs of P1, then P2's three runs
    assert bodies == [expected["P1"]] * 4 + [expected["P2"]] * 3


def test_a_live_scene_task_keeps_no_raw_copy_of_its_frame(tmp_path):
    """While a task's second request is in flight, the frame's encoding is live under dataset.py, its bytes are not."""
    import tracemalloc

    import fovlink.dataset

    scenes = load_manifest(write_manifest(tmp_path, [scene_line("pos_a", positive=True)]))
    path = scenes.by_id["pos_a"].image_path
    path.write_bytes(bytes(range(256)) * 800)
    size = path.stat().st_size
    under_dataset = [tracemalloc.Filter(True, fovlink.dataset.__file__, all_frames=True)]
    bodies, live = [], []

    def respond(body: bytes) -> bytes:
        bodies.append(body)
        if len(bodies) == 2:
            live.extend(trace.size for trace in tracemalloc.take_snapshot().filter_traces(under_dataset).traces)
        return completion_reply(GT_TEMPLATE)

    config = ExperimentConfig(runs_per_prompt=2, params=QueryParams(backoff_base=0.0))
    tracemalloc.start(25)
    try:
        with LoopbackServer(respond) as server:
            result = run_localization_experiment(scenes, "P1", Gateway(LiveBackend(base_url=server.url)), config)
    finally:
        tracemalloc.stop()
    assert [r.fault for r in result.results] == [None, None]
    assert len(bodies) == 2
    # the encoding, 4 bytes for every 3, is held; no block of the raw size is
    assert any(block >= size * 4 // 3 for block in live)
    assert [block for block in live if size <= block < size + 1024] == []


def test_a_result_latency_leaves_out_the_frame_read_and_encoding(small_manifest, frame_reads, monkeypatch):
    """The first query of a scene task used to count its frame's read and encoding in its latency."""
    read = Frame.read
    monkeypatch.setattr(Frame, "read", lambda frame: time.sleep(0.15) or read(frame))
    scenes = load_manifest(small_manifest)
    backend = ThreadRecordingBackend(binary_script(scenes, runs=2), simulated=False)
    result = run_binary_experiment(scenes, "BIN", Gateway(backend), replace(CONFIG_1RUN, runs_per_prompt=2))
    assert frame_reads == Counter({f"{r.scene_id}.jpg": 1 for r in scenes})
    assert len(result.results) == 2 * len(scenes)
    assert max(r.latency for r in result.results) < 0.1


class SlowNetworkBackend(MockBackend):
    """A backend that waits on the network: each call takes ``hold`` seconds.

    It counts the calls in flight, records every call's key, thread and
    span, and fails the first attempt at ``flaky`` with a retryable fault.
    """

    simulated = False

    def __init__(self, script, flaky, hold=0.02) -> None:
        super().__init__(script)
        self.flaky = flaky
        self.hold = hold
        self.in_flight = 0
        self.peak = 0
        self.calls: list[tuple[tuple, int, float, float]] = []
        self._lock = threading.Lock()

    def complete(self, image, prompt, params, key):
        start = time.monotonic()
        with self._lock:
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
            first = key == self.flaky and all(k != key for k, *_ in self.calls)
        try:
            time.sleep(self.hold)
            if first:
                raise _BackendFault("rate_limit", "HTTP 429: scripted")
            return super().complete(image, prompt, params, key)
        finally:
            with self._lock:
                self.in_flight -= 1
                self.calls.append((key, threading.get_ident(), start, time.monotonic()))


class TestSlotLending:
    """A scene task sleeping out a backoff lends its request slot to the next scene."""

    FLAKY = ("s00", "BIN", 0)

    def run(self, tmp_path, parallelism, n_scenes=12, backoff=0.3):
        records = [scene_line(f"s{i:02d}", positive=i % 2 == 0) for i in range(n_scenes)]
        scenes = load_manifest(write_manifest(tmp_path, records))
        backend = SlowNetworkBackend(binary_script(scenes), self.FLAKY)
        config = ExperimentConfig(
            runs_per_prompt=1, parallelism=parallelism, params=QueryParams(backoff_base=backoff)
        )
        return run_binary_experiment(scenes, "BIN", Gateway(backend), config), backend

    def attempts(self, backend):
        return sorted((start, end) for key, _, start, end in backend.calls if key == self.FLAKY)

    def test_other_scenes_use_the_slot_while_a_retry_backs_off(self, tmp_path):
        result, backend = self.run(tmp_path, 2)
        assert backend.peak == 2
        flaky = self.attempts(backend)
        assert len(flaky) == 2
        backoff = (flaky[0][1], flaky[1][0])
        inside = [
            (start, end)
            for key, _, start, end in backend.calls
            if key[0] != "s00" and backoff[0] <= start and end <= backoff[1]
        ]
        assert inside
        # two calls at once inside the window: the slot of the scene in backoff was lent
        assert any(a[0] < b[1] and b[0] < a[1] for i, a in enumerate(inside) for b in inside[i + 1:])
        serial, _ = self.run(tmp_path, 1)
        masked = [replace(r, latency=0.0) for r in result.results]
        assert masked == [replace(r, latency=0.0) for r in serial.results]
        assert [r.fault for r in result.results] == [None] * 12

    def test_a_task_back_from_its_backoff_takes_the_next_free_slot(self, tmp_path):
        # the other 59 scenes keep both slots busy for about 0.6 s, well past
        # the 0.2 s backoff; the retry waits for one call to end, not for them
        _, backend = self.run(tmp_path, 2, n_scenes=60, backoff=0.2)
        first, retry = self.attempts(backend)
        assert retry[0] - first[1] < 0.2 + 0.1
        assert max(end for *_, end in backend.calls) - retry[1] > 0.1

    def test_one_slot_runs_every_call_on_the_calling_thread(self, tmp_path):
        _, backend = self.run(tmp_path, 1)
        assert {thread for _, thread, _, _ in backend.calls} == {threading.get_ident()}
        assert backend.peak == 1


def lending_run(tmp_path, backend_for, parallelism, n_scenes=12, backoff=0.3):
    """exp1 BIN, one run, over ``n_scenes`` scenes through ``backend_for(script)``."""
    records = [scene_line(f"s{i:03d}", positive=i % 2 == 0) for i in range(n_scenes)]
    scenes = load_manifest(write_manifest(tmp_path, records))
    backend = backend_for(binary_script(scenes))
    config = ExperimentConfig(runs_per_prompt=1, parallelism=parallelism, params=QueryParams(backoff_base=backoff))
    return run_binary_experiment(scenes, "BIN", Gateway(backend), config), backend


class TestWorkers:
    """A live dispatch runs on ``parallelism`` workers, each filling its own backoffs with the next scenes."""

    FLAKY = ("s000", "BIN", 0)

    @pytest.mark.parametrize("parallelism", [2, 3])
    def test_a_pooled_live_dispatch_answers_on_at_most_parallelism_threads(self, tmp_path, parallelism):
        # standby threads used to answer the scenes taken up while s000 backed off
        result, backend = lending_run(tmp_path, lambda script: SlowNetworkBackend(script, self.FLAKY), parallelism)
        assert len({thread for _, thread, _, _ in backend.calls}) <= parallelism
        assert backend.peak <= parallelism
        assert [r.fault for r in result.results] == [None] * 12

    def test_one_worker_answers_other_scenes_inside_a_backoff(self, tmp_path):
        # a run at parallelism 1 used to sleep the backoff out with nothing in flight
        result, backend = lending_run(tmp_path, lambda script: SlowNetworkBackend(script, self.FLAKY), 1)
        first, retry = sorted((start, end) for key, _, start, end in backend.calls if key == self.FLAKY)
        inside = [key for key, _, start, end in backend.calls if first[1] <= start and end <= retry[0]]
        assert len(inside) > 1
        assert {thread for _, thread, _, _ in backend.calls} == {threading.get_ident()}
        assert backend.peak == 1
        serial, _ = lending_run(tmp_path, MockBackend, 1)
        assert [replace(r, latency=0.0) for r in result.results] == list(serial.results)


class StormBackend(MockBackend):
    """A backend that waits on the network and faults the first attempt at every key.

    It records each call's thread and key, in the order each thread made them.
    """

    simulated = False

    def __init__(self, script) -> None:
        super().__init__(script)
        self.calls: list[tuple[int, tuple]] = []
        self._lock = threading.Lock()

    def complete(self, image, prompt, params, key):
        with self._lock:
            first = all(k != key for _, k in self.calls)
            self.calls.append((threading.get_ident(), key))
        if first:
            raise _BackendFault("rate_limit", "HTTP 429: storm")
        return super().complete(image, prompt, params, key)


@pytest.mark.parametrize("parallelism", [1, 2, 8])
def test_a_rate_limit_storm_nests_no_deeper_than_the_lending_depth(tmp_path, parallelism):
    # with no bound, each faulting scene taken up during a backoff took up
    # the next one during its own: one level of recursion per scene. More
    # workers than cores, switching often, take every scene exactly once.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        result, backend = lending_run(tmp_path, StormBackend, parallelism, n_scenes=300, backoff=0.001)
    finally:
        sys.setswitchinterval(interval)
    assert set(Counter(key for _, key in backend.calls).values()) == {2}
    deepest = 0
    for thread in {thread for thread, _ in backend.calls}:
        open_scenes: set[tuple] = set()
        for _, key in (call for call in backend.calls if call[0] == thread):
            open_scenes ^= {key}  # opened by its faulted attempt, closed by its retry
            deepest = max(deepest, len(open_scenes))
    # scenes were taken up during backoffs, never more than two levels deep
    assert 1 < deepest <= 3
    serial, _ = lending_run(tmp_path, MockBackend, 1, n_scenes=300)
    assert [replace(r, latency=0.0) for r in result.results] == list(serial.results)


@pytest.mark.parametrize(
    "detection, outcome",
    [
        (None, "fault"),
        (detect_binary("yes"), "verdict"),
        (detect_bbox(GT_TEMPLATE), "located"),
        (detect_bbox(NO_PED_REPLY), "failure"),
    ],
)
def test_a_result_names_its_outcome_as_its_record_does(detection, outcome):
    fault = "TransportError: down" if detection is None else None
    result = RunResult(
        scene_id="s", prompt_id="P1", run_idx=0, detection=detection, latency=0.0, raw_text="", fault=fault
    )
    assert result.outcome == outcome
    assert result_to_record(result)["outcome"] == outcome


_REPLIES = st.sampled_from(["yes", "No.", "", GT_TEMPLATE, "(0.4,0.4), (0.6,0.6)", "(0.1, 0.2)", NO_PED_REPLY])


@given(st.lists(st.tuples(st.sampled_from(ExpectedFormat), _REPLIES | st.text(max_size=60))))
def test_a_memoised_parse_equals_a_fresh_one(replies):
    parsed = {}
    for expected_format, text in replies:
        detect = detect_binary if expected_format is ExpectedFormat.YES_NO else detect_bbox
        assert experiments._detect(expected_format, text, parsed) == detect(text)
    assert len(parsed) == len(set(replies))


class NetworkMock(MockBackend):
    """The mock script, served as a backend that waits on the network: frames are read, tasks pooled."""

    simulated = False


@pytest.mark.parametrize("backend_for, parallelism", [(MockBackend, 1), (NetworkMock, 1), (NetworkMock, 2)])
def test_a_dispatch_leaves_no_reference_cycle(tmp_path, backend_for, parallelism):
    # a worker loop that named itself kept every result of a dispatch alive
    # until the next full collection: about 2 MB more peak memory on eval-mock
    import gc

    gc.collect()
    gc.disable()
    try:
        result, _ = lending_run(tmp_path, backend_for, parallelism)
        del result
        assert gc.collect() == 0
    finally:
        gc.enable()


class HelperFault(Exception):
    """Raised by ``FailingOffTheCallingThread`` on a worker that is not the calling thread."""


class FailingOffTheCallingThread(NetworkMock):
    """Raises ``HelperFault`` on every call off the calling thread; the calling thread's calls wait for one."""

    def __init__(self, script) -> None:
        super().__init__(script)
        self.caller = threading.get_ident()
        self.raised = threading.Event()

    def complete(self, image, prompt, params, key):
        if threading.get_ident() != self.caller:
            self.raised.set()
            raise HelperFault(key)
        assert self.raised.wait(10)
        return super().complete(image, prompt, params, key)


@pytest.mark.parametrize("parallelism", [2, 4])
def test_an_error_raised_on_a_helper_thread_leaves_no_reference_cycle(tmp_path, parallelism):
    # an error a pool thread raised came back through its future, which left
    # about 250 objects in reference cycles once the error was handled
    import gc

    gc.collect()
    gc.disable()
    try:
        try:
            lending_run(tmp_path, FailingOffTheCallingThread, parallelism)
        except HelperFault:
            pass
        else:
            pytest.fail("the helper thread's error was not raised")
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_live_dispatch_starts_no_more_workers_than_scenes(tmp_path, monkeypatch):
    # a pool of 15 threads started 5 or 6 of them for 3 scenes
    constructed = []

    class CountedThread(threading.Thread):
        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            constructed.append(self)

    monkeypatch.setattr(threading, "Thread", CountedThread)
    result, backend = lending_run(tmp_path, lambda script: SlowNetworkBackend(script, None), 16, n_scenes=3)
    assert len(constructed) <= 2
    assert backend.peak <= 3
    assert [r.fault for r in result.results] == [None] * 3


@pytest.mark.parametrize("parallelism", [1, 2])
def test_equal_replies_share_one_detection_and_write_the_records_of_fresh_parses(
    tmp_path, small_manifest, monkeypatch, parallelism
):
    scenes = load_manifest(small_manifest)
    script = {**binary_script(scenes, runs=3, flip={"neg_b"}), **comparison_script(scenes)}
    script[script_key("pos_a", "P2", 1)] = {"text": "a person by (0.4, 0.4"}
    script[script_key("pos_b", "P3", 2)] = {"fault": "timeout"}
    config = ExperimentConfig(runs_per_prompt=3, parallelism=parallelism, params=QueryParams(backoff_base=0.0))

    def campaign(out):
        gateway = Gateway(NetworkMock(script))
        binary = run_binary_experiment(scenes, "BIN", gateway, config)
        binary = replace(binary, results=tuple(replace(r, latency=0.0) for r in binary.results))
        comparison = without_latency(run_prompt_comparison(scenes, ("P1", "P2", "P3"), gateway, config))
        emit_report(ReportBundle(binary=binary), TARGETS, out / "exp1")
        emit_report(ReportBundle(comparison=comparison), TARGETS, out / "exp3")
        return binary.results + comparison.results

    memoised = campaign(tmp_path / "memoised")
    detect = experiments._detect
    monkeypatch.setattr(experiments, "_detect", lambda expected_format, text, parsed: detect(expected_format, text, {}))
    fresh = campaign(tmp_path / "fresh")

    assert memoised == fresh
    detections = [r.detection for r in memoised if r.detection is not None]
    # per dispatch: exp1 replies "yes" and "no", exp3 four distinct replies
    assert len({id(d) for d in detections}) == 6
    assert len({id(r.detection) for r in fresh if r.detection is not None}) == len(detections)
    files = sorted(p.relative_to(tmp_path / "memoised") for p in (tmp_path / "memoised").rglob("*") if p.is_file())
    assert files
    for name in files:
        assert (tmp_path / "memoised" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes(), name


def test_threads_sharing_the_parse_memo_give_each_reply_its_own_detection(tmp_path):
    """16 worker threads on a tiny switch interval: a race may parse a reply twice, never mix two up."""
    records = [scene_line(f"s{i:02d}", positive=True) for i in range(40)]
    scenes = load_manifest(write_manifest(tmp_path, records))
    script = {
        script_key(r.scene_id, "P1", run_idx): {"text": f"({i % 7 / 10},0.1), (0.9,0.{run_idx + 5})"}
        for i, r in enumerate(scenes.positives)
        for run_idx in range(3)
    }
    config = ExperimentConfig(runs_per_prompt=3, parallelism=8, params=QueryParams(backoff_base=0.0))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        outcome = run_localization_experiment(scenes, "P1", Gateway(NetworkMock(script)), config)
    finally:
        sys.setswitchinterval(interval)
    assert len(outcome.results) == 120
    for r in outcome.results:
        assert r.detection == detect_bbox(script[script_key(r.scene_id, r.prompt_id, r.run_idx)]["text"])


class InterruptedLive(LiveBackend):
    """A live backend whose ``at``-th request on the calling thread raises ``KeyboardInterrupt``, as Ctrl-C would."""

    def __init__(self, base_url, at) -> None:
        super().__init__(base_url=base_url)
        self.caller = threading.get_ident()
        self.at = at
        self.calls = 0
        self.sent_before_interrupt = None
        self.lock = threading.Lock()

    def complete(self, image, prompt, params, key):
        with self.lock:
            if threading.get_ident() == self.caller:
                self.at -= 1
                if self.at == 0:
                    self.sent_before_interrupt = self.calls
                    raise KeyboardInterrupt
            self.calls += 1
        return super().complete(image, prompt, params, key)


@pytest.mark.parametrize("parallelism", [1, 2, 4])
def test_a_keyboard_interrupt_on_the_calling_thread_stops_every_worker(tmp_path, parallelism):
    # the pool threads used to query every remaining scene before the interrupt surfaced
    scenes = load_manifest(write_manifest(tmp_path, [scene_line(f"s{i:02d}", positive=False) for i in range(40)]))
    config = ExperimentConfig(runs_per_prompt=3, parallelism=parallelism, params=QueryParams(backoff_base=0.0))
    with LoopbackServer(lambda body: completion_reply("no")) as server:
        backend = InterruptedLive(server.url, at=4)
        with pytest.raises(KeyboardInterrupt):
            run_binary_experiment(scenes, "BIN", Gateway(backend), config)
    assert backend.sent_before_interrupt is not None
    # each other worker finishes the scene it holds, at most 3 requests, and takes no other
    assert server.connections == backend.calls <= backend.sent_before_interrupt + 3 * (parallelism - 1)
