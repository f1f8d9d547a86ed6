from __future__ import annotations

from collections import Counter
from pathlib import Path

import pytest

from fovlink.dataset import load_manifest
from fovlink.experiments import (
    AllScenesFailed,
    PromptComparison,
    EmptyFailureSet,
    ExperimentConfig,
    ExperimentPrecondition,
    InsufficientRuns,
    analyze_run_consistency,
    lowlight_failure_share,
    run_binary_experiment,
    run_localization_experiment,
    run_prompt_comparison,
)
from fovlink.gateway import Gateway, MockBackend, QueryParams
from fovlink.parsing import FailureKind
from fovlink.report import ReportBundle, emit_report

from conftest import scene_line, script_key, write_manifest

CONFIG_1RUN = ExperimentConfig(runs_per_prompt=1, params=QueryParams(backoff_base=0.0))

NO_PED_REPLY = "I cannot identify any pedestrian in this image."

# the gt box used by conftest.scene_line, in template form
GT_TEMPLATE = "(0.4,0.4), (0.6,0.8)"


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


@pytest.fixture
def frame_reads(monkeypatch):
    """Counts Path.read_bytes calls per image file name."""
    reads: Counter[str] = Counter()
    read_bytes = Path.read_bytes

    def counting(path):
        reads[path.name] += 1
        return read_bytes(path)

    monkeypatch.setattr(Path, "read_bytes", counting)
    return reads


def comparison_script(scenes, prompt_ids=("P1", "P2", "P3"), runs=3):
    replies = {"P1": GT_TEMPLATE, "P2": "(0.4,0.4), (0.6,0.6)", "P3": NO_PED_REPLY}
    script = {}
    for prompt_id in prompt_ids:
        script.update(localization_script(scenes, replies[prompt_id], prompt_id, runs=runs))
    return script


CONFIG_3RUNS = ExperimentConfig(runs_per_prompt=3, params=QueryParams(backoff_base=0.0))
TARGETS = ("csv", "records", "svg")


class TestFrameReads:
    """Each task reads its scene's frame once, however many queries it asks."""

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_binary_reads_each_scene_once(self, small_manifest, frame_reads, parallelism):
        scenes = load_manifest(small_manifest)
        config = ExperimentConfig(
            runs_per_prompt=3, parallelism=parallelism, params=QueryParams(backoff_base=0.0)
        )
        script = binary_script(scenes, runs=3)
        run_binary_experiment(scenes, "BIN", Gateway(MockBackend(script)), config)
        assert frame_reads == Counter({f"{r.scene_id}.jpg": 1 for r in scenes})

    def test_localization_reads_each_positive_once(self, small_manifest, frame_reads):
        scenes = load_manifest(small_manifest)
        script = localization_script(scenes, GT_TEMPLATE, runs=3)
        run_localization_experiment(scenes, "P1", Gateway(MockBackend(script)), CONFIG_3RUNS)
        assert frame_reads == Counter({f"{r.scene_id}.jpg": 1 for r in scenes.positives})

    def test_comparison_reads_each_positive_once_for_all_prompts(
        self, small_manifest, frame_reads
    ):
        scenes = load_manifest(small_manifest)
        gateway = Gateway(MockBackend(comparison_script(scenes)))
        comparison = run_prompt_comparison(scenes, ("P1", "P2", "P3"), gateway, CONFIG_3RUNS)
        assert frame_reads == Counter({f"{r.scene_id}.jpg": 1 for r in scenes.positives})
        assert len(comparison.results) == 3 * 3 * len(scenes.positives)


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
        # one read per positive for the comparison, one more for the lone run
        assert frame_reads == Counter({f"{r.scene_id}.jpg": 2 for r in scenes.positives})

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
