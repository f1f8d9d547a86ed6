from __future__ import annotations

import math
from dataclasses import fields

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fovlink.stats import (
    STAT_NAMES,
    ConfusionMatrix,
    DuplicateLabel,
    DuplicatePrediction,
    EmptyConfusionMatrix,
    EmptySampleSet,
    UndefinedStatistic,
    UnknownSceneId,
    build_confusion_matrix,
    derive_detection_stats,
    summarize_localization,
)

# The two benchmark columns: matrix -> ten expected percentages, in
# STAT_NAMES order (recall, specificity, precision, npv, fpr, fdr, fnr,
# accuracy, f1, mcc).
BENCHMARK_COLUMNS = {
    (120, 6, 5, 129): (95.24, 96.27, 96.00, 95.56, 3.73, 4.00, 4.76, 95.77, 95.62, 91.53),
    (125, 1, 11, 127): (99.21, 92.03, 91.91, 99.22, 7.97, 8.09, 0.79, 95.45, 95.42, 91.18),
}


class TestBuildConfusionMatrix:
    def _labels(self, n_pos: int, n_neg: int):
        return [(f"p{i}", True) for i in range(n_pos)] + [(f"n{i}", False) for i in range(n_neg)]

    def test_perfect_predictor(self):
        labels = self._labels(126, 138)
        cm = build_confusion_matrix(labels, labels)
        assert (cm.tp, cm.fn_, cm.fp, cm.tn) == (126, 0, 0, 138)

    def test_constant_true_predictor(self):
        labels = self._labels(126, 138)
        predictions = [(scene_id, True) for scene_id, _ in labels]
        cm = build_confusion_matrix(predictions, labels)
        assert (cm.tp, cm.fn_, cm.fp, cm.tn) == (126, 0, 138, 0)

    def test_benchmark_flip_fixture(self):
        # 6 positives flipped to no, 5 negatives flipped to yes, 4 negatives dropped
        labels = self._labels(126, 138)
        predictions = []
        for i in range(126):
            predictions.append((f"p{i}", i >= 6))
        for i in range(134):
            predictions.append((f"n{i}", i < 5))
        cm = build_confusion_matrix(predictions, labels)
        assert (cm.tp, cm.fn_, cm.fp, cm.tn) == (120, 6, 5, 129)

    def test_unknown_scene_id(self):
        with pytest.raises(UnknownSceneId):
            build_confusion_matrix([("ghost", True)], [("real", True)])

    def test_duplicate_prediction(self):
        with pytest.raises(DuplicatePrediction):
            build_confusion_matrix([("a", True), ("a", False)], [("a", True)])

    def test_duplicate_label(self):
        with pytest.raises(DuplicateLabel):
            build_confusion_matrix([("a", True)], [("a", True), ("a", False)])


class TestDeriveDetectionStats:
    @pytest.mark.parametrize("matrix,expected", sorted(BENCHMARK_COLUMNS.items()))
    def test_benchmark_columns(self, matrix, expected):
        stats = derive_detection_stats(ConfusionMatrix(*matrix))
        for name, expected_pct in zip(STAT_NAMES, expected):
            value = stats.require(name)
            assert value * 100 == pytest.approx(expected_pct, abs=0.005), name

    def test_perfect_two_sample_matrix(self):
        stats = derive_detection_stats(ConfusionMatrix(1, 0, 0, 1))
        for name in ("recall", "specificity", "precision", "npv", "accuracy", "f1", "mcc"):
            assert stats.require(name) == 1.0
        for name in ("fpr", "fdr", "fnr"):
            assert stats.require(name) == 0.0

    def test_empty_matrix_rejected(self):
        with pytest.raises(EmptyConfusionMatrix):
            derive_detection_stats(ConfusionMatrix(0, 0, 0, 0))

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="negative count in confusion matrix: -1"):
            ConfusionMatrix(-1, 0, 0, 0)

    def test_require_of_an_unknown_name(self):
        stats = derive_detection_stats(ConfusionMatrix(1, 0, 0, 1))
        with pytest.raises(KeyError, match="nope"):
            stats.require("nope")

    def test_partial_undefined_statistics(self):
        stats = derive_detection_stats(ConfusionMatrix(0, 0, 0, 1))
        assert stats.specificity == 1.0
        assert stats.accuracy == 1.0
        assert stats.recall is None
        assert "recall" in stats.undefined
        assert "f1" in stats.undefined
        with pytest.raises(UndefinedStatistic):
            stats.require("recall")

    @given(st.tuples(*(st.integers(0, 500) for _ in range(4))))
    def test_complement_identities(self, counts):
        cm = ConfusionMatrix(*counts)
        if cm.total == 0:
            return
        stats = derive_detection_stats(cm)
        for a, b in (("recall", "fnr"), ("specificity", "fpr"), ("precision", "fdr")):
            va, vb = getattr(stats, a), getattr(stats, b)
            if va is not None and vb is not None:
                assert abs(va + vb - 1.0) <= 1e-12

    @given(st.tuples(*(st.integers(0, 500) for _ in range(4))))
    def test_mcc_bounded_and_accuracy_swap_invariant(self, counts):
        cm = ConfusionMatrix(*counts)
        if cm.total == 0:
            return
        stats = derive_detection_stats(cm)
        if stats.mcc is not None:
            assert -1.0 <= stats.mcc <= 1.0
        swapped = derive_detection_stats(
            ConfusionMatrix(tp=cm.tn, fn_=cm.fp, fp=cm.fn_, tn=cm.tp)
        )
        assert stats.accuracy == swapped.accuracy


class TestSummarizeLocalization:
    def test_constant_samples(self):
        samples = [(f"s{i}", 0, True, 1.0, 1.0) for i in range(5)]
        summary = summarize_localization(samples)
        assert summary.union_rate == 1.0
        assert summary.recall_mean_overlapping == 1.0
        assert summary.recall_std_overlapping == 0.0
        assert summary.recall_mean_all == 1.0
        assert summary.recall_std_all == 0.0
        assert summary.iou_mean_overlapping == 1.0

    def test_no_overlap_flags_undefined(self):
        samples = [(f"s{i}", 0, False, 0.0, 0.0) for i in range(4)]
        summary = summarize_localization(samples)
        assert summary.union_rate == 0.0
        assert summary.recall_mean_all == 0.0
        assert summary.recall_mean_overlapping is None
        assert "recall_mean_overlapping" in summary.undefined
        assert "iou_mean_overlapping" in summary.undefined

    def test_hand_computed_fixture(self):
        # ten samples; expected values computed spreadsheet-style by hand
        # (population std) before the implementation existed
        samples = [
            ("s0", 0, True, 0.9, 0.5),
            ("s1", 0, True, 0.8, 0.4),
            ("s2", 0, True, 0.5, 0.25),
            ("s3", 0, True, 0.3, 0.2),
            ("s4", 0, True, 0.7, 0.35),
            ("s5", 0, True, 0.4, 0.3),
            ("s6", 0, False, 0.0, 0.0),
            ("s7", 0, False, 0.0, 0.0),
            ("s8", 0, False, 0.0, 0.0),
            ("s9", 0, False, 0.0, 0.0),
        ]
        summary = summarize_localization(samples)
        assert summary.union_rate == pytest.approx(0.6, abs=1e-12)
        assert summary.recall_mean_overlapping == pytest.approx(0.6, abs=1e-12)
        assert summary.recall_std_overlapping == pytest.approx(0.216024689947, abs=1e-9)
        assert summary.recall_mean_all == pytest.approx(0.36, abs=1e-12)
        assert summary.recall_std_all == pytest.approx(0.338230690506, abs=1e-9)
        assert summary.iou_mean_overlapping == pytest.approx(1 / 3, abs=1e-12)
        assert summary.n_tests == 10
        assert summary.n_overlapping == 6

    def test_empty_sample_set(self):
        with pytest.raises(EmptySampleSet):
            summarize_localization([])

    @given(
        st.lists(
            st.tuples(
                st.text("ab", min_size=1, max_size=3),
                st.integers(0, 2),
                st.booleans(),
                st.floats(0, 1, allow_nan=False),
                st.floats(0, 1, allow_nan=False),
            ),
            min_size=1,
            max_size=30,
        ),
        st.randoms(),
    )
    def test_permutation_invariant(self, samples, rng):
        baseline = summarize_localization(samples)
        shuffled = list(samples)
        rng.shuffle(shuffled)
        assert summarize_localization(shuffled) == baseline


def test_benchmark_mcc_magnitude():
    # spot-check mcc arithmetic against a direct integer computation
    cm = ConfusionMatrix(120, 6, 5, 129)
    expected = (120 * 129 - 5 * 6) / math.sqrt(125 * 126 * 134 * 135)
    assert derive_detection_stats(cm).mcc == pytest.approx(expected, abs=1e-15)


def _none_fields(figures) -> tuple[str, ...]:
    return tuple(f.name for f in fields(figures) if getattr(figures, f.name) is None)


@given(st.tuples(*(st.integers(0, 3) for _ in range(4))))
def test_undefined_names_exactly_the_statistics_with_a_zero_denominator_in_order(counts):
    tp, fn_, fp, tn = counts
    if tp + fn_ + fp + tn == 0:
        return
    stats = derive_detection_stats(ConfusionMatrix(*counts))
    # f1 needs a precision and a recall that are not both 0 or undefined: tp > 0
    denominators = {
        "recall": tp + fn_, "specificity": tn + fp, "precision": tp + fp, "npv": tn + fn_, "fpr": fp + tn,
        "fdr": fp + tp, "fnr": fn_ + tp, "accuracy": 1, "f1": tp, "mcc": (tp + fp) * (tp + fn_) * (tn + fp) * (tn + fn_),
    }
    expected = tuple(name for name in STAT_NAMES if denominators[name] == 0)
    assert stats.undefined == expected == _none_fields(stats)


@given(
    st.lists(
        st.tuples(st.just("s"), st.integers(0, 2), st.booleans(), st.floats(0, 1), st.floats(0, 1)),
        min_size=1,
        max_size=6,
    )
)
def test_summary_undefined_names_exactly_the_overlapping_aggregates_without_an_overlap(samples):
    summary = summarize_localization(samples)
    expected = () if any(ov for _, _, ov, _, _ in samples) else (
        "recall_mean_overlapping", "recall_std_overlapping", "iou_mean_overlapping"
    )
    assert summary.undefined == expected == _none_fields(summary)
