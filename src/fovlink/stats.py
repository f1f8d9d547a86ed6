"""Confusion-matrix statistics and localization aggregates.

Percentage-style statistics are stored as fractions; rendering to the
two-decimal percentages used in reports happens only at emission time to
avoid cumulative rounding drift. Standard deviations are population
standard deviations (the convention is pinned here so expected values are
unambiguous).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import FovlinkError

STAT_NAMES = (
    "recall",
    "specificity",
    "precision",
    "npv",
    "fpr",
    "fdr",
    "fnr",
    "accuracy",
    "f1",
    "mcc",
)


class StatsError(FovlinkError):
    """Base class for statistics errors."""


class UnknownSceneId(StatsError):
    """A prediction references a scene_id absent from the labels."""


class DuplicatePrediction(StatsError):
    """The same scene_id was predicted more than once."""


class DuplicateLabel(StatsError):
    """The same scene_id appears more than once in the labels."""


class EmptyConfusionMatrix(StatsError):
    """Statistics requested on an all-zero matrix."""


class UndefinedStatistic(StatsError):
    """A statistic with a zero denominator was accessed strictly."""

    def __init__(self, name: str) -> None:
        super().__init__(f"statistic {name!r} is undefined (zero denominator)")
        self.name = name


class EmptySampleSet(StatsError):
    """Localization summary requested over zero samples."""


@dataclass(frozen=True, slots=True)
class ConfusionMatrix:
    tp: int
    fn_: int
    fp: int
    tn: int

    def __post_init__(self) -> None:
        for v in (self.tp, self.fn_, self.fp, self.tn):
            if v < 0:
                raise ValueError(f"negative count in confusion matrix: {v}")

    @property
    def total(self) -> int:
        return self.tp + self.fn_ + self.fp + self.tn


@dataclass(frozen=True, slots=True)
class DetectionStats:
    """The ten classification statistics; None marks an undefined value.

    ``undefined`` lists the names whose denominator was zero. Undefined
    statistics are never coerced to 0, a 0 would be indistinguishable from
    a real score.
    """

    recall: float | None
    specificity: float | None
    precision: float | None
    npv: float | None
    fpr: float | None
    fdr: float | None
    fnr: float | None
    accuracy: float | None
    f1: float | None
    mcc: float | None
    undefined: tuple[str, ...] = ()

    def require(self, name: str) -> float:
        """Value of ``name``, raising UndefinedStatistic when it has none."""
        if name not in STAT_NAMES:
            raise KeyError(name)
        value = getattr(self, name)
        if value is None:
            raise UndefinedStatistic(name)
        return value


@dataclass(frozen=True, slots=True)
class LocalizationSummary:
    """Aggregates over localization samples.

    Overlapping-only aggregates are None (and listed in ``undefined``)
    when no sample overlaps; all-samples aggregates score non-overlapping
    samples as recall 0.
    """

    union_rate: float
    recall_mean_overlapping: float | None
    recall_std_overlapping: float | None
    recall_mean_all: float
    recall_std_all: float
    iou_mean_overlapping: float | None
    n_tests: int
    n_overlapping: int
    undefined: tuple[str, ...] = ()


def build_confusion_matrix(
    predictions: list[tuple[str, bool]], labels: list[tuple[str, bool]]
) -> ConfusionMatrix:
    """Join predictions to labels by scene_id and count the four outcomes.

    Labels without a prediction are not counted, so scenes dropped by
    upstream faults stay visible as a column-sum shortfall instead of
    being silently reconciled.
    """
    truth: dict[str, bool] = {}
    for scene_id, label in labels:
        if scene_id in truth:
            raise DuplicateLabel(f"scene_id {scene_id!r} labelled twice")
        truth[scene_id] = label

    seen: set[str] = set()
    tp = fn_ = fp = tn = 0
    for scene_id, predicted in predictions:
        if scene_id not in truth:
            raise UnknownSceneId(f"prediction for unknown scene_id {scene_id!r}")
        if scene_id in seen:
            raise DuplicatePrediction(f"scene_id {scene_id!r} predicted twice")
        seen.add(scene_id)
        actual = truth[scene_id]
        if actual and predicted:
            tp += 1
        elif actual and not predicted:
            fn_ += 1
        elif not actual and predicted:
            fp += 1
        else:
            tn += 1
    return ConfusionMatrix(tp=tp, fn_=fn_, fp=fp, tn=tn)


def _ratio(num: float, den: float) -> float | None:
    return num / den if den else None


def derive_detection_stats(cm: ConfusionMatrix) -> DetectionStats:
    """Derive the ten statistics; zero-denominator entries come back as None."""
    if cm.total == 0:
        raise EmptyConfusionMatrix("all four counts are zero")
    tp, fn_, fp, tn = cm.tp, cm.fn_, cm.fp, cm.tn

    recall = _ratio(tp, tp + fn_)
    specificity = _ratio(tn, tn + fp)
    precision = _ratio(tp, tp + fp)
    npv = _ratio(tn, tn + fn_)
    fpr = _ratio(fp, fp + tn)
    fdr = _ratio(fp, fp + tp)
    fnr = _ratio(fn_, fn_ + tp)
    accuracy = (tp + tn) / cm.total
    if precision is None or recall is None or precision + recall == 0:
        f1 = None
    else:
        f1 = 2 * precision * recall / (precision + recall)
    mcc_den = (tp + fp) * (tp + fn_) * (tn + fp) * (tn + fn_)
    mcc = (tp * tn - fp * fn_) / math.sqrt(mcc_den) if mcc_den else None

    values = {
        "recall": recall,
        "specificity": specificity,
        "precision": precision,
        "npv": npv,
        "fpr": fpr,
        "fdr": fdr,
        "fnr": fnr,
        "accuracy": accuracy,
        "f1": f1,
        "mcc": mcc,
    }
    undefined = tuple(name for name in STAT_NAMES if values[name] is None)
    return DetectionStats(**values, undefined=undefined)


def _pop_mean(xs: list[float]) -> float:
    return math.fsum(xs) / len(xs)


def _pop_std(xs: list[float]) -> float:
    mean = _pop_mean(xs)
    return math.sqrt(math.fsum((x - mean) ** 2 for x in xs) / len(xs))


def summarize_localization(
    samples: list[tuple[str, int, bool, float, float]],
) -> LocalizationSummary:
    """Aggregate (scene_id, run_idx, overlap, recall, iou) samples.

    Sums use math.fsum, so the result is invariant under permutation of
    the sample list.
    """
    if not samples:
        raise EmptySampleSet("no localization samples to summarize")
    overlapping = [(r, i) for _, _, ov, r, i in samples if ov]
    recall_all = [r if ov else 0.0 for _, _, ov, r, _ in samples]

    if overlapping:
        rec = [r for r, _ in overlapping]
        ious = [i for _, i in overlapping]
        mean_ov: float | None = _pop_mean(rec)
        std_ov: float | None = _pop_std(rec)
        iou_ov: float | None = _pop_mean(ious)
        undefined: tuple[str, ...] = ()
    else:
        mean_ov = std_ov = iou_ov = None
        undefined = (
            "recall_mean_overlapping",
            "recall_std_overlapping",
            "iou_mean_overlapping",
        )

    return LocalizationSummary(
        union_rate=len(overlapping) / len(samples),
        recall_mean_overlapping=mean_ov,
        recall_std_overlapping=std_ov,
        recall_mean_all=_pop_mean(recall_all),
        recall_std_all=_pop_std(recall_all),
        iou_mean_overlapping=iou_ov,
        n_tests=len(samples),
        n_overlapping=len(overlapping),
        undefined=undefined,
    )
