"""Confusion-matrix statistics and localization aggregates.

Percentage-style statistics are stored as fractions; rendering to the
two-decimal percentages used in reports happens only at emission time to
avoid cumulative rounding drift. Standard deviations are population
standard deviations (the convention is pinned here so expected values are
unambiguous).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import FovlinkError


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


class _Figures:
    """Base of a dataclass of figures, each field one figure; None marks one that is undefined."""

    __slots__ = ()

    @property
    def undefined(self) -> tuple[str, ...]:
        """The names of the fields that are None, in field order."""
        return tuple(f.name for f in fields(self) if getattr(self, f.name) is None)


@dataclass(frozen=True, slots=True)
class DetectionStats(_Figures):
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

    def require(self, name: str) -> float:
        """Value of ``name``, raising UndefinedStatistic when it has none."""
        if name not in STAT_NAMES:
            raise KeyError(name)
        value = getattr(self, name)
        if value is None:
            raise UndefinedStatistic(name)
        return value


STAT_NAMES = tuple(f.name for f in fields(DetectionStats))


@dataclass(frozen=True, slots=True)
class LocalizationSummary(_Figures):
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

    return DetectionStats(recall, specificity, precision, npv, fpr, fdr, fnr, accuracy, f1, mcc)


# None over no values: the overlapping-only aggregates of samples none of which overlaps
def _pop_mean(xs: list[float]) -> float | None:
    return math.fsum(xs) / len(xs) if xs else None


def _pop_std(xs: list[float]) -> float | None:
    mean = _pop_mean(xs)
    return None if mean is None else math.sqrt(math.fsum((x - mean) ** 2 for x in xs) / len(xs))


def summarize_localization(
    samples: list[tuple[str, int, bool, float, float]],
) -> LocalizationSummary:
    """Aggregate (scene_id, run_idx, overlap, recall, iou) samples.

    Sums use math.fsum, so the result is invariant under permutation of
    the sample list.
    """
    if not samples:
        raise EmptySampleSet("no localization samples to summarize")
    recall_overlapping = [r for _, _, ov, r, _ in samples if ov]
    recall_all = [r if ov else 0.0 for _, _, ov, r, _ in samples]
    return LocalizationSummary(
        union_rate=len(recall_overlapping) / len(samples),
        recall_mean_overlapping=_pop_mean(recall_overlapping),
        recall_std_overlapping=_pop_std(recall_overlapping),
        recall_mean_all=_pop_mean(recall_all),
        recall_std_all=_pop_std(recall_all),
        iou_mean_overlapping=_pop_mean([i for _, _, ov, _, i in samples if ov]),
        n_tests=len(samples),
        n_overlapping=len(recall_overlapping),
    )
