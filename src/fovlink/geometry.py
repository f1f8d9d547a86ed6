"""Bounding-box normalization and localization measures.

Boxes live in a unit reference system: (0,0) is the top-left corner of the
image and (1,1) the bottom-right. Three measures compare a generated box
against the ground truth: whether they overlap at all, which fraction of
the ground-truth area is covered (overlap recall), and intersection over
union. IoU penalizes oversized generations that would trivially reach
full recall.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import FovlinkError


class DimensionMismatch(FovlinkError):
    """Pixel box does not fit inside the stated image dimensions."""


class NonFiniteInput(FovlinkError):
    """Corner coordinates contain NaN or infinity."""


class DegenerateGroundTruth(FovlinkError):
    """Ground-truth box has zero area, overlap recall is undefined."""


class BothDegenerate(FovlinkError):
    """Both boxes have zero area, IoU is undefined."""


@dataclass(frozen=True, slots=True)
class NormalizedBBox:
    """Axis-aligned box in the unit square, canonical corner order.

    ``clamped`` records that canonicalization had to pull coordinates back
    into [0,1]; it preserves auditability of out-of-frame generations.
    """

    x: float
    y: float
    x2: float
    y2: float
    clamped: bool = False

    def __post_init__(self) -> None:
        for v in (self.x, self.y, self.x2, self.y2):
            if not math.isfinite(v):
                raise NonFiniteInput(f"non-finite coordinate: {v!r}")
            if v < 0.0 or v > 1.0:
                raise ValueError(f"coordinate outside [0,1]: {v!r}")
        if self.x > self.x2 or self.y > self.y2:
            raise ValueError(
                f"corners not canonical: ({self.x},{self.y})-({self.x2},{self.y2})"
            )

    @property
    def area(self) -> float:
        return (self.x2 - self.x) * (self.y2 - self.y)

    @property
    def degenerate(self) -> bool:
        """True when the box has zero area (a valid but useless output)."""
        return self.area == 0.0

    def as_list(self) -> list[float]:
        return [self.x, self.y, self.x2, self.y2]


def normalize_bbox(box, width: float, height: float) -> NormalizedBBox:
    """Map a pixel-space box into the unit reference system.

    ``box`` is anything with x_min/y_min/x_max/y_max attributes (a
    ``dataset.PixelBBox``). Raises DimensionMismatch when the box exceeds
    the image bounds.
    """
    if width <= 0 or height <= 0:
        raise DimensionMismatch(f"image dimensions must be positive: {width}x{height}")
    if box.x_min < 0 or box.y_min < 0 or box.x_max > width or box.y_max > height:
        raise DimensionMismatch(
            f"box ({box.x_min},{box.y_min},{box.x_max},{box.y_max}) "
            f"exceeds image bounds {width}x{height}"
        )
    return NormalizedBBox(
        x=box.x_min / width,
        y=box.y_min / height,
        x2=box.x_max / width,
        y2=box.y_max / height,
    )


def canonicalize_bbox(
    corner_a: tuple[float, float], corner_b: tuple[float, float]
) -> NormalizedBBox:
    """Reorder two arbitrary corners to (min,min)-(max,max) and clamp to [0,1].

    Model replies may order corners arbitrarily and may run out of frame;
    clamping is recorded on the result instead of rejecting the box.
    Zero-area boxes are accepted (``degenerate`` property flags them).
    """
    ax, ay = corner_a
    bx, by = corner_b
    for v in (ax, ay, bx, by):
        if not math.isfinite(v):
            raise NonFiniteInput(f"non-finite coordinate: {v!r}")
    x, x2 = (ax, bx) if ax <= bx else (bx, ax)
    y, y2 = (ay, by) if ay <= by else (by, ay)
    clamped = x < 0.0 or y < 0.0 or x2 > 1.0 or y2 > 1.0
    # every corner goes through max(0.0, ...), which also turns -0.0 into 0.0
    return NormalizedBBox(
        min(1.0, max(0.0, x)),
        min(1.0, max(0.0, y)),
        min(1.0, max(0.0, x2)),
        min(1.0, max(0.0, y2)),
        clamped=clamped,
    )


def intersection_area(a: NormalizedBBox, b: NormalizedBBox) -> float:
    ix = min(a.x2, b.x2) - max(a.x, b.x)
    iy = min(a.y2, b.y2) - max(a.y, b.y)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    return ix * iy


def overlap_recall(gt: NormalizedBBox, gen: NormalizedBBox) -> float:
    """Fraction of the ground-truth box covered by the generated one."""
    gt_area = gt.area
    if gt_area == 0.0:
        raise DegenerateGroundTruth("ground-truth box has zero area")
    return intersection_area(gt, gen) / gt_area


def iou(gt: NormalizedBBox, gen: NormalizedBBox) -> float:
    """Intersection area over union area of the two boxes."""
    inter = intersection_area(gt, gen)
    # the max() only absorbs float dust: the true union is never smaller
    # than either box, and keeping that exact preserves iou <= recall
    gt_area, gen_area = gt.area, gen.area
    union = max(gt_area, gen_area, gt_area + gen_area - inter)
    if union == 0.0:
        raise BothDegenerate("both boxes have zero area")
    return inter / union


def overlaps(gt: NormalizedBBox, gen: NormalizedBBox) -> bool:
    """True iff the boxes share strictly positive area (edge contact is not overlap)."""
    return intersection_area(gt, gen) > 0.0
