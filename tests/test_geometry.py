from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fovlink.dataset import PixelBBox
from fovlink.geometry import (
    BothDegenerate,
    DegenerateGroundTruth,
    DimensionMismatch,
    NonFiniteInput,
    NormalizedBBox,
    canonicalize_bbox,
    intersection_area,
    iou,
    normalize_bbox,
    overlap_recall,
    overlaps,
)

unit_floats = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
corners = st.tuples(unit_floats, unit_floats)
boxes = st.builds(canonicalize_bbox, corners, corners)


def grid_intersection_cells(a: NormalizedBBox, b: NormalizedBBox, n: int = 1000) -> int:
    """Independent rasterization oracle: count grid-cell centers inside both boxes."""
    centers = (np.arange(n) + 0.5) / n
    ax = (centers >= a.x) & (centers <= a.x2)
    ay = (centers >= a.y) & (centers <= a.y2)
    bx = (centers >= b.x) & (centers <= b.x2)
    by = (centers >= b.y) & (centers <= b.y2)
    return int(np.count_nonzero(ax & bx)) * int(np.count_nonzero(ay & by))


class TestNormalizeBBox:
    def test_full_frame_identity(self):
        box = normalize_bbox(PixelBBox(0, 0, 1920, 1280), 1920, 1280)
        assert box == NormalizedBBox(0.0, 0.0, 1.0, 1.0)

    def test_exact_division(self):
        box = normalize_bbox(PixelBBox(480, 320, 960, 640), 1920, 1280)
        assert box == NormalizedBBox(0.25, 0.25, 0.5, 0.5)

    def test_exact_division_rectangular(self):
        box = normalize_bbox(PixelBBox(100, 200, 300, 500), 1000, 1000)
        assert box == NormalizedBBox(0.1, 0.2, 0.3, 0.5)

    def test_out_of_bounds_rejected(self):
        with pytest.raises(DimensionMismatch):
            normalize_bbox(PixelBBox(0, 0, 2000, 100), 1920, 1280)

    def test_zero_width_image_rejected(self):
        with pytest.raises(DimensionMismatch, match="image dimensions must be positive: 0x1280"):
            normalize_bbox(PixelBBox(0, 0, 0, 100), 0, 1280)


def test_a_box_with_its_corners_swapped_is_rejected():
    with pytest.raises(ValueError, match=r"corners not canonical: \(0.5,0\)-\(0.4,1\)"):
        NormalizedBBox(0.5, 0, 0.4, 1)


class TestCanonicalizeBBox:
    def test_corner_swap(self):
        box = canonicalize_bbox((0.6, 0.8), (0.2, 0.3))
        assert box == NormalizedBBox(0.2, 0.3, 0.6, 0.8)
        assert not box.clamped

    def test_clamp_to_unit_square(self):
        box = canonicalize_bbox((-0.1, 0.5), (0.4, 1.2))
        assert (box.x, box.y, box.x2, box.y2) == (0.0, 0.5, 0.4, 1.0)
        assert box.clamped

    def test_degenerate_accepted_and_flagged(self):
        box = canonicalize_bbox((0.3, 0.3), (0.3, 0.3))
        assert box.degenerate
        assert box.area == 0.0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(NonFiniteInput):
            canonicalize_bbox((bad, 0.5), (0.4, 0.6))

    @given(corners, corners)
    def test_idempotent(self, a, b):
        once = canonicalize_bbox(a, b)
        twice = canonicalize_bbox((once.x, once.y), (once.x2, once.y2))
        assert (twice.x, twice.y, twice.x2, twice.y2) == (once.x, once.y, once.x2, once.y2)
        assert not twice.clamped


class TestOverlapRecall:
    def test_identical_boxes(self):
        box = NormalizedBBox(0.1, 0.1, 0.5, 0.5)
        assert overlap_recall(box, box) == 1.0

    def test_partial_overlap_matches_grid_oracle(self):
        # expected value computed with the 1000x1000 rasterization oracle
        gt = NormalizedBBox(0.4, 0.4, 0.6, 0.8)
        gen = NormalizedBBox(0.5, 0.5, 0.7, 0.9)
        assert overlap_recall(gt, gen) == pytest.approx(0.375, abs=1e-12)

    def test_disjoint(self):
        gt = NormalizedBBox(0.0, 0.0, 0.1, 0.1)
        gen = NormalizedBBox(0.5, 0.5, 0.6, 0.6)
        assert overlap_recall(gt, gen) == 0.0

    def test_degenerate_ground_truth(self):
        with pytest.raises(DegenerateGroundTruth):
            overlap_recall(NormalizedBBox(0.2, 0.2, 0.2, 0.2), NormalizedBBox(0, 0, 1, 1))

    def test_zero_area_generation_scores_zero(self):
        gt = NormalizedBBox(0.0, 0.0, 1.0, 1.0)
        gen = NormalizedBBox(0.3, 0.3, 0.3, 0.5)
        assert overlap_recall(gt, gen) == 0.0
        assert iou(gt, gen) == 0.0
        assert not overlaps(gt, gen)


class TestIoU:
    def test_identical_boxes(self):
        box = NormalizedBBox(0.25, 0.1, 0.7, 0.9)
        assert iou(box, box) == 1.0

    def test_partial_overlap_matches_grid_oracle(self):
        gt = NormalizedBBox(0.4, 0.4, 0.6, 0.8)
        gen = NormalizedBBox(0.5, 0.5, 0.7, 0.9)
        assert iou(gt, gen) == pytest.approx(0.03 / 0.13, abs=1e-12)

    def test_disjoint(self):
        assert iou(NormalizedBBox(0, 0, 0.2, 0.2), NormalizedBBox(0.8, 0.8, 1, 1)) == 0.0

    def test_both_degenerate(self):
        with pytest.raises(BothDegenerate):
            iou(NormalizedBBox(0.1, 0.1, 0.1, 0.1), NormalizedBBox(0.2, 0.2, 0.2, 0.2))


class TestOverlaps:
    def test_edge_contact_is_not_overlap(self):
        assert not overlaps(NormalizedBBox(0, 0, 0.5, 1), NormalizedBBox(0.5, 0, 1, 1))

    def test_nested_boxes(self):
        assert overlaps(NormalizedBBox(0, 0, 1, 1), NormalizedBBox(0.4, 0.4, 0.6, 0.6))

    def test_partial_overlap_pair(self):
        assert overlaps(NormalizedBBox(0.4, 0.4, 0.6, 0.8), NormalizedBBox(0.5, 0.5, 0.7, 0.9))


class TestProperties:
    @given(boxes, boxes)
    def test_iou_symmetry(self, a, b):
        if a.area == 0.0 and b.area == 0.0:
            return
        assert iou(a, b) == iou(b, a)

    @given(boxes, boxes)
    def test_iou_bounded_by_recall(self, gt, gen):
        if gt.area == 0.0:
            return
        assert iou(gt, gen) <= overlap_recall(gt, gen)

    @given(boxes, boxes)
    def test_overlaps_iff_positive_recall(self, gt, gen):
        if gt.area == 0.0:
            return
        assert overlaps(gt, gen) == (overlap_recall(gt, gen) > 0.0)

    @given(boxes, boxes)
    def test_analytic_intersection_matches_grid(self, a, b):
        analytic = intersection_area(a, b)
        rasterized = grid_intersection_cells(a, b) / 1_000_000
        assert abs(analytic - rasterized) <= 2e-3
