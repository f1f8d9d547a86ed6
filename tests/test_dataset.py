from __future__ import annotations

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fovlink.dataset import (
    InvariantViolation,
    MissingFile,
    SceneSet,
    SchemaViolation,
    apply_curation_filter,
    load_manifest,
)

from conftest import scene_line, write_manifest


def test_full_scale_manifest_counts(tmp_path):
    records = [scene_line(f"pos_{i:03d}", positive=True) for i in range(126)]
    records += [scene_line(f"neg_{i:03d}", positive=False) for i in range(138)]
    path = write_manifest(tmp_path, records, create_images=False)
    scenes = load_manifest(path)
    assert (len(scenes.positives), len(scenes.negatives)) == (126, 138)


def test_empty_manifest(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("", encoding="utf-8")
    scenes = load_manifest(path)
    assert (len(scenes.positives), len(scenes.negatives)) == (0, 0)


def test_raw_unicode_line_separator_in_a_tag_loads(tmp_path):
    # json.dumps(ensure_ascii=False) writes U+2028 raw; lines end at "\n" only
    record = scene_line("pos_a", positive=True, tags=["dusk\u2028shade"])
    path = tmp_path / "manifest.jsonl"
    path.write_text(json.dumps(record, ensure_ascii=False) + "\n", encoding="utf-8")
    scenes = load_manifest(path)
    assert scenes.positives[0].tags == frozenset({"dusk\u2028shade"})


def test_missing_file(tmp_path):
    with pytest.raises(MissingFile):
        load_manifest(tmp_path / "nope.jsonl")


def test_positive_without_boxes_is_invariant_violation(tmp_path):
    records = [scene_line("bad", positive=True, boxes=[])]
    path = write_manifest(tmp_path, records, create_images=False)
    with pytest.raises(InvariantViolation) as exc:
        load_manifest(path)
    assert exc.value.scene_id == "bad"


def test_negative_with_boxes_is_invariant_violation(tmp_path):
    records = [scene_line("bad", positive=False, boxes=[[1.0, 1.0, 2.0, 2.0]])]
    path = write_manifest(tmp_path, records, create_images=False)
    with pytest.raises(InvariantViolation):
        load_manifest(path)


def test_unknown_key_rejected(tmp_path):
    record = scene_line("s1", positive=False)
    record["extra"] = 1
    path = write_manifest(tmp_path, [record], create_images=False)
    with pytest.raises(SchemaViolation) as exc:
        load_manifest(path)
    assert exc.value.field == "extra"


def test_missing_key_rejected(tmp_path):
    record = scene_line("s1", positive=False)
    del record["width"]
    path = write_manifest(tmp_path, [record], create_images=False)
    with pytest.raises(SchemaViolation) as exc:
        load_manifest(path)
    assert exc.value.field == "width"
    assert exc.value.line == 1


def test_all_violations_reported_before_abort(tmp_path):
    records = [
        scene_line("ok", positive=False),
        scene_line("bad_box", positive=True, boxes=[[5, 5, 5, 9]]),
        scene_line("bad_schema", positive=False),
        scene_line("no_boxes", positive=True, boxes=[]),
    ]
    records[2]["width"] = "wide"
    path = write_manifest(tmp_path, records, create_images=False)
    with pytest.raises(SchemaViolation) as exc:
        load_manifest(path)
    report = exc.value.all_violations
    assert len(report) == 3
    assert any("bad_box" in entry for entry in report)
    assert any("width" in entry for entry in report)
    assert any("no_boxes" in entry for entry in report)


def test_duplicate_scene_id_is_hard_error(tmp_path):
    records = [scene_line("dup", positive=False), scene_line("dup", positive=True)]
    path = write_manifest(tmp_path, records, create_images=False)
    with pytest.raises(InvariantViolation) as exc:
        load_manifest(path)
    assert "duplicate" in exc.value.reason


def test_box_outside_image_rejected(tmp_path):
    records = [scene_line("s1", positive=True, width=100, height=100, boxes=[[0, 0, 200, 50]])]
    path = write_manifest(tmp_path, records, create_images=False)
    with pytest.raises(InvariantViolation):
        load_manifest(path)


def test_order_preserved_and_paths_resolved(tmp_path):
    records = [
        scene_line("b", positive=False),
        scene_line("a", positive=False),
        scene_line("z", positive=True),
    ]
    path = write_manifest(tmp_path, records, create_images=False)
    scenes = load_manifest(path)
    assert [r.scene_id for r in scenes.negatives] == ["b", "a"]
    assert scenes.by_id["z"].image_path == tmp_path / "images/z.jpg"


class TestCurationFilter:
    def test_single_pedestrian_crosswalk_rule(self, tmp_path):
        both = ["single_pedestrian", "crosswalk_center"]
        records = [
            scene_line("p0", positive=True, tags=both),
            scene_line("p1", positive=True, tags=["single_pedestrian"]),
            scene_line("p2", positive=True, tags=both),
            scene_line("p3", positive=True, tags=[]),
            scene_line("p4", positive=True, tags=both + ["dusk"]),
            scene_line("p5", positive=True, tags=["crosswalk_center"]),
            scene_line("p6", positive=True, tags=both),
            scene_line(
                "p7",
                positive=True,
                tags=both,
                boxes=[[0.0, 0.0, 10.0, 10.0], [20.0, 20.0, 30.0, 30.0]],
            ),
            scene_line("p8", positive=True, tags=["night"]),
            scene_line("p9", positive=True, tags=["sunset"]),
            scene_line("n0", positive=False, tags=["night"]),
        ]
        scenes = load_manifest(write_manifest(tmp_path, records, create_images=False))
        # 5 positives carry both tags (p0,p2,p4,p6,p7); p7 has two boxes
        filtered = apply_curation_filter(scenes, {"single_pedestrian", "crosswalk_center"}, 1)
        assert [r.scene_id for r in filtered.positives] == ["p0", "p2", "p4", "p6"]
        assert filtered.negatives == scenes.negatives

    def test_identity_filter(self, small_manifest):
        scenes = load_manifest(small_manifest)
        assert apply_curation_filter(scenes) == scenes

    def test_idempotent(self, small_manifest):
        scenes = load_manifest(small_manifest)
        once = apply_curation_filter(scenes, {"single_pedestrian"}, 1)
        twice = apply_curation_filter(once, {"single_pedestrian"}, 1)
        assert once == twice

    def test_may_empty_positives(self, small_manifest):
        scenes = load_manifest(small_manifest)
        filtered = apply_curation_filter(scenes, {"no_such_tag"})
        assert filtered.positives == ()
        assert filtered.negatives == scenes.negatives


def test_load_is_deterministic(tmp_path):
    records = [scene_line(f"s{i}", positive=i % 2 == 0) for i in range(8)]
    path_a = write_manifest(tmp_path, records, create_images=False, name="a.jsonl")
    path_b = write_manifest(tmp_path, records, create_images=False, name="b.jsonl")
    assert path_a.read_bytes() == path_b.read_bytes()
    first = load_manifest(path_a)
    second = load_manifest(path_a)
    third_other_file = load_manifest(path_b)
    for other in (second, third_other_file):
        assert [r.scene_id for r in first] == [r.scene_id for r in other]
        assert all(
            a.gt_boxes == b.gt_boxes and a.tags == b.tags for a, b in zip(first, other)
        )


_tag_pool = ["dusk", "sunset", "shade", "solar_glare", "night", "single_pedestrian"]

_record_strategy = st.builds(
    lambda idx, positive, n_boxes, tags: scene_line(
        f"scene_{idx:04d}",
        positive=positive,
        boxes=[[10.0 * i, 10.0, 10.0 * i + 5.0, 20.0] for i in range(n_boxes)] if positive else [],
        tags=tags,
    ),
    idx=st.integers(0, 9999),
    positive=st.booleans(),
    n_boxes=st.integers(1, 3),
    tags=st.lists(st.sampled_from(_tag_pool), max_size=3),
)


@given(st.lists(_record_strategy, max_size=12, unique_by=lambda r: r["scene_id"]))
def test_loaded_records_satisfy_invariants(tmp_path_factory, records):
    tmp_path = tmp_path_factory.mktemp("manifests")
    path = write_manifest(tmp_path, records, create_images=False)
    scenes = load_manifest(path)
    assert len(scenes) == len(records)
    for record in scenes:
        assert record.invariant_violation() is None
        assert record.has_pedestrian == bool(record.gt_boxes)
    filtered = apply_curation_filter(scenes, frozenset(), None)
    assert filtered == scenes
