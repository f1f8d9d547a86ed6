from __future__ import annotations

import json
import math
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fovlink.experiments import RunResult
from fovlink.geometry import NormalizedBBox, canonicalize_bbox
from fovlink.parsing import (
    DetectionKind,
    FailureKind,
    ParsedDetection,
    ParseFailure,
    classify_failure,
    detect_bbox,
    detect_binary,
    format_bbox_template,
    parse_bbox_response,
    parse_binary_response,
)
from fovlink.report import result_to_record
from fovlink.shape import COMPACT_JSON

CORPUS_PATH = Path(__file__).parent / "data" / "parser_corpus.jsonl"


def load_corpus() -> list[dict]:
    lines = CORPUS_PATH.read_text(encoding="utf-8").splitlines()
    return [json.loads(line) for line in lines if line.strip()]


class TestParseBinaryResponse:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("Yes.", True),
            ("no", False),
            ("NO!!", False),
            ('"Yes"', True),
            ("yes, there is a person on the crosswalk", True),
            ("No - the street is empty.", False),
        ],
    )
    def test_verdicts(self, text, expected):
        assert parse_binary_response(text) is expected

    @pytest.mark.parametrize(
        "text",
        [
            "There appears to be a person in the image.",
            "",
            "Maybe",
            "Note: no",  # leading token must carry the verdict
            "1",
        ],
    )
    def test_failures_are_values(self, text):
        outcome = parse_binary_response(text)
        assert isinstance(outcome, ParseFailure)
        assert outcome.raw_text == text


class TestParserCorpus:
    def test_corpus_is_large_and_diverse(self):
        corpus = load_corpus()
        assert len(corpus) >= 50
        kinds = {e.get("failure_kind") for e in corpus if e["expect"] == "failure"}
        assert kinds == {k.value for k in FailureKind}
        assert sum(1 for e in corpus if e["expect"] == "box") >= 20

    @pytest.mark.parametrize("entry", load_corpus(), ids=lambda e: e["text"][:40] or "<empty>")
    def test_corpus_agreement(self, entry):
        outcome = parse_bbox_response(entry["text"])
        if entry["expect"] == "box":
            assert isinstance(outcome, NormalizedBBox), outcome
            assert outcome.as_list() == entry["box"]
            assert outcome.clamped == entry["clamped"]
        else:
            assert isinstance(outcome, FailureKind), outcome
            assert outcome.value == entry["failure_kind"]


class TestClassifyFailure:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("I cannot identify any pedestrian in this image.", FailureKind.NO_PEDESTRIAN_DETECTED),
            ("(0.45, 0.3", FailureKind.PARTIAL_COORDINATES),
            ("The person stands near the crosswalk in the middle.", FailureKind.AMBIGUOUS_DESCRIPTION),
        ],
    )
    def test_taxonomy_examples(self, text, expected):
        assert classify_failure(text) is expected

    def test_negation_beats_partial_coordinates(self):
        text = "I cannot identify a pedestrian, the area (0.2,0.3 is empty anyway."
        assert classify_failure(text) is FailureKind.NO_PEDESTRIAN_DETECTED

    @given(st.text(max_size=300))
    def test_total_and_deterministic(self, text):
        first = classify_failure(text)
        assert isinstance(first, FailureKind)
        assert classify_failure(text) is first


unit_floats = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
canonical_boxes = st.builds(
    canonicalize_bbox, st.tuples(unit_floats, unit_floats), st.tuples(unit_floats, unit_floats)
)


class TestRoundTrip:
    @given(canonical_boxes)
    def test_format_then_parse_is_identity(self, box):
        parsed = parse_bbox_response(format_bbox_template(box))
        assert isinstance(parsed, NormalizedBBox)
        assert parsed.as_list() == box.as_list()
        assert not parsed.clamped

    def test_template_output_shape(self):
        box = NormalizedBBox(0.25, 0.3, 0.5, 0.9)
        assert format_bbox_template(box) == "(0.25,0.3), (0.5,0.9)"


class TestDetectionEnvelopes:
    def test_detect_binary_verdict(self):
        detection = detect_binary("Yes.")
        assert detection.kind is DetectionKind.VERDICT
        assert detection.verdict is True
        assert not detection.coerced

    def test_detect_binary_coerces_unparseable_to_positive(self):
        detection = detect_binary("There appears to be a person near the curb.")
        assert detection.verdict is True
        assert detection.coerced

    def test_detect_bbox_located(self):
        detection = detect_bbox("(0.1,0.2), (0.3,0.4)")
        assert detection.kind is DetectionKind.LOCATED
        assert detection.box == NormalizedBBox(0.1, 0.2, 0.3, 0.4)

    def test_detect_bbox_failure(self):
        detection = detect_bbox("nothing useful here")
        assert detection.kind is DetectionKind.FAILURE
        assert detection.failure_kind is FailureKind.AMBIGUOUS_DESCRIPTION

    def test_envelope_field_discipline(self):
        with pytest.raises(ValueError):
            ParsedDetection(kind=DetectionKind.VERDICT, verdict=True, box=NormalizedBBox(0, 0, 1, 1))
        with pytest.raises(ValueError):
            ParsedDetection(kind=DetectionKind.FAILURE)


class TestBoxAndEnvelopeGolden:
    """Canonical boxes and envelope errors, pinned value for value and byte for byte."""

    @pytest.mark.parametrize(
        "reply, box, clamped, degenerate",
        [
            ("(-0.0,-0.0), (0.5,-0.0)", "[0.0,0.0,0.5,0.0]", "false", "true"),
            ("(0.6,-0.0), (-0.2,1.3)", "[0.0,0.0,0.6,1.0]", "true", "false"),
            ("(1.5,0.25), (-0.0,0.5)", "[0.0,0.25,1.0,0.5]", "true", "false"),
            ("(-0.0,0.4), (0.0,0.8)", "[0.0,0.4,0.0,0.8]", "false", "true"),
        ],
    )
    def test_negative_zero_and_out_of_range_corners(self, reply, box, clamped, degenerate):
        detection = detect_bbox(reply)
        corners = detection.box.as_list()
        assert json.dumps(corners, separators=(",", ":")) == box
        # 0.0, never -0.0
        assert [math.copysign(1.0, v) for v in corners] == [1.0] * 4
        assert json.dumps(detection.box.clamped) == clamped
        record = result_to_record(RunResult("s", "P1", 0, detection, 0.0, reply))
        assert COMPACT_JSON.encode(record) + "\n" == (
            '{"scene_id":"s","prompt_id":"P1","run_idx":0,"outcome":"located","verdict":null,'
            f'"label":null,"scene_lowlight":null,"box":{box},"box_clamped":{clamped},'
            f'"box_degenerate":{degenerate},"failure_kind":null,"coerced":false,"fault":null,'
            f'"latency":0.0,"raw_text":"{reply}","overlap":null,"recall":null,"iou":null}}\n'
        )

    @pytest.mark.parametrize(
        "kind, fields",
        [
            (DetectionKind.VERDICT, {}),
            (DetectionKind.VERDICT, {"verdict": True, "box": NormalizedBBox(0, 0, 1, 1)}),
            (DetectionKind.VERDICT, {"failure_kind": FailureKind.PARTIAL_COORDINATES}),
            (DetectionKind.LOCATED, {"verdict": False}),
            (
                DetectionKind.LOCATED,
                {"box": NormalizedBBox(0, 0, 1, 1), "failure_kind": FailureKind.PARTIAL_COORDINATES},
            ),
            (DetectionKind.FAILURE, {}),
            (DetectionKind.FAILURE, {"box": NormalizedBBox(0, 0, 1, 1)}),
        ],
    )
    def test_fields_that_disagree_with_the_kind_keep_the_error_text(self, kind, fields):
        with pytest.raises(ValueError) as caught:
            ParsedDetection(kind=kind, **fields)
        assert str(caught.value) == f"fields do not match kind {kind.value}"
