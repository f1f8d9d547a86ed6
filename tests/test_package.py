"""The package namespace: each export is named once, by its import in ``fovlink/__init__.py``."""

from __future__ import annotations

import types

import fovlink

EXPORTS = {
    "FovlinkError",
    "PixelBBox",
    "SceneRecord",
    "SceneSet",
    "load_manifest",
    "apply_curation_filter",
    "NormalizedBBox",
    "normalize_bbox",
    "canonicalize_bbox",
    "overlap_recall",
    "iou",
    "overlaps",
    "ConfusionMatrix",
    "DetectionStats",
    "LocalizationSummary",
    "build_confusion_matrix",
    "derive_detection_stats",
    "summarize_localization",
    "Gateway",
    "MockBackend",
    "LiveBackend",
    "QueryParams",
    "RawResponse",
    "PROMPTS",
    "PromptSpec",
    "get_prompt",
    "FailureKind",
    "ParsedDetection",
    "parse_binary_response",
    "parse_bbox_response",
    "classify_failure",
    "LinkModel",
    "V2VMessage",
    "encode_message",
    "decode_message",
    "transmission_time",
    "run_dialogue",
}


def test_all_names_each_export_once_and_no_submodule():
    assert len(fovlink.__all__) == len(EXPORTS)
    assert set(fovlink.__all__) == EXPORTS
    assert not [name for name in fovlink.__all__ if isinstance(getattr(fovlink, name), types.ModuleType)]


def test_a_star_import_binds_exactly_the_exports():
    namespace: dict = {}
    exec("from fovlink import *", namespace)
    assert set(namespace) - {"__builtins__"} == EXPORTS
