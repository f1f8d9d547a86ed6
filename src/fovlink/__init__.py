"""fovlink: cooperative perception through vehicle-to-vehicle LLM dialogues.

An ego vehicle complements its occluded field-of-view by querying remote
vehicles' onboard vision models over a small structured message format,
instead of streaming raw camera frames. The package also ships the full
evaluation harness that quantifies how well such a model detects and
localizes pedestrians: manifest-driven datasets, box geometry, the ten
classification statistics, prompt registry and reply parsers, three
experiment drivers with a deterministic mock backend, the dialogue
simulator with bandwidth accounting, and deterministic report emission.
"""

from .dataset import PixelBBox, SceneRecord, SceneSet, apply_curation_filter, load_manifest
from .errors import FovlinkError
from .gateway import Gateway, LiveBackend, MockBackend, QueryParams, RawResponse
from .geometry import NormalizedBBox, canonicalize_bbox, iou, normalize_bbox, overlap_recall, overlaps
from .parsing import (
    FailureKind,
    ParsedDetection,
    classify_failure,
    parse_bbox_response,
    parse_binary_response,
)
from .prompts import PROMPTS, PromptSpec, get_prompt
from .stats import (
    ConfusionMatrix,
    DetectionStats,
    LocalizationSummary,
    build_confusion_matrix,
    derive_detection_stats,
    summarize_localization,
)
from .v2v import LinkModel, V2VMessage, decode_message, encode_message, run_dialogue, transmission_time

__version__ = "0.1.0"

# each export is declared once, by its import above: every public name but the
# submodules those imports bind, each named "fovlink.<name>"
__all__ = [name for name, value in globals().items() if not name.startswith("_") and getattr(value, "__name__", None) != f"{__name__}.{name}"]
