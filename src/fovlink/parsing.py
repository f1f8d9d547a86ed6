"""Parsers that turn free-text model replies into structured detections.

Extraction is deliberately tolerant: models often wrap coordinates in
prose, and a strict whole-string match would misclassify recoverable
answers as failures. Replies that still cannot be scored are sorted into
the three-way failure taxonomy:

    A  NoPedestrianDetected  - the reply denies a person is present
    B  PartialCoordinates    - numeric pairs present but incomplete
    C  AmbiguousDescription  - anything else (free-text descriptions)
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

from .geometry import NormalizedBBox, canonicalize_bbox

_EXCERPT_LEN = 200

_NUMBER = r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
_PAIR_RE = re.compile(rf"\(\s*({_NUMBER})\s*,\s*({_NUMBER})\s*\)")
# an opening paren followed by at least one number, possibly cut off mid-pair
_TRUNCATED_PAIR_RE = re.compile(rf"\(\s*{_NUMBER}(?:\s*,\s*(?:{_NUMBER})?)?")

# Fixed negation vocabulary for failure category A. Matched case-insensitively
# against the whole reply.
NEGATION_PATTERNS = (
    "no pedestrian",
    "no person",
    "no people",
    "no human",
    "cannot identify",
    "can't identify",
    "cannot detect",
    "cannot see",
    "can't see",
    "unable to identify",
    "unable to detect",
    "unable to locate",
    "not visible",
    "no visible pedestrian",
    "there is nobody",
    "no one is",
)


class FailureKind(str, Enum):
    NO_PEDESTRIAN_DETECTED = "NoPedestrianDetected"
    PARTIAL_COORDINATES = "PartialCoordinates"
    AMBIGUOUS_DESCRIPTION = "AmbiguousDescription"


class DetectionKind(str, Enum):
    VERDICT = "verdict"
    LOCATED = "located"
    FAILURE = "failure"


@dataclass(frozen=True, slots=True)
class ParseFailure:
    """A reply that did not contain a recognizable yes/no verdict."""

    raw_text: str


@dataclass(frozen=True, slots=True)
class ParsedDetection:
    """Uniform envelope for one parsed reply.

    Exactly one of verdict/box/failure_kind is populated, matching
    ``kind``. ``coerced`` marks binary verdicts that were forced to
    positive because the reply was unparseable (safety-first counting).
    """

    kind: DetectionKind
    verdict: bool | None = None
    box: NormalizedBBox | None = None
    failure_kind: FailureKind | None = None
    raw_excerpt: str = ""
    coerced: bool = False

    def __post_init__(self) -> None:
        populated = (self.verdict is not None) + (self.box is not None) + (self.failure_kind is not None)
        if populated != 1 or getattr(self, KIND_FIELD[self.kind]) is None:
            raise ValueError(f"fields do not match kind {self.kind.value}")


# kind -> the one field a detection of that kind populates
KIND_FIELD = {
    DetectionKind.VERDICT: "verdict",
    DetectionKind.LOCATED: "box",
    DetectionKind.FAILURE: "failure_kind",
}


def excerpt(text: str) -> str:
    """The head of a reply that a detection keeps for auditing."""
    return text[:_EXCERPT_LEN]


def parse_binary_response(text: str) -> bool | ParseFailure:
    """Read a yes/no verdict from the first alphabetic token of the reply.

    Case and surrounding punctuation are ignored; trailing explanation
    never flips the verdict. Anything whose first token is not yes/no is
    a ParseFailure value (never an exception).
    """
    match = re.search(r"[A-Za-z]+", text)
    if match is None:
        return ParseFailure(raw_text=text)
    token = match.group(0).lower()
    if token == "yes":
        return True
    if token == "no":
        return False
    return ParseFailure(raw_text=text)


def classify_failure(text: str) -> FailureKind:
    """Sort a reply that failed coordinate extraction into the taxonomy.

    Precedence: negation about persons/pedestrians (a reply opening with
    a plain "no" counts), then presence of a complete or truncated
    numeric pair, then ambiguous description. Total and deterministic
    over all strings.
    """
    lowered = text.lower()
    if any(pattern in lowered for pattern in NEGATION_PATTERNS):
        return FailureKind.NO_PEDESTRIAN_DETECTED
    if parse_binary_response(text) is False:
        return FailureKind.NO_PEDESTRIAN_DETECTED
    if _PAIR_RE.search(text) or _TRUNCATED_PAIR_RE.search(text):
        return FailureKind.PARTIAL_COORDINATES
    return FailureKind.AMBIGUOUS_DESCRIPTION


def parse_bbox_response(text: str) -> NormalizedBBox | FailureKind:
    """Extract a box from the first two parenthesized numeric pairs.

    Pairs may appear anywhere in the reply; whitespace and leading-dot
    decimals are tolerated. The two corners are canonicalized (reordered
    and clamped to the unit square). With fewer than two complete pairs
    the reply is classified into the failure taxonomy instead.
    """
    pairs = _PAIR_RE.findall(text)
    if len(pairs) >= 2:
        (ax, ay), (bx, by) = pairs[0], pairs[1]
        return canonicalize_bbox((float(ax), float(ay)), (float(bx), float(by)))
    return classify_failure(text)


def format_bbox_template(box: NormalizedBBox) -> str:
    """Render a box in the reply template, the inverse of parse_bbox_response."""
    return f"({box.x!r},{box.y!r}), ({box.x2!r},{box.y2!r})"


def detect_binary(text: str) -> ParsedDetection:
    """parse_binary_response wrapped in a ParsedDetection.

    Unparseable replies become a positive verdict with ``coerced`` set:
    in this application a missed pedestrian is the costly error, and the
    flag keeps re-scoring possible.
    """
    verdict = parse_binary_response(text)
    if isinstance(verdict, ParseFailure):
        return ParsedDetection(
            kind=DetectionKind.VERDICT,
            verdict=True,
            raw_excerpt=excerpt(text),
            coerced=True,
        )
    return ParsedDetection(
        kind=DetectionKind.VERDICT, verdict=verdict, raw_excerpt=excerpt(text)
    )


def detect_bbox(text: str) -> ParsedDetection:
    """parse_bbox_response wrapped in a ParsedDetection."""
    outcome = parse_bbox_response(text)
    if isinstance(outcome, FailureKind):
        return ParsedDetection(
            kind=DetectionKind.FAILURE, failure_kind=outcome, raw_excerpt=excerpt(text)
        )
    return ParsedDetection(
        kind=DetectionKind.LOCATED, box=outcome, raw_excerpt=excerpt(text)
    )
