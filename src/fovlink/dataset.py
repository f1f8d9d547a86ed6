"""Scene manifest loading, validation and curation filtering.

Ground truth arrives as a line-delimited UTF-8 manifest, one JSON object
of ``MANIFEST_SHAPE`` per line. Relative image paths are resolved
against the manifest's directory. Loading checks the manifest only; a
scene's frame file is first opened by ``Frame``, when a run reaches it.

Curation tags are free-form strings; the vocabulary used by the bundled
fixtures and the low-light analysis is:

    dusk, sunset, shade, solar_glare, night,
    single_pedestrian, crosswalk_center
"""

from __future__ import annotations

import errno
import json
import os
import stat
from base64 import b64encode
from dataclasses import dataclass, field
from pathlib import Path

from .errors import FovlinkError
from .shape import NON_EMPTY_TEXT, TEXT, Fields, ListOf, Rule, describe, file_lines, fits_float, load_json, problems

# a run divides box coordinates by the image size as floats, so each must fit one
_SIZE = Rule("must be an integer that fits a float", lambda v: type(v) is int and fits_float(v))
_BOX = Rule(
    "must be four numbers that fit a float", lambda v: type(v) is list and len(v) == 4 and all(map(fits_float, v))
)
_NONBLOCK = getattr(os, "O_NONBLOCK", 0)  # for Frame: opening a FIFO without it waits for a writer; not on Windows

# one manifest line (docs/schemas.md)
MANIFEST_SHAPE = Fields(
    {
        "scene_id": NON_EMPTY_TEXT,
        "image_path": NON_EMPTY_TEXT,
        "width": _SIZE,
        "height": _SIZE,
        "has_pedestrian": (bool,),
        "gt_boxes": ListOf(_BOX),
        "tags": ListOf(TEXT),
    }
)


class ManifestError(FovlinkError):
    """Base class for manifest loading failures."""


class MissingFile(ManifestError):
    """Manifest file does not exist."""


class EmptyFrame(ManifestError):
    """A scene's frame file holds no bytes."""


class SchemaViolation(ManifestError):
    """A manifest line does not conform to the schema."""

    def __init__(self, line: int, fld: str, reason: str) -> None:
        super().__init__(f"line {line}: {describe(fld, reason)}")
        self.line = line
        self.field = fld
        self.all_violations: list[str] = [str(self)]


class InvariantViolation(ManifestError):
    """A structurally valid record breaks a domain invariant."""

    def __init__(self, scene_id: str, reason: str) -> None:
        super().__init__(f"scene {scene_id!r}: {reason}")
        self.scene_id = scene_id
        self.reason = reason
        self.all_violations: list[str] = [str(self)]


@dataclass(frozen=True, slots=True)
class PixelBBox:
    """Axis-aligned pixel box with strictly positive area."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def validate(self, width: float, height: float) -> str | None:
        """Return a violation description, or None when the box is valid."""
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            return f"box {self.as_list()} has non-positive area"
        if self.x_min < 0 or self.y_min < 0 or self.x_max > width or self.y_max > height:
            return f"box {self.as_list()} outside image bounds {width}x{height}"
        return None

    def as_list(self) -> list[float]:
        return [self.x_min, self.y_min, self.x_max, self.y_max]


@dataclass(frozen=True, slots=True)
class SceneRecord:
    """One camera frame with its ground-truth annotations and lighting tags."""

    scene_id: str
    image_path: Path
    width: int
    height: int
    has_pedestrian: bool
    gt_boxes: tuple[PixelBBox, ...]
    tags: frozenset[str]

    def invariant_violation(self) -> str | None:
        if self.width <= 0 or self.height <= 0:
            return f"non-positive image dimensions {self.width}x{self.height}"
        if self.has_pedestrian != bool(self.gt_boxes):
            return (
                "has_pedestrian must match presence of gt_boxes "
                f"(has_pedestrian={self.has_pedestrian}, {len(self.gt_boxes)} boxes)"
            )
        for box in self.gt_boxes:
            reason = box.validate(self.width, self.height)
            if reason is not None:
                return reason
        return None


class Frame:
    """One scene's camera frame: opened once for its size, encoded at most once.

    Opening raises what a read would for a missing or unreadable file (the
    same ``OSError``), ``ManifestError`` for a FIFO or other special file
    and ``EmptyFrame`` for a file with no bytes, without reading it, so a
    backend that never looks at the pixels costs no read.
    Every backend gets the ``Frame``. ``read`` returns the file's bytes and
    keeps nothing; ``base64`` reads the file once, on its first use, and
    keeps only the encoding, so every query about the frame, and every
    retry of one, sends the same encoded bytes.
    """

    __slots__ = ("path", "size", "_base64")

    def __init__(self, scene: SceneRecord) -> None:
        fd = os.open(scene.image_path, os.O_RDONLY | _NONBLOCK)
        try:
            info = os.fstat(fd)
        finally:
            os.close(fd)
        if stat.S_ISDIR(info.st_mode):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(scene.image_path))
        if not stat.S_ISREG(info.st_mode):
            raise ManifestError(f"scene {scene.scene_id!r}: frame {scene.image_path} is not a regular file")
        if info.st_size == 0:
            raise EmptyFrame(f"scene {scene.scene_id!r}: frame {scene.image_path} is empty")
        self.path = scene.image_path
        self.size = info.st_size
        self._base64: bytes | None = None

    def read(self) -> bytes:
        """The frame's bytes, read from the file on each call."""
        return self.path.read_bytes()

    @property
    def base64(self) -> bytes:
        """The frame's base64 encoding, made from one read on the first use."""
        if self._base64 is None:
            self._base64 = b64encode(self.read())
        return self._base64


@dataclass(frozen=True)
class SceneSet:
    """Positives and negatives (control group), immutable after loading."""

    positives: tuple[SceneRecord, ...]
    negatives: tuple[SceneRecord, ...]
    by_id: dict[str, SceneRecord] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        index: dict[str, SceneRecord] = {}
        for record in (*self.positives, *self.negatives):
            if record.scene_id in index:
                raise InvariantViolation(record.scene_id, "duplicate scene_id")
            index[record.scene_id] = record
        object.__setattr__(self, "by_id", index)

    def __len__(self) -> int:
        return len(self.positives) + len(self.negatives)

    def __iter__(self):
        yield from self.positives
        yield from self.negatives

    def labels(self) -> list[tuple[str, bool]]:
        """(scene_id, has_pedestrian) pairs in manifest order."""
        return [(r.scene_id, r.has_pedestrian) for r in self]


def load_manifest(path: str | Path) -> SceneSet:
    """Load and validate a scene manifest, one line at a time (``file_lines``).

    Scans the whole file and reports every schema and invariant violation
    found before aborting; the raised exception carries the full report in
    ``all_violations``. Record order within positives/negatives follows
    the file.
    """
    path = Path(path)
    if not path.is_file():
        raise MissingFile(f"manifest not found: {path}")

    schema: list[SchemaViolation] = []
    invariant: list[InvariantViolation] = []
    positives: list[SceneRecord] = []
    negatives: list[SceneRecord] = []
    seen: set[str] = set()

    manifest_dir = path.parent
    try:
        for line_no, line in file_lines(path):
            try:
                raw = load_json(line)
            except json.JSONDecodeError as e:
                schema.append(SchemaViolation(line_no, "", f"invalid JSON ({e.msg})"))
                continue
            found = problems(raw, MANIFEST_SHAPE)
            if found:
                schema += [SchemaViolation(line_no, fld, reason) for fld, reason in found]
                continue
            record = SceneRecord(
                scene_id=raw["scene_id"],
                # an absolute image path replaces the directory in the join
                image_path=manifest_dir / raw["image_path"],
                width=raw["width"],
                height=raw["height"],
                has_pedestrian=raw["has_pedestrian"],
                gt_boxes=tuple(PixelBBox(*(float(v) for v in box)) for box in raw["gt_boxes"]),
                tags=frozenset(raw["tags"]),
            )
            reason = record.invariant_violation()
            if reason is None and record.scene_id in seen:
                reason = "duplicate scene_id"
            if reason is not None:
                invariant.append(InvariantViolation(record.scene_id, reason))
                continue
            seen.add(record.scene_id)
            (positives if record.has_pedestrian else negatives).append(record)
    except UnicodeDecodeError as e:
        raise ManifestError(f"manifest {path} is not UTF-8: {e}") from e

    violations = schema + invariant
    if violations:
        violations[0].all_violations = [str(v) for v in violations]
        raise violations[0]
    return SceneSet(positives=tuple(positives), negatives=tuple(negatives))


def apply_curation_filter(
    scene_set: SceneSet,
    required_tags: frozenset[str] | set[str] = frozenset(),
    max_boxes: int | None = None,
) -> SceneSet:
    """Keep only positives carrying all ``required_tags`` with at most ``max_boxes`` boxes.

    Mechanizes the dataset curation rule (single pedestrian on a central
    crosswalk). Negatives pass through untouched; relative order is
    preserved and the filter is idempotent.
    """
    required = frozenset(required_tags)
    kept = tuple(
        r
        for r in scene_set.positives
        if required <= r.tags and (max_boxes is None or len(r.gt_boxes) <= max_boxes)
    )
    return SceneSet(positives=kept, negatives=scene_set.negatives)
