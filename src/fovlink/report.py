"""Report emission: CSV tables, line-delimited records and SVG charts.

Rendering is deterministic: fixed row ordering, fixed float formatting
(percentages at two decimals, seconds at six), canonical JSON records.
Re-emitting the same inputs yields byte-identical files, which golden
tests rely on. SVG charts are generated directly so the artifact needs
no plotting dependency.

Each CSV header row starts with a versioned schema tag naming the label
column; the column set behind a tag is closed, any added column bumps
the version. Exact field names are documented in docs/schemas.md.

Every render returns the lines of its file, without their newlines, and
``_write`` ends them: ``_BATCH`` lines go in each write to a sibling
``.part`` file that replaces the previous file only once its last line is
written. A records file is never held whole in memory, on the way out or
on the way back in. CSV cells that hold a comma, a quote or a line break
are quoted (RFC 4180), and chart labels are XML-escaped.

Re-rendering reads each records file line by line, checks each result
record on its own (``record_to_result``) and then each records file as a
whole (``_checked_rows``). One re-render holds every record of a file at
once, and the records repeat their scene and prompt ids, so it keeps one
``str`` per distinct id, shared by every records file it reads, for as
long as it runs. ``statistics`` is imported by the box-plot
quartiles and ``logging`` by the empty-bundle warning, so a process that
needs neither loads neither.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import dataclass, fields
from itertools import islice
from pathlib import Path
from typing import Callable, Iterable, Iterator

from .errors import FovlinkError
from .experiments import (
    BinaryExperimentResult,
    ConsistencyRecord,
    InsufficientRuns,
    LocalizationExperimentResult,
    LocalizationSample,
    PromptComparison,
    RunResult,
    analyze_run_consistency,
    binary_result,
    failure_lowlight_share,
    localization_result,
)
from .geometry import NonFiniteInput, NormalizedBBox
from .parsing import KIND_FIELD, DetectionKind, FailureKind, ParsedDetection, excerpt
from .stats import STAT_NAMES, LocalizationSummary
# bench/spans.py traces the statistics under these names
from .stats import (  # noqa: F401
    build_confusion_matrix,
    derive_detection_stats,
    summarize_localization,
)
from .shape import COMPACT_JSON, FLOAT, FOUR_NUMBERS, NON_NEGATIVE_INT, NULL, NUMBER, Fields, Nullable, Rule, describe, file_lines, fits_float, load_json, problems, utf8_encodable
from .v2v import DialogueTranscript, LinkModel, V2VMessage, decode_message, encode_message

RENDER_TARGETS = ("csv", "records", "svg")

# outcome -> the field a record of it is rebuilt from; of these fields, a
# record sets exactly its outcome's
_OUTCOME_NEEDS = {"fault": "fault", **{kind.value: name for kind, name in KIND_FIELD.items()}}
# recall and IoU are shares of an area
_SHARE = Nullable(Rule("must be a number from 0 to 1", lambda v: type(v) in NUMBER and 0 <= v <= 1))

# one result record (docs/schemas.md), fields in emission order
_RECORD_SHAPE = Fields(
    {
        "scene_id": (str,),
        "prompt_id": (str,),
        "run_idx": NON_NEGATIVE_INT,
        "outcome": frozenset(_OUTCOME_NEEDS),
        "verdict": (bool, NULL),
        "label": (bool, NULL),
        "scene_lowlight": (bool, NULL),
        "box": Nullable(FOUR_NUMBERS),
        "box_clamped": (bool, NULL),
        "box_degenerate": (bool, NULL),
        "failure_kind": Nullable(frozenset(kind.value for kind in FailureKind)),
        "coerced": (bool,),
        "fault": (str, NULL),
        "latency": NUMBER,
        "raw_text": (str,),
        "overlap": (bool, NULL),
        "recall": _SHARE,
        "iou": _SHARE,
    },
    others=True,
)

RESULT_RECORD_FIELDS = tuple(_RECORD_SHAPE.fields)
# the ids that repeat from record to record, kept once per re-render
_SHARED_IDS = ("scene_id", "prompt_id")
# the record's strings, which the report writes back as UTF-8
_TEXT_FIELDS = tuple(name for name, shape in _RECORD_SHAPE.fields.items() if type(shape) is tuple and str in shape)

# v2v_link.json, the link next to a stored transcript; the transmission
# times divide its figures as floats, so each must fit one
_BYTES = Rule("must be a non-negative integer that fits a float", lambda v: type(v) is int and v >= 0 and fits_float(v))
_LINK_SHAPE = Fields({"rate_bps": FLOAT, "overhead": FLOAT, "stream_bytes": _BYTES})

# the files that rerender reads back
_BINARY_RECORDS = "binary_results.jsonl"
_TRANSCRIPT_FILE = "v2v_transcript.jsonl"
_LINK_FILE = "v2v_link.json"
# (summary CSV, records file) of a localization run (exp2) and of a prompt
# comparison (exp3); only exp2 adds failures.csv
_LOCALIZATION_FILES = ("localization_summary.csv", "localization_results.jsonl")
_COMPARISON_FILES = ("prompt_comparison.csv", "comparison_results.jsonl")

# lines per write of a report file: large enough that each write is cheap,
# small enough that no records file is held whole
_BATCH = 256

# (render target, file name, render: the file's lines, without newlines) of one output file
_Output = tuple[str, str, Callable[[], Iterable[str]]]
# (result, sample, label, scene_lowlight) of one decoded result record
_Row = tuple[RunResult, LocalizationSample | None, bool | None, bool | None]


class ReportError(FovlinkError):
    """Report inputs are missing or malformed."""


@dataclass(frozen=True)
class ReportBundle:
    """Everything emit_report knows how to render; unset parts are skipped.

    ``labels`` and ``lowlight`` map scene_id to its ground-truth label and
    low-light tagging so emitted records stay self-contained for
    re-rendering without the manifest.
    """

    binary: BinaryExperimentResult | None = None
    localization: LocalizationExperimentResult | None = None
    comparison: PromptComparison | None = None
    consistency: list[ConsistencyRecord] | None = None
    transcript: DialogueTranscript | None = None
    labels: dict[str, bool] | None = None
    lowlight: dict[str, bool] | None = None
    lowlight_share: float | None = None


def _pct(value: float | None) -> str:
    return "" if value is None else f"{value * 100:.2f}"


def normalize_targets(targets) -> set[str]:
    aliases = {"structured-records": "records"}
    resolved = {aliases.get(t, t) for t in targets}
    unknown = resolved - set(RENDER_TARGETS)
    if unknown:
        raise ReportError(f"unknown render targets: {sorted(unknown)}")
    return resolved


def result_to_record(
    result: RunResult,
    sample: LocalizationSample | None = None,
    label: bool | None = None,
    scene_lowlight: bool | None = None,
) -> dict:
    """Flat mapping mirroring one RunResult plus its computed metrics."""
    detection = result.detection
    box = detection.box if detection is not None else None
    return {
        "scene_id": result.scene_id,
        "prompt_id": result.prompt_id,
        "run_idx": result.run_idx,
        "outcome": result.outcome,
        "verdict": None if detection is None else detection.verdict,
        "label": label,
        "scene_lowlight": scene_lowlight,
        "box": None if box is None else box.as_list(),
        "box_clamped": None if box is None else box.clamped,
        "box_degenerate": None if box is None else box.degenerate,
        "failure_kind": (
            None
            if detection is None or detection.failure_kind is None
            else detection.failure_kind.value
        ),
        "coerced": False if detection is None else detection.coerced,
        "fault": result.fault,
        "latency": result.latency,
        "raw_text": result.raw_text,
        "overlap": None if sample is None else sample.overlap,
        "recall": None if sample is None else sample.recall,
        "iou": None if sample is None else sample.iou,
    }


def record_to_result(record) -> tuple[RunResult, LocalizationSample | None]:
    """Check ``record`` against docs/schemas.md and decode it; result_to_record must give the record back."""
    found = problems(record, _RECORD_SHAPE)
    if found:
        raise ReportError(describe(*found[0]))
    for name in _TEXT_FIELDS:
        if record[name] is not None and not utf8_encodable(record[name]):
            raise ReportError(describe(name, "holds a lone surrogate"))
    outcome = record["outcome"]
    needed = _OUTCOME_NEEDS[outcome]
    if record[needed] is None:
        raise ReportError(f"{outcome} record has no {needed}")
    for name in _OUTCOME_NEEDS.values():
        if name != needed and record[name] is not None:
            raise ReportError(f"malformed result record: fields do not match kind {outcome}: it has a {name}")
    box, failure_kind, overlap = record["box"], record["failure_kind"], record["overlap"]
    if (record["recall"] is None) is not (overlap is None) or (record["iou"] is None) is not (overlap is None):
        raise ReportError("malformed result record: overlap, recall and iou must be all set or all null")
    failure_kind = None if failure_kind is None else FailureKind(failure_kind)
    try:
        # a null box_clamped beside a box decodes as false and so fails the round trip
        box = None if box is None else NormalizedBBox(*box, clamped=bool(record["box_clamped"]))
    except (ValueError, OverflowError, NonFiniteInput) as e:
        raise ReportError(f"malformed result record: {e}") from e
    detection = None if outcome == "fault" else ParsedDetection(
        kind=DetectionKind(outcome), verdict=record["verdict"], box=box, failure_kind=failure_kind,
        raw_excerpt=excerpt(record["raw_text"]), coerced=record["coerced"],
    )
    result = RunResult(
        scene_id=record["scene_id"], prompt_id=record["prompt_id"], run_idx=record["run_idx"], detection=detection,
        latency=record["latency"], raw_text=record["raw_text"], fault=record["fault"],
    )
    sample = None if overlap is None else LocalizationSample(
        scene_id=result.scene_id, run_idx=result.run_idx, overlap=overlap, recall=record["recall"],
        iou=record["iou"], failure_kind=failure_kind,
    )
    rebuilt = result_to_record(result, sample, record["label"], record["scene_lowlight"])
    if rebuilt != record:  # other keys aside; identity first, as dict equality does, so a NaN latency round-trips
        name = next((n for n, value in rebuilt.items() if value is not record[n] and value != record[n]), None)
        if name is not None:
            written, derived = COMPACT_JSON.encode(record[name]), COMPACT_JSON.encode(rebuilt[name])
            raise ReportError(f"malformed result record: field {name!r} is {written}, the other fields give {derived}")
    return result, sample


def _cell(text: str) -> str:
    """``text`` as one CSV cell: quoted, inner quotes doubled, if it holds a comma, a quote or a line break."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _stats_csv(binary: BinaryExperimentResult) -> list[str]:
    header = "detection_stats_v1,tp,fn,fp,tn," + ",".join(f"{n}_pct" for n in STAT_NAMES)
    rows = [header]
    for run_idx, (m, s) in enumerate(zip(binary.per_run_matrices, binary.per_run_stats)):
        cells = [f"run_{run_idx}", str(m.tp), str(m.fn_), str(m.fp), str(m.tn)]
        cells += [_pct(getattr(s, n)) for n in STAT_NAMES]
        rows.append(",".join(cells))
    return rows


# LocalizationSummary fields of localization_summary.csv: the counts, then
# the shares, each in a column named after it plus "_pct"
_SUMMARY_COUNTS = ("n_tests", "n_overlapping")
_SUMMARY_SHARES = tuple(f.name for f in fields(LocalizationSummary) if f.name not in _SUMMARY_COUNTS)


def _summary_csv(rows: list[tuple[str, LocalizationSummary]]) -> list[str]:
    lines = [",".join(["localization_summary_v1", *_SUMMARY_COUNTS, *(f"{n}_pct" for n in _SUMMARY_SHARES)])]
    for label, s in rows:
        counts = (str(getattr(s, n)) for n in _SUMMARY_COUNTS)
        lines.append(",".join([_cell(label), *counts, *(_pct(getattr(s, n)) for n in _SUMMARY_SHARES)]))
    return lines


def _failures_csv(samples: tuple[LocalizationSample, ...], lowlight_share: float | None) -> list[str]:
    counts = Counter(sample.failure_kind for sample in samples)
    lines = ["failure_taxonomy_v1,value", *(f"{kind.value},{counts[kind]}" for kind in FailureKind)]
    lines.append(f"lowlight_failure_share_pct,{_pct(lowlight_share)}")
    return lines


def _consistency_csv(records: list[ConsistencyRecord]) -> list[str]:
    lines = ["consistency_v1,prompt_id,n_runs,kinds,min_pairwise_iou,flagged"]
    for r in records:
        min_iou = "" if r.min_pairwise_iou is None else f"{r.min_pairwise_iou:.4f}"
        ids = f"{_cell(r.scene_id)},{_cell(r.prompt_id)}"
        lines.append(f"{ids},{r.n_runs},{'|'.join(r.kinds)},{min_iou},{str(r.flagged).lower()}")
    return lines


def _transport_csv(transcript: DialogueTranscript) -> list[str]:
    ratio = "" if transcript.ratio is None else f"{transcript.ratio:.6f}"
    return [
        "v2v_comparison_v1,value",
        f"n_messages,{len(transcript.messages)}",
        f"dialogue_bytes,{transcript.dialogue_bytes}",
        f"dialogue_time_s,{transcript.dialogue_time:.6f}",
        f"stream_bytes,{transcript.stream_bytes}",
        f"stream_time_s,{transcript.stream_time:.6f}",
        f"ratio,{ratio}",
    ]


def _five_numbers(values: list[float]) -> tuple[float, float, float, float, float]:
    ordered = sorted(values)
    if len(ordered) == 1:
        v = ordered[0]
        return v, v, v, v, v
    from statistics import quantiles

    q1, median, q3 = quantiles(ordered, n=4, method="inclusive")
    return ordered[0], q1, median, q3, ordered[-1]


_CHART_WIDTH, _CHART_HEIGHT = 480, 320


def _chart(parts: list[str]) -> list[str]:
    """SVG lines of ``parts`` on the white canvas that every chart shares."""
    size = f'width="{_CHART_WIDTH}" height="{_CHART_HEIGHT}"'
    frame = [f'<svg xmlns="http://www.w3.org/2000/svg" {size}>', f'<rect x="0" y="0" {size} fill="white"/>']
    return [*frame, *parts, "</svg>"]


# the charts' labels and lines; coordinates come formatted, as an int or a
# float at two decimals
def _text(x: int | str, y: int | str, size: int, text: str, anchor: str = "middle") -> str:
    escaped = text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return f'<text x="{x}" y="{y}" text-anchor="{anchor}" font-size="{size}" font-family="sans-serif">{escaped}</text>'


def _line(x1: int | str, y1: str, x2: int | str, y2: str, stroke: str, width: int = 1) -> str:
    return f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="{stroke}" stroke-width="{width}"/>'


def _recall_boxplot_svg(groups: list[tuple[str, list[float]]]) -> list[str]:
    """Box plot of per-sample recall, one box per prompt."""
    width, height = _CHART_WIDTH, _CHART_HEIGHT
    left, right, top, bottom = 60, 20, 20, 40
    plot_w, plot_h = width - left - right, height - top - bottom

    def y_of(v: float) -> float:
        return top + (1.0 - v) * plot_h

    parts = []
    for tick in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = y_of(tick)
        parts.append(_line(left, f"{y:.2f}", width - right, f"{y:.2f}", "#dddddd"))
        parts.append(_text(left - 8, f"{y + 4:.2f}", 11, f"{tick * 100:.0f}%", anchor="end"))
    slot = plot_w / max(1, len(groups))
    for i, (label, values) in enumerate(groups):
        cx = left + slot * (i + 0.5)
        if values:
            lo, q1, med, q3, hi = _five_numbers(values)
            half = min(30.0, slot * 0.25)
            parts.append(_line(f"{cx:.2f}", f"{y_of(lo):.2f}", f"{cx:.2f}", f"{y_of(hi):.2f}", "#333333"))
            parts.append(
                f'<rect x="{cx - half:.2f}" y="{y_of(q3):.2f}" width="{2 * half:.2f}" '
                f'height="{max(0.0, y_of(q1) - y_of(q3)):.2f}" fill="#7aa6d2" stroke="#333333"/>'
            )
            y_med = f"{y_of(med):.2f}"
            parts.append(_line(f"{cx - half:.2f}", y_med, f"{cx + half:.2f}", y_med, "#00254d", width=2))
        parts.append(_text(f"{cx:.2f}", height - bottom + 18, 12, label))
    return _chart(parts)


def _iou_share_svg(ious: list[float]) -> list[str]:
    """Share of overlapping samples per IoU decile bucket."""
    buckets = [0] * 10
    for v in ious:
        buckets[min(9, int(v * 10))] += 1
    total = len(ious)
    width, height = _CHART_WIDTH, _CHART_HEIGHT
    left, right, top, bottom = 60, 20, 20, 50
    plot_w, plot_h = width - left - right, height - top - bottom
    max_share = max((c / total for c in buckets), default=0.0) or 1.0

    parts = []
    slot = plot_w / 10
    for i, count in enumerate(buckets):
        share = count / total if total else 0.0
        bar_h = (share / max_share) * plot_h
        x = left + i * slot
        parts.append(
            f'<rect x="{x + 2:.2f}" y="{top + plot_h - bar_h:.2f}" width="{slot - 4:.2f}" '
            f'height="{bar_h:.2f}" fill="#d2937a" stroke="#333333"/>'
        )
        parts.append(_text(f"{x + slot / 2:.2f}", f"{top + plot_h - bar_h - 4:.2f}", 10, f"{share * 100:.2f}%"))
        parts.append(_text(f"{x + slot / 2:.2f}", height - bottom + 16, 9, f"{i / 10:.1f}-{(i + 1) / 10:.1f}"))
    parts.append(_text(f"{left + plot_w / 2:.2f}", height - 8, 11, "IoU bucket (overlapping tests)"))
    return _chart(parts)


def _records(
    results: tuple[RunResult, ...],
    bundle: ReportBundle,
    samples: tuple[LocalizationSample, ...] = (),
) -> Iterator[dict]:
    sample_by_key = {(s.scene_id, s.run_idx): s for s in samples}
    labels, lowlight = bundle.labels or {}, bundle.lowlight or {}
    for r in results:
        yield result_to_record(
            r,
            sample_by_key.get((r.scene_id, r.run_idx)),
            labels.get(r.scene_id),
            lowlight.get(r.scene_id),
        )


def _localization_outputs(
    comparison: PromptComparison, files: tuple[str, str], bundle: ReportBundle
) -> list[_Output]:
    """Summary CSV, records and charts of localization runs, one per prompt, which must be named once."""
    named = Counter(comparison.prompt_ids)
    if len(named) < len(comparison.prompt_ids):
        raise ReportError(f"the prompt comparison names prompt {named.most_common(1)[0][0]} twice")
    summary_name, records_name = files
    runs = [comparison.runs[pid] for pid in comparison.prompt_ids]
    groups = [(pid, [s.recall for s in run.samples]) for pid, run in zip(comparison.prompt_ids, runs)]
    overlapping = [s.iou for run in runs for s in run.samples if s.overlap]
    outputs: list[_Output] = [
        ("csv", summary_name, lambda: _summary_csv(comparison.summary_table())),
        (
            "records",
            records_name,
            lambda: map(COMPACT_JSON.encode, (r for run in runs for r in _records(run.results, bundle, run.samples))),
        ),
    ]
    if any(values for _, values in groups):
        outputs.append(("svg", "recall_distribution.svg", lambda: _recall_boxplot_svg(groups)))
    if overlapping:
        outputs.append(("svg", "iou_shares.svg", lambda: _iou_share_svg(overlapping)))
    return outputs


def _outputs(bundle: ReportBundle) -> list[_Output]:
    """Every file that the present parts of ``bundle`` render to."""
    outputs: list[_Output] = []
    binary, loc, transcript = bundle.binary, bundle.localization, bundle.transcript
    if binary is not None:
        outputs += [
            ("csv", "detection_stats.csv", lambda: _stats_csv(binary)),
            ("records", _BINARY_RECORDS, lambda: map(COMPACT_JSON.encode, _records(binary.results, bundle))),
        ]
    if loc is not None:
        # exp2 is a prompt comparison over its one prompt
        prompt_id = loc.results[0].prompt_id if loc.results else "P?"
        single = PromptComparison(prompt_ids=(prompt_id,), runs={prompt_id: loc})
        outputs += _localization_outputs(single, _LOCALIZATION_FILES, bundle)
        outputs.append(("csv", "failures.csv", lambda: _failures_csv(loc.samples, bundle.lowlight_share)))
    if bundle.comparison is not None:
        outputs += _localization_outputs(bundle.comparison, _COMPARISON_FILES, bundle)
    if bundle.consistency is not None:
        outputs.append(("csv", "consistency.csv", lambda: _consistency_csv(bundle.consistency)))
    if transcript is not None:
        link, messages = transcript.link, transcript.messages
        meta = {"rate_bps": link.rate, "overhead": link.overhead, "stream_bytes": transcript.stream_bytes}
        outputs += [
            ("records", _TRANSCRIPT_FILE, lambda: (encode_message(m).decode() for m in messages)),
            ("records", _LINK_FILE, lambda: [COMPACT_JSON.encode(meta)]),
            ("csv", "v2v_comparison.csv", lambda: _transport_csv(transcript)),
        ]
    return outputs


def _write(path: Path, lines: Iterable[str]) -> None:
    """Write ``lines`` to ``path`` through a sibling temporary, each ended by a newline and ``_BATCH`` to a write."""
    part, lines = path.with_name(f".{path.name}.part"), iter(lines)
    try:
        with open(part, "w", encoding="utf-8", newline="") as f:
            while batch := list(islice(lines, _BATCH)):
                f.write("".join(line + "\n" for line in batch))
        os.replace(part, path)
    except BaseException:
        part.unlink(missing_ok=True)
        raise


def emit_report(bundle: ReportBundle, targets, out_dir: str | Path) -> list[Path]:
    """Render every present bundle component to the requested targets.

    Returns the written paths (sorted); empty parts give header-only CSVs
    and no chart, and parts that would write one file twice, or a
    comparison that names a prompt twice, write nothing.
    Each file is replaced whole (``_write``).
    """
    resolved = normalize_targets(targets)
    outputs = _outputs(bundle)
    names = Counter(name for _, name, _ in outputs)
    if len(names) < len(outputs):
        raise ReportError(f"two parts of the report would write {names.most_common(1)[0][0]}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for target, name, render in outputs:
        if target in resolved:
            path = out / name
            _write(path, render())
            written.append(path)
    if not written:
        import logging

        logging.getLogger(__name__).warning("emit_report: empty bundle, nothing rendered")
    return sorted(written)


def _read_lines(path: Path, decode: Callable[[str], object]) -> list:
    """``decode`` of each non-blank line of ``path`` (``file_lines``); a decode error names the file and line."""
    decoded = []
    try:
        for line_no, line in file_lines(path):
            try:
                decoded.append(decode(line))
            except FovlinkError as e:
                raise ReportError(f"{path.name} line {line_no}: {e}") from e
    except UnicodeDecodeError as e:
        raise ReportError(f"{path.name} is not UTF-8: {e}") from e
    return decoded


def _decode_record(line: str, shared: dict[str, str]) -> _Row:
    """One records line as its row, its scene and prompt ids replaced by the equal ``str`` in ``shared`` or entered there."""
    try:
        record = load_json(line)
    except json.JSONDecodeError as e:
        raise ReportError(f"invalid JSON ({e.msg})") from e
    if type(record) is dict:
        for name in _SHARED_IDS:
            value = record.get(name)
            if type(value) is str:
                record[name] = shared.setdefault(value, value)
    return (*record_to_result(record), record["label"], record["scene_lowlight"])


def _decode_wire(line: str) -> tuple[V2VMessage, int]:
    """One transcript line as its message and its size on the wire; the line must be its canonical encoding."""
    data = line.encode("utf-8")
    message = decode_message(data)
    try:
        canonical = encode_message(message)
    except UnicodeEncodeError as e:
        raise ReportError("a string holds a lone surrogate") from e
    if canonical != data:
        raise ReportError("not the canonical encoding of its message")
    return message, len(data)


def _checked_rows(rows: list[_Row], part: str, name: str, facts: dict[str, tuple]) -> list[_Row]:
    """``rows`` in experiment order, once the file breaks no rule that no single record shows.

    The file must not be empty, repeat a (scene, prompt, run) or number a
    prompt's runs other than 0..n-1, and only a comparison holds more than
    one prompt. A binary record has no sample; a localization or comparison
    record has one exactly when it is scored (located or failure), and a
    failure scores false, 0 and 0. Every record of a scene, in this file and
    in those read before it (``facts``, extended here), has the same
    (label, scene_lowlight).
    """
    if not rows:
        raise ReportError(f"no {part} result records in {name}")
    by_key: dict[tuple[str, str, int], _Row] = {}
    runs: dict[str, set[int]] = {}
    for row in rows:
        result, sample, label, lowlight = row
        key = scene_id, prompt_id, run_idx = result.scene_id, result.prompt_id, result.run_idx
        if key in by_key:
            raise ReportError(f"{name}: prompt {prompt_id} has two records of scene {scene_id!r} run {run_idx}")
        by_key[key] = row
        runs.setdefault(prompt_id, set()).add(run_idx)
        known = facts.setdefault(scene_id, (label, lowlight))
        if known != (label, lowlight):
            field = "label" if known[0] is not label else "scene_lowlight"
            raise ReportError(f"{name}: the records of scene {scene_id!r} disagree on {field}")
        if part == "binary":
            if sample is not None:
                raise ReportError(f"{name}: scene {scene_id!r} has overlap, recall and iou")
            continue
        kind = result.outcome
        if (sample is None) is (kind in ("located", "failure")):
            problem = f"{'without' if sample is None else 'with'} overlap, recall and iou"
        elif kind == "failure" and (sample.overlap, sample.recall, sample.iou) != (False, 0, 0):
            problem = "whose overlap, recall and iou are not false, 0 and 0"
        else:
            continue
        where = f"scene {scene_id!r} run {run_idx}"
        raise ReportError(f"{name}: prompt {prompt_id} has a {kind} record of {where} {problem}")
    if part != "comparison" and len(runs) > 1:
        raise ReportError(f"{name}: records of more than one prompt: {', '.join(sorted(runs))}")
    for prompt_id, found in sorted(runs.items()):
        if len(found) != max(found) + 1:
            missing = next(run for run in range(len(found)) if run not in found)
            raise ReportError(f"{name}: prompt {prompt_id} has run_idx {max(found)} but no run {missing}")
    return [by_key[key] for key in sorted(by_key)]


def rebuild_binary(rows: list[_Row]) -> BinaryExperimentResult:
    """Reconstruct a binary experiment from the checked rows of its records, which must be labelled."""
    results = tuple(row[0] for row in rows)
    labels = list({result.scene_id: label for result, _, label, _ in rows}.items())
    unlabelled = next((scene_id for scene_id, label in labels if label is None), None)
    if unlabelled is not None:
        raise ReportError(f"{_BINARY_RECORDS}: scene {unlabelled!r} has no label")
    return binary_result(results, labels, max(r.run_idx for r in results) + 1)


def rebuild_localization(rows: list[_Row]) -> LocalizationExperimentResult:
    """Reconstruct a localization experiment from the checked rows of its records."""
    return localization_result(tuple(row[0] for row in rows), tuple(row[1] for row in rows if row[1] is not None))


def rebuild_comparison(rows: list[_Row]) -> PromptComparison:
    """Reconstruct a prompt comparison from the checked rows of its merged records."""
    by_prompt: dict[str, list[_Row]] = {}
    for row in rows:
        by_prompt.setdefault(row[0].prompt_id, []).append(row)
    prompt_ids = tuple(sorted(by_prompt))
    return PromptComparison(
        prompt_ids=prompt_ids,
        runs={pid: rebuild_localization(by_prompt[pid]) for pid in prompt_ids},
    )


def rebuild_transcript(transcript_path: Path, link_path: Path) -> DialogueTranscript:
    """Reconstruct a dialogue transcript from its emitted files."""
    wire = _read_lines(transcript_path, _decode_wire)
    try:
        meta = load_json(link_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as e:
        raise ReportError(f"cannot read link metadata {link_path.name}: {e}") from e
    found = problems(meta, _LINK_SHAPE)
    if found:
        raise ReportError(f"{link_path.name}: {describe(*found[0])}")
    try:
        # keep the parsed numeric types so re-encoding stays byte-identical
        link = LinkModel(rate=meta["rate_bps"], overhead=meta["overhead"])
        return DialogueTranscript(
            messages=tuple(m for m, _ in wire),
            sizes=tuple(size for _, size in wire),
            link=link,
            stream_bytes=meta["stream_bytes"],
        )
    except ValueError as e:
        raise ReportError(f"cannot rebuild the transcript in {transcript_path.parent}: {e}") from e


def report_bundle(parts: dict, labels: dict[str, bool], lowlight: dict[str, bool]) -> ReportBundle:
    """The bundle of ``parts`` (ReportBundle field -> experiment or transcript), as a run and rerender build it.

    Run consistency covers every part's results (None when no key ran
    twice), and the low-light share the failures of the localization part.
    """
    results = [r for part, outcome in parts.items() if part != "transcript" for r in outcome.results]
    try:
        consistency = analyze_run_consistency(results)
    except InsufficientRuns:
        consistency = None
    localization = parts.get("localization")
    share = None if localization is None else failure_lowlight_share(localization.results, lowlight)
    return ReportBundle(consistency=consistency, labels=labels, lowlight=lowlight, lowlight_share=share, **parts)


def rerender(in_dir: str | Path, targets) -> list[Path]:
    """Re-render reports from the record files found in ``in_dir``.

    Recognizes the record files and the V2V transcript (with its link)
    that emit_report writes. Equal scene ids, and equal prompt ids, of all
    the records files are one ``str`` (``_decode_record``).
    """
    in_path = Path(in_dir)
    if not in_path.is_dir():
        raise ReportError(f"input directory not found: {in_path}")
    parts: dict = {}
    facts: dict[str, tuple] = {}
    shared: dict[str, str] = {}
    # built per call so the rebuild functions are looked up when they run
    sources = (
        ("binary", _BINARY_RECORDS, rebuild_binary),
        ("localization", _LOCALIZATION_FILES[1], rebuild_localization),
        ("comparison", _COMPARISON_FILES[1], rebuild_comparison),
    )
    for part, name, rebuild in sources:
        path = in_path / name
        if path.is_file():
            rows = _read_lines(path, lambda line: _decode_record(line, shared))
            parts[part] = rebuild(_checked_rows(rows, part, name, facts))

    transcript_path = in_path / _TRANSCRIPT_FILE
    if transcript_path.is_file():
        parts["transcript"] = rebuild_transcript(transcript_path, in_path / _LINK_FILE)

    if not parts:
        raise ReportError(f"no recognized result files in {in_path}")
    labels = {scene_id: label for scene_id, (label, _) in facts.items() if label is not None}
    lowlight = {scene_id: tag for scene_id, (_, tag) in facts.items() if tag is not None}
    return emit_report(report_bundle(parts, labels, lowlight), targets, in_path)
