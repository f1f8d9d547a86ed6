"""Report emission: CSV tables, line-delimited records and SVG charts.

Rendering is deterministic: fixed row ordering, fixed float formatting
(percentages at two decimals, seconds at six), canonical JSON records.
Re-emitting the same inputs yields byte-identical files, which golden
tests rely on. SVG charts are generated directly so the artifact needs
no plotting dependency.

Each CSV header row starts with a versioned schema tag naming the label
column; the column set behind a tag is closed, any added column bumps
the version. Exact field names are documented in docs/schemas.md.

Re-rendering checks each result record on its own (``record_to_result``)
and then each records file as a whole (``_check_runs``). ``statistics``
is imported by the box-plot quartiles and ``logging`` by the empty-bundle
warning, so a process that needs neither loads neither.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

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
from .parsing import DetectionKind, FailureKind, ParsedDetection, excerpt
from .stats import STAT_NAMES, LocalizationSummary
# bench/spans.py traces the statistics under these names
from .stats import (  # noqa: F401
    build_confusion_matrix,
    derive_detection_stats,
    summarize_localization,
)
from .shape import COMPACT_JSON, FOUR_NUMBERS, NON_NEGATIVE_INT, NULL, NUMBER, Fields, Nullable, Rule, describe, problems, utf8_encodable
from .v2v import DialogueTranscript, LinkModel, V2VMessage, decode_message, encode_message

RENDER_TARGETS = ("csv", "records", "svg")

# outcome -> the field a record of it is rebuilt from; of these fields, a
# record sets exactly its outcome's
_OUTCOME_NEEDS = {"fault": "fault", "verdict": "verdict", "located": "box", "failure": "failure_kind"}
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
# the record's strings, which the report writes back as UTF-8
_TEXT_FIELDS = ("scene_id", "prompt_id", "fault", "raw_text")

# v2v_link.json, the link next to a stored transcript
_LINK_SHAPE = Fields({"rate_bps": NUMBER, "overhead": NUMBER, "stream_bytes": NON_NEGATIVE_INT})

# the files that rerender reads back
_BINARY_RECORDS = "binary_results.jsonl"
_TRANSCRIPT_FILE = "v2v_transcript.jsonl"
_LINK_FILE = "v2v_link.json"
# (summary CSV, records file) of a localization run (exp2) and of a prompt
# comparison (exp3); only exp2 adds failures.csv
_LOCALIZATION_FILES = ("localization_summary.csv", "localization_results.jsonl")
_COMPARISON_FILES = ("prompt_comparison.csv", "comparison_results.jsonl")

# (render target, file name, render) of one output file
_Output = tuple[str, str, Callable[[], str]]
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
    outcome = "fault" if detection is None else detection.kind.value
    box = detection.box if detection is not None else None
    return {
        "scene_id": result.scene_id,
        "prompt_id": result.prompt_id,
        "run_idx": result.run_idx,
        "outcome": outcome,
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


def _lines(lines) -> str:
    """Text of ``lines``, each ended by a newline: the body of every CSV, JSONL and SVG file."""
    return "".join(line + "\n" for line in lines)


def _json_lines(records) -> str:
    return _lines(COMPACT_JSON.encode(r) for r in records)


def _stats_csv(binary: BinaryExperimentResult) -> str:
    header = "detection_stats_v1,tp,fn,fp,tn," + ",".join(f"{n}_pct" for n in STAT_NAMES)
    rows = [header]
    for run_idx, (m, s) in enumerate(zip(binary.per_run_matrices, binary.per_run_stats)):
        cells = [f"run_{run_idx}", str(m.tp), str(m.fn_), str(m.fp), str(m.tn)]
        cells += [_pct(getattr(s, n)) for n in STAT_NAMES]
        rows.append(",".join(cells))
    return _lines(rows)


_SUMMARY_COLUMNS = (
    "n_tests",
    "n_overlapping",
    "union_rate_pct",
    "recall_mean_overlapping_pct",
    "recall_std_overlapping_pct",
    "recall_mean_all_pct",
    "recall_std_all_pct",
    "iou_mean_overlapping_pct",
)


def _summary_csv(rows: list[tuple[str, LocalizationSummary]]) -> str:
    lines = ["localization_summary_v1," + ",".join(_SUMMARY_COLUMNS)]
    for label, s in rows:
        cells = [
            label,
            str(s.n_tests),
            str(s.n_overlapping),
            _pct(s.union_rate),
            _pct(s.recall_mean_overlapping),
            _pct(s.recall_std_overlapping),
            _pct(s.recall_mean_all),
            _pct(s.recall_std_all),
            _pct(s.iou_mean_overlapping),
        ]
        lines.append(",".join(cells))
    return _lines(lines)


def _failures_csv(samples: tuple[LocalizationSample, ...], lowlight_share: float | None) -> str:
    counts = Counter(sample.failure_kind for sample in samples)
    lines = ["failure_taxonomy_v1,value", *(f"{kind.value},{counts[kind]}" for kind in FailureKind)]
    lines.append(f"lowlight_failure_share_pct,{_pct(lowlight_share)}")
    return _lines(lines)


def _consistency_csv(records: list[ConsistencyRecord]) -> str:
    lines = ["consistency_v1,prompt_id,n_runs,kinds,min_pairwise_iou,flagged"]
    for r in records:
        min_iou = "" if r.min_pairwise_iou is None else f"{r.min_pairwise_iou:.4f}"
        lines.append(
            f"{r.scene_id},{r.prompt_id},{r.n_runs},{'|'.join(r.kinds)},{min_iou},{str(r.flagged).lower()}"
        )
    return _lines(lines)


def _transport_csv(transcript: DialogueTranscript) -> str:
    ratio = "" if transcript.ratio is None else f"{transcript.ratio:.6f}"
    lines = [
        "v2v_comparison_v1,value",
        f"n_messages,{len(transcript.messages)}",
        f"dialogue_bytes,{transcript.dialogue_bytes}",
        f"dialogue_time_s,{transcript.dialogue_time:.6f}",
        f"stream_bytes,{transcript.stream_bytes}",
        f"stream_time_s,{transcript.stream_time:.6f}",
        f"ratio,{ratio}",
    ]
    return _lines(lines)


def _five_numbers(values: list[float]) -> tuple[float, float, float, float, float]:
    ordered = sorted(values)
    if len(ordered) == 1:
        v = ordered[0]
        return v, v, v, v, v
    from statistics import quantiles

    q1, median, q3 = quantiles(ordered, n=4, method="inclusive")
    return ordered[0], q1, median, q3, ordered[-1]


_CHART_WIDTH, _CHART_HEIGHT = 480, 320


def _chart(parts: list[str]) -> str:
    """SVG text of ``parts`` on the white canvas that every chart shares."""
    size = f'width="{_CHART_WIDTH}" height="{_CHART_HEIGHT}"'
    frame = [f'<svg xmlns="http://www.w3.org/2000/svg" {size}>', f'<rect x="0" y="0" {size} fill="white"/>']
    return _lines([*frame, *parts, "</svg>"])


def _recall_boxplot_svg(groups: list[tuple[str, list[float]]]) -> str:
    """Box plot of per-sample recall, one box per prompt."""
    width, height = _CHART_WIDTH, _CHART_HEIGHT
    left, right, top, bottom = 60, 20, 20, 40
    plot_w, plot_h = width - left - right, height - top - bottom

    def y_of(v: float) -> float:
        return top + (1.0 - v) * plot_h

    parts = []
    for tick in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = y_of(tick)
        parts.append(
            f'<line x1="{left}" y1="{y:.2f}" x2="{width - right}" y2="{y:.2f}" '
            'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{left - 8}" y="{y + 4:.2f}" text-anchor="end" font-size="11" '
            f'font-family="sans-serif">{tick * 100:.0f}%</text>'
        )
    slot = plot_w / max(1, len(groups))
    for i, (label, values) in enumerate(groups):
        cx = left + slot * (i + 0.5)
        if values:
            lo, q1, med, q3, hi = _five_numbers(values)
            half = min(30.0, slot * 0.25)
            parts.append(
                f'<line x1="{cx:.2f}" y1="{y_of(lo):.2f}" x2="{cx:.2f}" y2="{y_of(hi):.2f}" '
                'stroke="#333333" stroke-width="1"/>'
            )
            parts.append(
                f'<rect x="{cx - half:.2f}" y="{y_of(q3):.2f}" width="{2 * half:.2f}" '
                f'height="{max(0.0, y_of(q1) - y_of(q3)):.2f}" fill="#7aa6d2" stroke="#333333"/>'
            )
            parts.append(
                f'<line x1="{cx - half:.2f}" y1="{y_of(med):.2f}" x2="{cx + half:.2f}" '
                f'y2="{y_of(med):.2f}" stroke="#00254d" stroke-width="2"/>'
            )
        parts.append(
            f'<text x="{cx:.2f}" y="{height - bottom + 18}" text-anchor="middle" '
            f'font-size="12" font-family="sans-serif">{label}</text>'
        )
    return _chart(parts)


def _iou_share_svg(ious: list[float]) -> str:
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
        parts.append(
            f'<text x="{x + slot / 2:.2f}" y="{top + plot_h - bar_h - 4:.2f}" text-anchor="middle" '
            f'font-size="10" font-family="sans-serif">{share * 100:.2f}%</text>'
        )
        parts.append(
            f'<text x="{x + slot / 2:.2f}" y="{height - bottom + 16}" text-anchor="middle" '
            f'font-size="9" font-family="sans-serif">{i / 10:.1f}-{(i + 1) / 10:.1f}</text>'
        )
    parts.append(
        f'<text x="{left + plot_w / 2:.2f}" y="{height - 8}" text-anchor="middle" '
        'font-size="11" font-family="sans-serif">IoU bucket (overlapping tests)</text>'
    )
    return _chart(parts)


def _records(
    results: tuple[RunResult, ...],
    bundle: ReportBundle,
    samples: tuple[LocalizationSample, ...] = (),
) -> list[dict]:
    sample_by_key = {(s.scene_id, s.run_idx): s for s in samples}
    labels, lowlight = bundle.labels or {}, bundle.lowlight or {}
    return [
        result_to_record(
            r,
            sample_by_key.get((r.scene_id, r.run_idx)),
            labels.get(r.scene_id),
            lowlight.get(r.scene_id),
        )
        for r in results
    ]


def _localization_outputs(
    comparison: PromptComparison, files: tuple[str, str], bundle: ReportBundle
) -> list[_Output]:
    """Summary CSV, records and charts of localization runs, one per prompt."""
    summary_name, records_name = files
    runs = [comparison.runs[pid] for pid in comparison.prompt_ids]
    groups = [(pid, [s.recall for s in run.samples]) for pid, run in zip(comparison.prompt_ids, runs)]
    overlapping = [s.iou for run in runs for s in run.samples if s.overlap]
    outputs: list[_Output] = [
        ("csv", summary_name, lambda: _summary_csv(comparison.summary_table())),
        (
            "records",
            records_name,
            lambda: _json_lines(r for run in runs for r in _records(run.results, bundle, run.samples)),
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
            ("records", _BINARY_RECORDS, lambda: _json_lines(_records(binary.results, bundle))),
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
            ("records", _TRANSCRIPT_FILE, lambda: _lines(encode_message(m).decode() for m in messages)),
            ("records", _LINK_FILE, lambda: _json_lines([meta])),
            ("csv", "v2v_comparison.csv", lambda: _transport_csv(transcript)),
        ]
    return outputs


def emit_report(bundle: ReportBundle, targets, out_dir: str | Path) -> list[Path]:
    """Render every present bundle component to the requested targets.

    Returns the written paths (sorted). Empty components produce
    header-only CSVs and no chart.
    """
    resolved = normalize_targets(targets)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for target, name, render in _outputs(bundle):
        if target in resolved:
            path = out / name
            path.write_text(render(), encoding="utf-8", newline="")
            written.append(path)
    if not written:
        import logging

        logging.getLogger(__name__).warning("emit_report: empty bundle, nothing rendered")
    return sorted(written)


def _read_lines(path: Path, decode: Callable[[str], object]) -> list:
    """``decode`` of each non-blank line of ``path``; a decode error names the file and line."""
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ReportError(f"{path.name} is not UTF-8: {e}") from e
    decoded = []
    for line_no, line in enumerate(text.split("\n"), start=1):
        if line.strip():
            try:
                decoded.append(decode(line))
            except FovlinkError as e:
                raise ReportError(f"{path.name} line {line_no}: {e}") from e
    return decoded


def _decode_record(line: str) -> _Row:
    try:
        record = json.loads(line)
    except json.JSONDecodeError as e:
        raise ReportError(f"invalid JSON ({e.msg})") from e
    return (*record_to_result(record), record["label"], record["scene_lowlight"])


def _decode_wire(line: str) -> tuple[V2VMessage, int]:
    """One transcript line as its message and its size on the wire."""
    data = line.encode("utf-8")
    return decode_message(data), len(data)


def _decode(rows: list[_Row]) -> tuple[tuple[RunResult, ...], tuple[LocalizationSample, ...]]:
    """Results and samples of ``rows``, in the order the experiments produce them."""
    results = sorted((row[0] for row in rows), key=lambda r: (r.scene_id, r.prompt_id, r.run_idx))
    samples = sorted((row[1] for row in rows if row[1] is not None), key=lambda s: (s.scene_id, s.run_idx))
    return tuple(results), tuple(samples)


def _scene_facts(rows: list[_Row], name: str, facts: dict[str, tuple]) -> dict[str, tuple]:
    """``facts`` plus the (label, scene_lowlight) of each scene of ``rows``, which all its records must share."""
    for result, _, label, lowlight in rows:
        known = facts.setdefault(result.scene_id, (label, lowlight))
        if known != (label, lowlight):
            field = "label" if known[0] is not label else "scene_lowlight"
            raise ReportError(f"{name}: the records of scene {result.scene_id!r} disagree on {field}")
    return facts


def rebuild_binary(rows: list[_Row]) -> BinaryExperimentResult:
    """Reconstruct a binary experiment from the decoded rows of its records, which must be labelled."""
    results, _ = _decode(rows)
    labels = sorted((scene_id, label) for scene_id, (label, _) in _scene_facts(rows, _BINARY_RECORDS, {}).items())
    unlabelled = [scene_id for scene_id, label in labels if label is None]
    if unlabelled:
        raise ReportError(f"{_BINARY_RECORDS}: scene {unlabelled[0]!r} has no label")
    n_runs = max(r.run_idx for r in results) + 1
    return binary_result(results, labels, n_runs)


def rebuild_localization(rows: list[_Row]) -> LocalizationExperimentResult:
    """Reconstruct a localization experiment from the decoded rows of its records."""
    return localization_result(*_decode(rows))


def rebuild_comparison(rows: list[_Row]) -> PromptComparison:
    """Reconstruct a prompt comparison from the decoded rows of its merged records."""
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
        meta = json.loads(link_path.read_text(encoding="utf-8"))
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


def _sample_problem(result: RunResult, sample: LocalizationSample | None) -> str | None:
    """What is wrong with the sample of a localization or comparison record, if anything.

    Located and failure records are scored, and a failure only ever scores
    false, 0 and 0; fault and verdict records are not scored.
    """
    detection = result.detection
    if detection is None or detection.kind is DetectionKind.VERDICT:
        return None if sample is None else "with overlap, recall and iou"
    if sample is None:
        return "without overlap, recall and iou"
    if detection.kind is DetectionKind.FAILURE and (sample.overlap, sample.recall, sample.iou) != (False, 0, 0):
        return "whose overlap, recall and iou are not false, 0 and 0"
    return None


def _check_runs(rows: list[_Row], part: str, name: str) -> None:
    """Reject what no single record shows.

    That is an empty file, a repeated (scene, prompt, run), a prompt's runs
    not numbered 0..n-1, a binary file of more than one prompt, and a sample
    on a record the file's experiment does not score, or none on one it does.
    """
    if not rows:
        raise ReportError(f"no {part} result records in {name}")
    scored = part != "binary"
    keys: set[tuple[str, str, int]] = set()
    runs: dict[str, set[int]] = {}
    for result, sample, _, _ in rows:
        key = scene_id, prompt_id, run_idx = result.scene_id, result.prompt_id, result.run_idx
        if key in keys:
            raise ReportError(f"{name}: prompt {prompt_id} has two records of scene {scene_id!r} run {run_idx}")
        keys.add(key)
        runs.setdefault(prompt_id, set()).add(run_idx)
        if not scored:
            if sample is not None:
                raise ReportError(f"{name}: scene {scene_id!r} has overlap, recall and iou")
        elif (problem := _sample_problem(result, sample)) is not None:
            kind = "fault" if result.detection is None else result.detection.kind.value
            where = f"scene {scene_id!r} run {run_idx}"
            raise ReportError(f"{name}: prompt {prompt_id} has a {kind} record of {where} {problem}")
    if not scored and len(runs) > 1:
        raise ReportError(f"{name}: records of more than one prompt: {', '.join(sorted(runs))}")
    for prompt_id, found in sorted(runs.items()):
        if len(found) != max(found) + 1:
            missing = next(run for run in range(len(found)) if run not in found)
            raise ReportError(f"{name}: prompt {prompt_id} has run_idx {max(found)} but no run {missing}")


def consistency_or_none(results) -> list[ConsistencyRecord] | None:
    """Run consistency of ``results``, or None when no key ran twice."""
    try:
        return analyze_run_consistency(results)
    except InsufficientRuns:
        return None


def rerender(in_dir: str | Path, targets) -> list[Path]:
    """Re-render reports from the record files found in ``in_dir``.

    Recognizes the record files and the V2V transcript (with its link)
    that emit_report writes.
    """
    in_path = Path(in_dir)
    if not in_path.is_dir():
        raise ReportError(f"input directory not found: {in_path}")
    bundle_kwargs: dict = {}
    facts: dict[str, tuple] = {}
    all_results: list[RunResult] = []

    # built per call so the rebuild functions are looked up when they run
    sources = (
        ("binary", _BINARY_RECORDS, rebuild_binary),
        ("localization", _LOCALIZATION_FILES[1], rebuild_localization),
        ("comparison", _COMPARISON_FILES[1], rebuild_comparison),
    )
    for part, name, rebuild in sources:
        path = in_path / name
        if not path.is_file():
            continue
        rows = _read_lines(path, _decode_record)
        _check_runs(rows, part, name)
        _scene_facts(rows, name, facts)
        outcome = rebuild(rows)
        bundle_kwargs[part] = outcome
        all_results.extend(outcome.results)

    transcript_path = in_path / _TRANSCRIPT_FILE
    if transcript_path.is_file():
        bundle_kwargs["transcript"] = rebuild_transcript(transcript_path, in_path / _LINK_FILE)

    if not bundle_kwargs:
        raise ReportError(f"no recognized result files in {in_path}")
    labels = {scene_id: label for scene_id, (label, _) in facts.items() if label is not None}
    lowlight = {scene_id: tag for scene_id, (_, tag) in facts.items() if tag is not None}
    bundle_kwargs.update(labels=labels, lowlight=lowlight, consistency=consistency_or_none(all_results))
    if "localization" in bundle_kwargs:
        bundle_kwargs["lowlight_share"] = failure_lowlight_share(
            bundle_kwargs["localization"].results, lowlight
        )
    return emit_report(ReportBundle(**bundle_kwargs), targets, in_path)
