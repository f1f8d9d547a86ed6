"""Report emission: CSV tables, line-delimited records and SVG charts.

Rendering is deterministic: fixed row ordering, fixed float formatting
(percentages at two decimals, seconds at six), canonical JSON records.
Re-emitting the same inputs yields byte-identical files, which golden
tests rely on. SVG charts are generated directly so the artifact needs
no plotting dependency.

Each CSV header row starts with a versioned schema tag naming the label
column; the column set behind a tag is closed, any added column bumps
the version. Exact field names are documented in docs/schemas.md.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path
from statistics import quantiles

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
    localization_result,
)
from .geometry import NormalizedBBox
from .parsing import DetectionKind, FailureKind, ParsedDetection
from .stats import STAT_NAMES, ConfusionMatrix, DetectionStats, LocalizationSummary
# bench/spans.py traces the statistics under these names
from .stats import (  # noqa: F401
    build_confusion_matrix,
    derive_detection_stats,
    summarize_localization,
)
from .v2v import DialogueTranscript, LinkModel, decode_message, encode_message

log = logging.getLogger(__name__)

RENDER_TARGETS = ("csv", "records", "svg")

_NULL = type(None)
_NUMBER = (int, float)

# field -> the JSON types its value may have (docs/schemas.md); checked
# with type(), so a bool is never taken for a number
_RECORD_TYPES = {
    "scene_id": (str,),
    "prompt_id": (str,),
    "run_idx": (int,),
    "outcome": (str,),
    "verdict": (bool, _NULL),
    "label": (bool, _NULL),
    "scene_lowlight": (bool, _NULL),
    "box": (list, _NULL),
    "box_clamped": (bool, _NULL),
    "box_degenerate": (bool, _NULL),
    "failure_kind": (str, _NULL),
    "coerced": (bool,),
    "fault": (str, _NULL),
    "latency": _NUMBER,
    "raw_text": (str,),
    "overlap": (bool, _NULL),
    "recall": (*_NUMBER, _NULL),
    "iou": (*_NUMBER, _NULL),
}

RESULT_RECORD_FIELDS = tuple(_RECORD_TYPES)

_ABSENT = object()
_FAILURE_KINDS = frozenset(kind.value for kind in FailureKind)
# outcome -> the field its detection is rebuilt from
_OUTCOME_NEEDS = {"fault": None, "verdict": "verdict", "located": "box", "failure": "failure_kind"}

# (summary CSV, records file) of a localization run (exp2) and of a prompt
# comparison (exp3); only exp2 adds failures.csv
_LOCALIZATION_FILES = ("localization_summary.csv", "localization_results.jsonl")
_COMPARISON_FILES = ("prompt_comparison.csv", "comparison_results.jsonl")


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


def _sec(value: float) -> str:
    return f"{value:.6f}"


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


def _check_record(record) -> None:
    """Raise ReportError unless ``record`` is a result record of the documented shape."""
    if type(record) is not dict:
        raise ReportError("result record is not a JSON object")
    for name, types in _RECORD_TYPES.items():
        value = record.get(name, _ABSENT)
        if type(value) not in types:
            if value is _ABSENT:
                raise ReportError(f"result record missing field {name!r}")
            raise ReportError(f"field {name!r} has type {type(value).__name__}")
    box, failure_kind = record["box"], record["failure_kind"]
    if box is not None and (len(box) != 4 or not all(type(v) in _NUMBER for v in box)):
        raise ReportError("field 'box' must be four numbers")
    if failure_kind is not None and failure_kind not in _FAILURE_KINDS:
        raise ReportError(f"unknown failure_kind {failure_kind!r}")
    outcome = record["outcome"]
    if outcome not in _OUTCOME_NEEDS:
        raise ReportError(f"unknown outcome {outcome!r}")
    needed = _OUTCOME_NEEDS[outcome]
    if needed is not None and record[needed] is None:
        raise ReportError(f"{outcome} record has no {needed}")


def record_to_result(record: dict) -> tuple[RunResult, LocalizationSample | None]:
    """Inverse of result_to_record, used by the report re-rendering path."""
    try:
        outcome = record["outcome"]
        detection: ParsedDetection | None
        if outcome == "fault":
            detection = None
        elif outcome == DetectionKind.VERDICT:
            detection = ParsedDetection(
                kind=DetectionKind.VERDICT,
                verdict=record["verdict"],
                raw_excerpt=record["raw_text"][:200],
                coerced=record["coerced"],
            )
        elif outcome == DetectionKind.LOCATED:
            x, y, x2, y2 = record["box"]
            detection = ParsedDetection(
                kind=DetectionKind.LOCATED,
                box=NormalizedBBox(x, y, x2, y2, clamped=record["box_clamped"]),
                raw_excerpt=record["raw_text"][:200],
            )
        elif outcome == DetectionKind.FAILURE:
            detection = ParsedDetection(
                kind=DetectionKind.FAILURE,
                failure_kind=FailureKind(record["failure_kind"]),
                raw_excerpt=record["raw_text"][:200],
            )
        else:
            raise ReportError(f"unknown outcome {outcome!r}")
        result = RunResult(
            scene_id=record["scene_id"],
            prompt_id=record["prompt_id"],
            run_idx=record["run_idx"],
            detection=detection,
            latency=record["latency"],
            raw_text=record["raw_text"],
            fault=record["fault"],
        )
        sample = None
        if record["overlap"] is not None:
            sample = LocalizationSample(
                scene_id=record["scene_id"],
                run_idx=record["run_idx"],
                overlap=record["overlap"],
                recall=record["recall"],
                iou=record["iou"],
                failure_kind=None if record["failure_kind"] is None else FailureKind(record["failure_kind"]),
            )
    except KeyError as e:
        raise ReportError(f"result record missing field {e}") from None
    except (TypeError, ValueError) as e:
        raise ReportError(f"malformed result record: {e}") from e
    return result, sample


def _write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8", newline="")
    return path


def _write_records(path: Path, records: list[dict]) -> Path:
    lines = [json.dumps(r, separators=(",", ":"), ensure_ascii=False) for r in records]
    return _write(path, "".join(line + "\n" for line in lines))


def _stats_csv(matrices: list[ConfusionMatrix], stats: list[DetectionStats]) -> str:
    header = "detection_stats_v1,tp,fn,fp,tn," + ",".join(f"{n}_pct" for n in STAT_NAMES)
    rows = [header]
    for run_idx, (m, s) in enumerate(zip(matrices, stats)):
        cells = [f"run_{run_idx}", str(m.tp), str(m.fn_), str(m.fp), str(m.tn)]
        cells += [_pct(getattr(s, n)) for n in STAT_NAMES]
        rows.append(",".join(cells))
    return "\n".join(rows) + "\n"


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
    return "\n".join(lines) + "\n"


def _failures_csv(samples: list[LocalizationSample], lowlight_share: float | None) -> str:
    counts = {kind: 0 for kind in FailureKind}
    for sample in samples:
        if sample.failure_kind is not None:
            counts[sample.failure_kind] += 1
    lines = ["failure_taxonomy_v1,value"]
    for kind in FailureKind:
        lines.append(f"{kind.value},{counts[kind]}")
    lines.append(f"lowlight_failure_share_pct,{_pct(lowlight_share)}")
    return "\n".join(lines) + "\n"


def _consistency_csv(records: list[ConsistencyRecord]) -> str:
    lines = ["consistency_v1,prompt_id,n_runs,kinds,min_pairwise_iou,flagged"]
    for r in records:
        min_iou = "" if r.min_pairwise_iou is None else f"{r.min_pairwise_iou:.4f}"
        lines.append(
            f"{r.scene_id},{r.prompt_id},{r.n_runs},{'|'.join(r.kinds)},{min_iou},{str(r.flagged).lower()}"
        )
    return "\n".join(lines) + "\n"


def _transport_csv(transcript: DialogueTranscript) -> str:
    comparison = transcript.comparison()
    ratio = "" if comparison.ratio is None else f"{comparison.ratio:.6f}"
    lines = [
        "v2v_comparison_v1,value",
        f"n_messages,{len(transcript.messages)}",
        f"dialogue_bytes,{comparison.dialogue_bytes}",
        f"dialogue_time_s,{_sec(comparison.dialogue_time)}",
        f"stream_bytes,{comparison.stream_bytes}",
        f"stream_time_s,{_sec(comparison.stream_time)}",
        f"ratio,{ratio}",
    ]
    return "\n".join(lines) + "\n"


def _five_numbers(values: list[float]) -> tuple[float, float, float, float, float]:
    ordered = sorted(values)
    if len(ordered) == 1:
        v = ordered[0]
        return v, v, v, v, v
    q1, median, q3 = quantiles(ordered, n=4, method="inclusive")
    return ordered[0], q1, median, q3, ordered[-1]


def _recall_boxplot_svg(groups: list[tuple[str, list[float]]]) -> str:
    """Box plot of per-sample recall, one box per prompt."""
    width, height = 480, 320
    left, right, top, bottom = 60, 20, 20, 40
    plot_w, plot_h = width - left - right, height - top - bottom

    def y_of(v: float) -> float:
        return top + (1.0 - v) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
    ]
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
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _iou_share_svg(ious: list[float]) -> str:
    """Share of overlapping samples per IoU decile bucket."""
    buckets = [0] * 10
    for v in ious:
        buckets[min(9, int(v * 10))] += 1
    total = len(ious)
    width, height = 480, 320
    left, right, top, bottom = 60, 20, 20, 50
    plot_w, plot_h = width - left - right, height - top - bottom
    max_share = max((c / total for c in buckets), default=0.0) or 1.0

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
    ]
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
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


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


def _emit_localization(
    comparison: PromptComparison,
    files: tuple[str, str],
    bundle: ReportBundle,
    resolved: set[str],
    out: Path,
) -> list[Path]:
    """Summary CSV, records and charts of localization runs, one per prompt."""
    summary_name, records_name = files
    runs = [comparison.runs[pid] for pid in comparison.prompt_ids]
    written = []
    if "csv" in resolved:
        written.append(_write(out / summary_name, _summary_csv(comparison.summary_table())))
    if "records" in resolved:
        records = [record for run in runs for record in _records(run.results, bundle, run.samples)]
        written.append(_write_records(out / records_name, records))
    if "svg" in resolved:
        groups = [
            (pid, [s.recall for s in run.samples]) for pid, run in zip(comparison.prompt_ids, runs)
        ]
        if any(values for _, values in groups):
            written.append(_write(out / "recall_distribution.svg", _recall_boxplot_svg(groups)))
        overlapping = [s.iou for run in runs for s in run.samples if s.overlap]
        if overlapping:
            written.append(_write(out / "iou_shares.svg", _iou_share_svg(overlapping)))
    return written


def emit_report(bundle: ReportBundle, targets, out_dir: str | Path) -> list[Path]:
    """Render every present bundle component to the requested targets.

    Returns the written paths (sorted). Empty components produce
    header-only CSVs and no chart.
    """
    resolved = normalize_targets(targets)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    if bundle.binary is not None:
        b = bundle.binary
        if "csv" in resolved:
            written.append(
                _write(
                    out / "detection_stats.csv",
                    _stats_csv(list(b.per_run_matrices), list(b.per_run_stats)),
                )
            )
        if "records" in resolved:
            records = _records(b.results, bundle)
            written.append(_write_records(out / "binary_results.jsonl", records))

    if bundle.localization is not None:
        # exp2 is a prompt comparison over its one prompt
        loc = bundle.localization
        prompt_id = loc.results[0].prompt_id if loc.results else "P?"
        single = PromptComparison(prompt_ids=(prompt_id,), runs={prompt_id: loc})
        written += _emit_localization(single, _LOCALIZATION_FILES, bundle, resolved, out)
        if "csv" in resolved:
            failures = _failures_csv(list(loc.samples), bundle.lowlight_share)
            written.append(_write(out / "failures.csv", failures))

    if bundle.comparison is not None:
        written += _emit_localization(bundle.comparison, _COMPARISON_FILES, bundle, resolved, out)

    if bundle.consistency is not None and "csv" in resolved:
        written.append(_write(out / "consistency.csv", _consistency_csv(bundle.consistency)))

    if bundle.transcript is not None:
        if "records" in resolved:
            lines = [encode_message(m).decode("utf-8") for m in bundle.transcript.messages]
            written.append(
                _write(out / "v2v_transcript.jsonl", "".join(line + "\n" for line in lines))
            )
            link_record = {
                "rate_bps": bundle.transcript.link.rate,
                "overhead": bundle.transcript.link.overhead,
                "stream_bytes": bundle.transcript.stream_bytes,
            }
            written.append(
                _write(
                    out / "v2v_link.json",
                    json.dumps(link_record, separators=(",", ":")) + "\n",
                )
            )
        if "csv" in resolved:
            written.append(_write(out / "v2v_comparison.csv", _transport_csv(bundle.transcript)))

    if not written:
        log.warning("emit_report: empty bundle, nothing rendered")
    return sorted(written)


def _load_records(path: Path) -> list[dict]:
    records = []
    for line_no, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as e:
            raise ReportError(f"{path.name} line {line_no}: invalid JSON ({e.msg})") from e
        try:
            _check_record(record)
        except ReportError as e:
            raise ReportError(f"{path.name} line {line_no}: {e}") from None
        records.append(record)
    return records


def _decode(records: list[dict]) -> tuple[tuple[RunResult, ...], tuple[LocalizationSample, ...]]:
    """Results and samples of ``records``, in the order the experiments produce them."""
    results = []
    samples = []
    for record in records:
        result, sample = record_to_result(record)
        results.append(result)
        if sample is not None:
            samples.append(sample)
    results.sort(key=lambda r: (r.scene_id, r.prompt_id, r.run_idx))
    samples.sort(key=lambda s: (s.scene_id, s.run_idx))
    return tuple(results), tuple(samples)


def rebuild_binary(records: list[dict]) -> tuple[BinaryExperimentResult, dict[str, bool]]:
    """Reconstruct a binary experiment from its emitted records."""
    if not records:
        raise ReportError("no binary result records")
    results, _ = _decode(records)
    labels = {r["scene_id"]: r["label"] for r in records if r["label"] is not None}
    n_runs = max(r.run_idx for r in results) + 1
    return binary_result(results, sorted(labels.items()), n_runs), labels


def rebuild_localization(records: list[dict]) -> LocalizationExperimentResult:
    """Reconstruct a localization experiment from its emitted records."""
    return localization_result(*_decode(records))


def rebuild_comparison(records: list[dict]) -> PromptComparison:
    """Reconstruct a prompt comparison from its merged records."""
    by_prompt: dict[str, list[dict]] = {}
    for record in records:
        by_prompt.setdefault(record["prompt_id"], []).append(record)
    prompt_ids = tuple(sorted(by_prompt))
    return PromptComparison(
        prompt_ids=prompt_ids,
        runs={pid: rebuild_localization(by_prompt[pid]) for pid in prompt_ids},
    )


def rebuild_transcript(transcript_path: Path, link_path: Path) -> DialogueTranscript:
    """Reconstruct a dialogue transcript from its emitted files."""
    messages = []
    sizes = []
    for line in transcript_path.read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        data = line.encode("utf-8")
        messages.append(decode_message(data))
        sizes.append(len(data))
    try:
        meta = json.loads(link_path.read_text(encoding="utf-8"))
        # keep the parsed numeric types so re-encoding stays byte-identical
        link = LinkModel(rate=meta["rate_bps"], overhead=meta["overhead"])
        stream_bytes = int(meta["stream_bytes"])
    except (OSError, TypeError, ValueError, KeyError, json.JSONDecodeError) as e:
        raise ReportError(f"cannot read link metadata {link_path.name}: {e}") from e
    return DialogueTranscript(
        messages=tuple(messages), sizes=tuple(sizes), link=link, stream_bytes=stream_bytes
    )


def lowlight_share_from_records(records: list[dict]) -> float | None:
    """Low-light failure share recomputed from self-contained records."""
    failure_scenes: dict[str, bool] = {}
    for record in records:
        if record["outcome"] == "failure":
            failure_scenes.setdefault(record["scene_id"], bool(record["scene_lowlight"]))
    if not failure_scenes:
        return None
    return sum(failure_scenes.values()) / len(failure_scenes)


def consistency_or_none(results) -> list[ConsistencyRecord] | None:
    """Run consistency of ``results``, or None when no key ran twice."""
    try:
        return analyze_run_consistency(results)
    except InsufficientRuns:
        return None


def rerender(in_dir: str | Path, targets) -> list[Path]:
    """Re-render reports from the record files found in ``in_dir``.

    Recognizes binary_results.jsonl, localization_results.jsonl,
    comparison_results.jsonl and v2v_transcript.jsonl (+ v2v_link.json).
    """
    in_path = Path(in_dir)
    if not in_path.is_dir():
        raise ReportError(f"input directory not found: {in_path}")
    bundle_kwargs: dict = {}
    labels: dict[str, bool] = {}
    lowlight: dict[str, bool] = {}
    all_results: list[RunResult] = []

    # built per call so the rebuild functions are looked up when they run
    sources = (
        ("binary", "binary_results.jsonl", lambda records: rebuild_binary(records)[0]),
        ("localization", _LOCALIZATION_FILES[1], rebuild_localization),
        ("comparison", _COMPARISON_FILES[1], rebuild_comparison),
    )
    for part, name, rebuild in sources:
        path = in_path / name
        if not path.is_file():
            continue
        records = _load_records(path)
        outcome = rebuild(records)
        bundle_kwargs[part] = outcome
        all_results.extend(outcome.results)
        for r in records:
            if r["label"] is not None:
                labels[r["scene_id"]] = r["label"]
            if r["scene_lowlight"] is not None:
                lowlight[r["scene_id"]] = r["scene_lowlight"]
        if part == "localization":
            bundle_kwargs["lowlight_share"] = lowlight_share_from_records(records)

    transcript_path = in_path / "v2v_transcript.jsonl"
    if transcript_path.is_file():
        bundle_kwargs["transcript"] = rebuild_transcript(
            transcript_path, in_path / "v2v_link.json"
        )

    if not bundle_kwargs:
        raise ReportError(f"no recognized result files in {in_path}")
    if all_results:
        bundle_kwargs.update(
            labels=labels, lowlight=lowlight, consistency=consistency_or_none(all_results)
        )
    return emit_report(ReportBundle(**bundle_kwargs), targets, in_path)
