"""In-memory span tracer and the wrappers that feed it.

Spans are recorded from the benchmark's side of each call into a fovlink
module: the gateway and backend objects the benchmark passes in are
wrapped, and module attributes are swapped for timing wrappers only while
``instrument`` is active in the traced process. ``src/fovlink`` is not
edited.

A span is ``[id, name, start_ns, end_ns, parent_id, query_id, extra]``.
The parent of a span opened on a worker thread with nothing open there is
the innermost span open on the main thread, so dispatch spans own the
gateway and parsing spans their pool workers run. Spans of one query
(frame read, send, backend attempts, parse) share the query key
``scene|prompt|run``.
"""

from __future__ import annotations

import functools
import itertools
import json
import pathlib
import statistics
import threading
import time
from contextlib import contextmanager
from pathlib import Path

LAYERS = ("dataset", "gateway", "experiments", "parsing", "geometry", "stats", "report", "v2v")
READ_SPAN = "io.read_bytes"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_top: int | None = None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> list:
        stack = self._stack()
        parent = stack[-1] if stack else self._main_top
        record = [next(self._ids), name, time.perf_counter_ns(), 0, parent, None, None]
        stack.append(record[0])
        if threading.current_thread() is self._main:
            self._main_top = record[0]
        return record

    def close(self, record: list) -> None:
        record[3] = time.perf_counter_ns()
        stack = self._stack()
        stack.pop()
        if threading.current_thread() is self._main:
            self._main_top = stack[-1] if stack else None
        self.spans.append(record)

    @contextmanager
    def span(self, name: str):
        record = self.open(name)
        try:
            yield record
        finally:
            self.close(record)

    def start_query(self, key: str | None) -> None:
        """Tag the frame read that preceded this send, and later parse spans."""
        local = self._local
        local.query = key
        pending = getattr(local, "pending_read", None)
        if pending is not None:
            pending[5] = key
            local.pending_read = None

    def current_query(self) -> str | None:
        return getattr(self._local, "query", None)

    def begin_read(self, record: list) -> None:
        self._local.query = None
        self._local.pending_read = record

    def write(self, path: Path) -> None:
        keys = ("id", "name", "start_ns", "end_ns", "parent", "query", "extra")
        with open(path, "w", encoding="utf-8") as out:
            for record in sorted(self.spans, key=lambda r: r[0]):
                out.write(json.dumps(dict(zip(keys, record))) + "\n")


def wrap(tracer: Tracer, fn, name: str, extra=None, query: bool = False):
    """``fn`` recorded as span ``name``; ``extra(result)`` is stored with it."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        record = tracer.open(name)
        if query:
            record[5] = tracer.current_query()
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(record)
        if extra is not None:
            record[6] = extra(result)
        return result

    return traced


class TracedBackend:
    """Backend proxy that records each attempt as a ``gateway.backend`` span."""

    def __init__(self, backend, tracer: Tracer) -> None:
        self._backend = backend
        self._tracer = tracer
        self.simulated = backend.simulated
        self.backend_id = backend.backend_id

    def complete(self, image, prompt, params, key):
        with self._tracer.span("gateway.backend") as record:
            record[5] = self._tracer.current_query()
            return self._backend.complete(image, prompt, params, key)


def traced_gateway(gateway_mod, backend, tracer: Tracer):
    """A ``Gateway`` over the traced backend whose sends are spans."""

    class TracedGateway(gateway_mod.Gateway):
        def send_vision_query(self, image, prompt, params, key=None):
            tracer.start_query(None if key is None else "|".join(map(str, key)))
            with tracer.span("gateway.send") as record:
                record[5] = tracer.current_query()
                return super().send_vision_query(image, prompt, params, key)

    return TracedGateway(TracedBackend(backend, tracer))


def _detection_kind(detection) -> str:
    if detection.coerced:
        return "coerced"
    if detection.failure_kind is not None:
        return detection.failure_kind.value
    return detection.kind.value


@contextmanager
def instrument(tracer: Tracer, fovlink_modules: dict):
    """Swap fovlink module attributes for traced wrappers while active."""
    m = fovlink_modules
    original_read = pathlib.Path.read_bytes

    def read_bytes(path):
        record = tracer.open(READ_SPAN)
        tracer.begin_read(record)
        try:
            data = original_read(path)
        finally:
            tracer.close(record)
        record[6] = len(data)
        return data

    def written_bytes(paths):
        return sum(p.stat().st_size for p in paths)

    detect = {"extra": _detection_kind, "query": True}
    # (span name, wrapper options, [(module, attribute), ...]); one wrapper
    # per function, installed everywhere the function was imported by name
    plan = [
        ("dataset.load_manifest", {}, [("dataset", "load_manifest")]),
        ("gateway.load_fixture", {}, [("gateway", "load_mock_fixture")]),
        ("gateway.build_request", {}, [("gateway", "build_chat_request")]),
        ("experiments.run_binary", {}, [("experiments", "run_binary_experiment")]),
        ("experiments.run_localization", {}, [("experiments", "run_localization_experiment")]),
        ("experiments.run_comparison", {}, [("experiments", "run_prompt_comparison")]),
        (
            "experiments.consistency",
            {},
            [("experiments", "analyze_run_consistency"), ("report", "analyze_run_consistency")],
        ),
        ("parsing.detect_binary", detect, [("experiments", "detect_binary"), ("v2v", "detect_binary")]),
        ("parsing.detect_bbox", detect, [("experiments", "detect_bbox"), ("v2v", "detect_bbox")]),
        ("geometry.normalize", {}, [("experiments", "normalize_bbox")]),
        ("geometry.overlaps", {}, [("experiments", "overlaps")]),
        ("geometry.recall", {}, [("experiments", "overlap_recall")]),
        ("geometry.iou", {}, [("experiments", "iou")]),
        (
            "stats.matrix",
            {},
            [("stats", "build_confusion_matrix"), ("report", "build_confusion_matrix")],
        ),
        (
            "stats.derive",
            {},
            [("stats", "derive_detection_stats"), ("report", "derive_detection_stats")],
        ),
        (
            "stats.summary",
            {},
            [("stats", "summarize_localization"), ("report", "summarize_localization")],
        ),
        ("report.emit", {"extra": written_bytes}, [("report", "emit_report")]),
        ("report.rerender", {}, [("report", "rerender")]),
        ("report.rebuild", {}, [("report", "rebuild_binary")]),
        ("report.rebuild", {}, [("report", "rebuild_localization")]),
        ("report.rebuild", {}, [("report", "rebuild_comparison")]),
        ("report.rebuild", {}, [("report", "rebuild_transcript")]),
        ("report.record_to_result", {}, [("report", "record_to_result")]),
        ("v2v.dialogue", {}, [("v2v", "run_dialogue")]),
        ("v2v.encode", {"extra": len}, [("v2v", "encode_message"), ("report", "encode_message")]),
        ("v2v.decode", {}, [("v2v", "decode_message"), ("report", "decode_message")]),
    ]
    saved = []
    try:
        for name, options, sites in plan:
            module, attr = sites[0]
            wrapper = wrap(tracer, getattr(m[module], attr), name, **options)
            for module, attr in sites:
                saved.append((m[module], attr, getattr(m[module], attr)))
                setattr(m[module], attr, wrapper)
        pathlib.Path.read_bytes = read_bytes
        yield
    finally:
        pathlib.Path.read_bytes = original_read
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


def _covered_ns(start: int, end: int, intervals: list[tuple[int, int]]) -> int:
    """Length of [start, end] covered by the union of ``intervals``."""
    covered = 0
    cursor = start
    for s, e in sorted(intervals):
        s, e = max(s, cursor), min(e, end)
        if e > s:
            covered += e - s
            cursor = e
    return covered


def _percentile(values: list[float], q: float) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def query_ms(spans: list[list]) -> list[float]:
    """Milliseconds of each ``send_vision_query`` call in ``spans``."""
    return [(r[3] - r[2]) / 1e6 for r in spans if r[1] == "gateway.send"]


def latency_percentiles(values: list[float]) -> dict[str, float]:
    return {"gateway.query_p50_ms": _percentile(values, 0.50), "gateway.query_p99_ms": _percentile(values, 0.99)}


def summarize(spans: list[list]) -> dict[str, float]:
    """Span-derived per-layer metrics of one traced pass, latency percentiles aside."""
    by_id = {r[0]: r for r in spans}
    children: dict[int, list[list]] = {}
    for r in spans:
        if r[4] is not None:
            children.setdefault(r[4], []).append(r)

    def layer(r: list) -> str:
        while r[1] == READ_SPAN and r[4] in by_id:
            r = by_id[r[4]]
        return r[1].split(".")[0]

    def dur(r: list) -> int:
        return r[3] - r[2]

    def self_ns(r: list) -> int:
        kids = [(c[2], c[3]) for c in children.get(r[0], ())]
        return dur(r) - _covered_ns(r[2], r[3], kids)

    by_name: dict[str, list[list]] = {}
    for r in spans:
        by_name.setdefault(r[1], []).append(r)

    def named(*names: str) -> list[list]:
        return [r for name in names for r in by_name.get(name, ())]

    def total_s(*names: str) -> float:
        return sum(dur(r) for r in named(*names)) / 1e9

    metrics = {f"{name}.self_s": 0.0 for name in LAYERS}
    for r in spans:
        name = f"{layer(r)}.self_s"
        if name in metrics:
            metrics[name] += self_ns(r) / 1e9

    sends = named("gateway.send")
    exp_sends = [r for r in sends if layer(by_id.get(r[4], r)) == "experiments"]
    exp_reads = [r for r in named(READ_SPAN) if layer(r) == "experiments"]
    attempts = len(named("gateway.backend"))
    detections = named("parsing.detect_binary", "parsing.detect_bbox")
    encodes = named("v2v.encode")
    decodes = named("v2v.decode")

    metrics.update(
        {
            "dataset.load_manifest_s": total_s("dataset.load_manifest"),
            "gateway.load_fixture_s": total_s("gateway.load_fixture"),
            "experiments.image_reads_per_query": len(exp_reads) / len(exp_sends) if exp_sends else 0.0,
            "experiments.image_read_s": sum(dur(r) for r in exp_reads) / 1e9,
            "experiments.image_bytes_read": float(sum(r[6] for r in exp_reads)),
            "experiments.dispatch_self_s": sum(
                self_ns(r)
                for r in named(
                    "experiments.run_binary", "experiments.run_localization", "experiments.run_comparison"
                )
            )
            / 1e9,
            "experiments.consistency_s": total_s("experiments.consistency"),
            "stats.matrix_s": total_s("stats.matrix", "stats.derive"),
            "stats.summary_s": total_s("stats.summary"),
            "gateway.send_s": total_s("gateway.send"),
            "gateway.backend_s": total_s("gateway.backend"),
            "gateway.build_request_s": total_s("gateway.build_request"),
            "gateway.attempts_per_query": attempts / len(sends) if sends else 0.0,
            "gateway.retries": float(attempts - len(sends)),
            "parsing.detect_s": total_s("parsing.detect_binary", "parsing.detect_bbox"),
            "geometry.score_s": total_s(
                "geometry.normalize", "geometry.overlaps", "geometry.recall", "geometry.iou"
            ),
            "report.emit_s": total_s("report.emit"),
            "report.bytes_written": float(sum(r[6] or 0 for r in named("report.emit"))),
            "report.rerender_s": total_s("report.rerender"),
            "report.rebuild_s": total_s("report.rebuild"),
            "report.records_decoded": float(len(named("report.record_to_result"))),
            "v2v.dialogue_s": total_s("v2v.dialogue"),
            "v2v.encode_us": sum(dur(r) for r in encodes) / 1e3 / len(encodes) if encodes else 0.0,
            "v2v.decode_us": sum(dur(r) for r in decodes) / 1e3 / len(decodes) if decodes else 0.0,
        }
    )
    kinds = [r[6] for r in detections]
    for metric, kind in (
        ("parsing.located", "located"),
        ("parsing.partial_coordinates", "PartialCoordinates"),
        ("parsing.ambiguous_description", "AmbiguousDescription"),
        ("parsing.no_pedestrian_detected", "NoPedestrianDetected"),
        ("parsing.coerced", "coerced"),
    ):
        metrics[metric] = float(kinds.count(kind))
    return metrics
