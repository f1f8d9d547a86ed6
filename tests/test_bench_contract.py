"""The benchmark's traced run still finds and times every fovlink call site.

``bench/spans.py`` swaps timing wrappers onto the (module, attribute)
pairs of its plan. A refactor that drops a planned name, or moves a call
off the module global the plan wraps, would silently zero a per-layer
metric of ``bench/run.py --trace 1``; this test fails instead.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import gen  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from fovlink import gateway  # noqa: E402
from fovlink.prompts import PROMPTS  # noqa: E402


def test_traced_eval_and_rerender_passes_feed_every_layer(tmp_path):
    data, out = tmp_path / "data", tmp_path / "out"
    gen.generate(data, 7, 24, {p: s.text for p, s in PROMPTS.items()}, live=False)
    eval_mock = workloads.EvalMock(data, out)
    eval_tracer, rerender_tracer = spans.Tracer(), spans.Tracer()
    # entering raises AttributeError if any planned attribute is missing
    with spans.instrument(eval_tracer, workloads.MODULES):
        gw = spans.traced_gateway(gateway, eval_mock.setup(), eval_tracer)
        eval_pass = eval_mock.run_pass(gw)
    rerender = workloads.ReportRerender(out)
    with spans.instrument(rerender_tracer, workloads.MODULES):
        rerender_pass = rerender.run_pass()

    assert eval_pass.problems == []
    assert rerender_pass.problems == []
    eval_metrics = spans.summarize(eval_tracer.spans)
    # the mock answers by key: no experiment reads a frame (a backend that is
    # not simulated reads one per scene task, see tests/test_experiments.py)
    assert eval_metrics["experiments.image_bytes_read"] == 0
    assert eval_metrics["experiments.image_reads_per_query"] == 0
    assert not any(r[1] == spans.READ_SPAN for r in eval_tracer.spans)
    for name in ("parsing.detect_s", "stats.matrix_s", "stats.summary_s", "experiments.consistency_s"):
        assert eval_metrics[name] > 0, name
    rerender_metrics = spans.summarize(rerender_tracer.spans)
    for name in ("report.rebuild_s", "stats.matrix_s", "stats.summary_s", "experiments.consistency_s"):
        assert rerender_metrics[name] > 0, name
    assert rerender_metrics["report.records_decoded"] == rerender.records
    # binary, localization, comparison (+ its 3 prompts) and transcript
    assert sum(r[1] == "report.rebuild" for r in rerender_tracer.spans) == 7


def test_a_traced_eval_pass_times_the_fixture_load_and_each_distinct_reply_parse(tmp_path):
    data, out = tmp_path / "data", tmp_path / "out"
    gen.generate(data, 11, 24, {p: s.text for p, s in PROMPTS.items()}, live=False)
    eval_mock = workloads.EvalMock(data, out)
    tracer = spans.Tracer()
    with spans.instrument(tracer, workloads.MODULES):
        gw = spans.traced_gateway(gateway, eval_mock.setup(), tracer)
        eval_pass = eval_mock.run_pass(gw)

    assert eval_pass.problems == []
    names = [r[1] for r in tracer.spans]
    assert names.count("gateway.load_fixture") == 1
    metrics = spans.summarize(tracer.spans)
    assert metrics["parsing.detect_s"] > 0
    # exp1 is the one dispatch of BIN queries, and it parses each distinct reply once
    fixture = json.loads((data / "fixture.json").read_text(encoding="utf-8"))
    bin_texts = {entry["text"] for key, entry in fixture.items() if key.split("|")[1] == "BIN" and "text" in entry}
    assert 0 < names.count("parsing.detect_binary") == len(bin_texts) < names.count("gateway.send")
