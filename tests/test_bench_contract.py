"""The benchmark's traced run still finds and times every fovlink call site.

``bench/spans.py`` swaps timing wrappers onto the (module, attribute)
pairs of its plan. A refactor that drops a planned name, or moves a call
off the module global the plan wraps, would silently zero a per-layer
metric of ``bench/run.py --trace 1``; this test fails instead.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import gen  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from fovlink import dataset, gateway  # noqa: E402
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
    # one frame read per scene for exp1, per positive for exp2 and for all of exp3
    n_positives = sum(s.has_pedestrian for s in dataset.load_manifest(data / "manifest.jsonl"))
    assert eval_metrics["experiments.image_bytes_read"] == (24 + 2 * n_positives) * gen.FRAME_BYTES
    for name in ("parsing.detect_s", "stats.matrix_s", "stats.summary_s", "experiments.consistency_s"):
        assert eval_metrics[name] > 0, name
    rerender_metrics = spans.summarize(rerender_tracer.spans)
    for name in ("report.rebuild_s", "stats.matrix_s", "stats.summary_s", "experiments.consistency_s"):
        assert rerender_metrics[name] > 0, name
    assert rerender_metrics["report.records_decoded"] == rerender.records
    # binary, localization, comparison (+ its 3 prompts) and transcript
    assert sum(r[1] == "report.rebuild" for r in rerender_tracer.spans) == 7
