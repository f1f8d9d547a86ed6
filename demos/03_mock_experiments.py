"""Run the binary-detection and localization experiments against the
deterministic mock backend, then emit CSV/JSONL/SVG reports."""

import json
import tempfile
from pathlib import Path

from fovlink.dataset import load_manifest
from fovlink.experiments import (
    ExperimentConfig,
    analyze_run_consistency,
    lowlight_by_scene,
    run_binary_experiment,
    run_localization_experiment,
)
from fovlink.gateway import Gateway, MockBackend, QueryParams
from fovlink.report import emit_report, report_bundle

workdir = Path(tempfile.mkdtemp(prefix="fovlink_demo_"))
print("working in", workdir)

# A five-scene manifest: three pedestrians, two control images.
records = [
    {"scene_id": "pos_a", "image_path": "pos_a.jpg", "width": 1000, "height": 1000,
     "has_pedestrian": True, "gt_boxes": [[400, 400, 600, 800]], "tags": ["dusk"]},
    {"scene_id": "pos_b", "image_path": "pos_b.jpg", "width": 1000, "height": 1000,
     "has_pedestrian": True, "gt_boxes": [[400, 400, 600, 800]], "tags": []},
    {"scene_id": "pos_c", "image_path": "pos_c.jpg", "width": 1000, "height": 1000,
     "has_pedestrian": True, "gt_boxes": [[100, 100, 300, 500]], "tags": []},
    {"scene_id": "neg_a", "image_path": "neg_a.jpg", "width": 1000, "height": 1000,
     "has_pedestrian": False, "gt_boxes": [], "tags": []},
    {"scene_id": "neg_b", "image_path": "neg_b.jpg", "width": 1000, "height": 1000,
     "has_pedestrian": False, "gt_boxes": [], "tags": ["night"]},
]
manifest = workdir / "manifest.jsonl"
manifest.write_text("".join(json.dumps(r) + "\n" for r in records))
for r in records:
    (workdir / r["image_path"]).write_bytes(b"jpeg bytes stand-in")

# Script every (scene, prompt, run) the experiments will ask for. One
# negative is mislabelled, one localization reply wanders off template,
# and one run disagrees with the others to trip the consistency flag.
script = {}
for run in range(3):
    for r in records:
        script[f"{r['scene_id']}|BIN|{run}"] = {"text": "yes" if r["has_pedestrian"] else "no"}
    script[f"neg_a|BIN|{run}"] = {"text": "yes"}
    script[f"pos_a|P1|{run}"] = {"text": "(0.4,0.4), (0.6,0.8)"}
    script[f"pos_b|P1|{run}"] = {"text": "Sure! The person is at (0.45, 0.5) to (0.6, 0.85)."}
    script[f"pos_c|P1|{run}"] = {"text": "I cannot identify any pedestrian in this image."}
script["pos_a|P1|2"] = {"text": "(0.0,0.0), (0.15,0.2)"}

scenes = load_manifest(manifest)
gateway = Gateway(MockBackend(script))
config = ExperimentConfig(runs_per_prompt=3, params=QueryParams(backoff_base=0.0))

binary = run_binary_experiment(scenes, "BIN", gateway, config)
m = binary.matrix
print(f"\nexperiment 1: tp={m.tp} fn={m.fn_} fp={m.fp} tn={m.tn}")
print(f"  recall {binary.stats.require('recall') * 100:.2f}%  "
      f"specificity {binary.stats.require('specificity') * 100:.2f}%")

localization = run_localization_experiment(scenes, "P1", gateway, config)
s = localization.summary
print(f"\nexperiment 2: union rate {s.union_rate * 100:.2f}% over {s.n_tests} tests")
print(f"  recall_all {s.recall_mean_all * 100:.2f}%  iou_overlapping "
      f"{(s.iou_mean_overlapping or 0) * 100:.2f}%")

flagged = [c for c in analyze_run_consistency(localization.results) if c.flagged]
print("\nscenes with inconsistent runs:", [c.scene_id for c in flagged])

# the bundle `fovlink report` rebuilds from the records: consistency over
# both experiments, and the low-light share of the localization failures
bundle = report_bundle(
    {"binary": binary, "localization": localization}, dict(scenes.labels()), lowlight_by_scene(scenes)
)
for path in emit_report(bundle, ["csv", "records", "svg"], workdir / "report"):
    print("wrote", path)
