"""Seeded workload generator for the fovlink benchmark.

Writes everything a workload feeds to the program, and nothing else:

- ``manifest.jsonl``: scenes, about three quarters positive with exactly
  one ground-truth box each (experiment 2 requires one box per positive);
- ``frames/<scene>.frame``: one 220,000-byte high-entropy frame per scene
  (the frame size of the paper). The first line is a marker naming the
  scene and the CRC-32 of the rest, so the loopback stub can answer per
  scene and check that the frame arrived intact;
- ``fixture.json``: the mock reply script for BIN and P1-P3, every run;
- ``live.json``: per (scene, prompt) replies and transient faults for the
  loopback stub;
- ``expected.json``: the outcome counts the program must reproduce.

Expected counts come from the generator's own ground truth: it knows which
kind of reply it wrote, which verdict or box the reply states, and whether
that box overlaps the ground truth. It does not call fovlink to find out.
The only program data it uses are the pinned prompt texts, which the
dialogue messages carry verbatim.

Everything derives from the seed: the same seed and size give
byte-identical files.
"""

from __future__ import annotations

import json
import random
import zlib
from dataclasses import dataclass
from pathlib import Path

FRAME_BYTES = 220_000
POSITIVE_SHARE = 0.75
FAULT_SHARE = 0.02
RUNS = 3
COORD_PROMPTS = ("P1", "P2", "P3")
FAULT_KINDS = ("timeout", "rate_limit", "transport")
LOWLIGHT_TAGS = ("dusk", "sunset", "shade", "solar_glare")
LINK_RATE_BPS = 1_000_000
LINK_OVERHEAD = 0.1
# Queries that meet one transient HTTP fault on the live path. Kept well
# below 1% so the 0.5 s retry backoff stays out of the 99th latency
# percentile.
LIVE_RETRY_SHARE = 0.003
IMAGE_SIZES = ((1920, 1080), (1280, 720), (1600, 900))

_YES = ("yes", "Yes.", "YES", "Yes, there is a pedestrian near the crosswalk.")
_NO = ("no", "No.", "NO", "No, the road ahead is empty.")
_COERCED = (
    "There appears to be someone near the curb.",
    "I think so, but the image is dark.",
    "Possibly; a figure is partially occluded.",
)
_NEGATIONS = (
    "No pedestrian is visible in this image.",
    "I cannot see any person in the frame.",
    "There is nobody on the crosswalk.",
    "Unable to locate a person; the street appears empty.",
)
_AMBIGUOUS = (
    "A person in a dark coat is standing near the left curb.",
    "Someone is crossing the road close to the vehicle.",
    "The pedestrian is partially hidden behind a parked van.",
)
_PARTIAL = (
    "({x},{y}), ({x2}",
    "Top-left corner ({x},{y}); the bottom-right corner is cut off.",
    "({x},{y})",
)
_LOCATED_OFF_TEMPLATE = (
    "The person is located between ( {x2} , {y2} ) and ({x},{y}).",
    "Coordinates: ({x},{y2}), ({x2},{y}) - the full body is inside.",
    "Sure! ({x}, {y}), ({x2}, {y2})",
)

# (kind, weight) of coordinate-prompt replies; faults are drawn separately
_COORD_MIX = (
    ("located", 0.50),
    ("located_off_template", 0.12),
    ("located_clamped", 0.04),
    ("NoPedestrianDetected", 0.12),
    ("PartialCoordinates", 0.10),
    ("AmbiguousDescription", 0.12),
)
_BIN_MIX = (("correct", 0.86), ("wrong", 0.08), ("coerced", 0.06))
_OVERLAP_SHARE = 0.8


@dataclass(frozen=True)
class Scene:
    scene_id: str
    width: int
    height: int
    box: tuple[int, int, int, int] | None
    tags: tuple[str, ...]

    @property
    def gt_norm(self) -> tuple[float, float, float, float]:
        x, y, x2, y2 = self.box
        return (x / self.width, y / self.height, x2 / self.width, y2 / self.height)


def _f4(v: float) -> str:
    return f"{v:.4f}"


def _make_scenes(rng: random.Random, n: int) -> list[Scene]:
    # an exact positive count gives every seed the same number of queries
    positive_ids = set(rng.sample(range(n), round(POSITIVE_SHARE * n)))
    scenes = []
    for i in range(n):
        width, height = rng.choice(IMAGE_SIZES)
        positive = i in positive_ids
        box = None
        tags: list[str] = []
        if positive:
            bw = rng.randint(int(0.05 * width), int(0.3 * width))
            bh = rng.randint(int(0.1 * height), int(0.5 * height))
            x0 = rng.randint(0, width - bw)
            y0 = rng.randint(0, height - bh)
            box = (x0, y0, x0 + bw, y0 + bh)
            tags += ["single_pedestrian", "crosswalk_center"]
        if rng.random() < 0.3:
            tags.append(rng.choice(LOWLIGHT_TAGS))
        scenes.append(Scene(f"s{i:05d}", width, height, box, tuple(sorted(tags))))
    return scenes


def _frame(seed: int, scene_id: str) -> bytes:
    body_rng = random.Random(f"{seed}/{scene_id}")
    head_len = len(f"FOVLINK-FRAME {scene_id} 00000000\n")
    body = body_rng.randbytes(FRAME_BYTES - head_len)
    return f"FOVLINK-FRAME {scene_id} {zlib.crc32(body):08x}\n".encode("ascii") + body


def parse_frame_marker(frame: bytes) -> str | None:
    """Scene id of an intact generated frame, or None when it was altered."""
    head, sep, body = frame.partition(b"\n")
    parts = head.split(b" ")
    if not sep or len(parts) != 3 or parts[0] != b"FOVLINK-FRAME" or len(frame) != FRAME_BYTES:
        return None
    if f"{zlib.crc32(body):08x}".encode("ascii") != parts[2]:
        return None
    return parts[1].decode("ascii")


def _pick(rng: random.Random, mix) -> str:
    r = rng.random()
    for kind, weight in mix:
        r -= weight
        if r < 0:
            return kind
    return mix[-1][0]


def _overlapping_box(rng, gt):
    gx, gy, gx2, gy2 = gt
    w, h = gx2 - gx, gy2 - gy
    # each edge moves by at most 30% of the box size, so at least 40% of the
    # ground-truth width and height stays covered
    box = (
        gx + w * rng.uniform(-0.3, 0.3),
        gy + h * rng.uniform(-0.3, 0.3),
        gx2 + w * rng.uniform(-0.3, 0.3),
        gy2 + h * rng.uniform(-0.3, 0.3),
    )
    return tuple(min(1.0, max(0.0, v)) for v in box)


def _disjoint_box(rng, gt):
    gx, _, gx2, _ = gt
    # the free side is at least 0.35 wide because gt width is at most 0.3
    if gx > 1.0 - gx2:
        hi = gx - 0.02
        x2 = hi - rng.uniform(0.0, 0.3) * hi
        x = x2 - rng.uniform(0.2, 0.6) * x2
    else:
        lo = gx2 + 0.02
        x = lo + rng.uniform(0.0, 0.3) * (1.0 - lo)
        x2 = x + rng.uniform(0.2, 0.6) * (1.0 - x)
    y = rng.uniform(0.0, 0.6)
    y2 = y + rng.uniform(0.1, 1.0 - y)
    return (x, y, x2, y2)


def _overlaps(a, b) -> bool:
    return min(a[2], b[2]) - max(a[0], b[0]) > 0.0 and min(a[3], b[3]) - max(a[1], b[1]) > 0.0


def _coordinate_reply(rng: random.Random, scene: Scene) -> tuple[str, dict]:
    """Reply text plus the outcome a correct parser must report for it."""
    kind = _pick(rng, _COORD_MIX)
    gt = scene.gt_norm
    if kind.startswith("located"):
        raw = _overlapping_box(rng, gt) if rng.random() < _OVERLAP_SHARE else _disjoint_box(rng, gt)
        x, y, x2, y2 = (_f4(v) for v in raw)
        clamped = False
        if kind == "located_clamped":
            x2 = _f4(1.0 + rng.uniform(0.005, 0.05))
            clamped = True
        if kind == "located_off_template":
            text = rng.choice(_LOCATED_OFF_TEMPLATE).format(x=x, y=y, x2=x2, y2=y2)
        else:
            text = f"({x},{y}), ({x2},{y2})"
        box = [min(1.0, max(0.0, float(v))) for v in (x, y, x2, y2)]
        return text, {
            "kind": "located",
            "box": box,
            "clamped": clamped,
            "overlap": _overlaps(gt, box),
        }
    if kind == "PartialCoordinates":
        x, y, x2, _ = (_f4(v) for v in _overlapping_box(rng, gt))
        text = rng.choice(_PARTIAL).format(x=x, y=y, x2=x2)
    elif kind == "NoPedestrianDetected":
        text = rng.choice(_NEGATIONS)
    else:
        text = rng.choice(_AMBIGUOUS)
    return text, {"kind": kind}


def _binary_reply(rng: random.Random, label: bool) -> tuple[str, dict]:
    kind = _pick(rng, _BIN_MIX)
    if kind == "coerced":
        return rng.choice(_COERCED), {"kind": "verdict", "verdict": True, "coerced": True}
    verdict = label if kind == "correct" else not label
    return rng.choice(_YES if verdict else _NO), {"kind": "verdict", "verdict": verdict, "coerced": False}


def _encoded_size(record: dict) -> int:
    return len(json.dumps(record, separators=(",", ":"), ensure_ascii=False).encode("utf-8"))


def _response_payload(outcome: dict, text: str) -> dict:
    if outcome["kind"] == "located":
        x, y, x2, y2 = outcome["box"]
        box = {"x": x, "y": y, "x2": x2, "y2": y2, "clamped": outcome["clamped"]}
        return {"presence": True, "box": box, "description": None, "failure_kind": None}
    return {
        "presence": outcome["kind"] != "NoPedestrianDetected",
        "box": None,
        "description": text[:200],
        "failure_kind": outcome["kind"],
    }


def dialogue_bytes(prompt_id: str, prompt_text: str, replies: list[tuple[str, dict]]) -> int:
    """Encoded size of one ego/remote dialogue, per the V2V schema v1 docs.

    Remotes are ``remote_a``, ``remote_b``, ... in order; the simulated
    clock advances by each message's transmission time on the paper's link
    (1 Mbps, 10% overhead); mock replies add no model latency.
    """
    total = 0
    clock = 0.0
    for index, (text, outcome) in enumerate(replies):
        remote = f"remote_{chr(ord('a') + index)}"
        correlation = f"q{index:04d}"
        for sender, recipient, msg_type, payload in (
            ("ego", remote, "query", {"prompt_id": prompt_id, "prompt_text": prompt_text}),
            (remote, "ego", "response", _response_payload(outcome, text)),
        ):
            size = _encoded_size(
                {
                    "version": "1",
                    "msg_type": msg_type,
                    "sender_id": sender,
                    "recipient_id": recipient,
                    "correlation_id": correlation,
                    "timestamp": int(clock * 1000),
                    "payload": payload,
                }
            )
            total += size
            clock += size * 8 / (LINK_RATE_BPS * (1.0 - LINK_OVERHEAD))
    return total


def _tally_localization(outcomes: list[dict]) -> dict:
    counts = {
        "located": 0,
        "clamped": 0,
        "NoPedestrianDetected": 0,
        "PartialCoordinates": 0,
        "AmbiguousDescription": 0,
        "faults": 0,
        "n_overlapping": 0,
        "n_tests": 0,
    }
    for outcome in outcomes:
        if outcome["kind"] == "fault":
            counts["faults"] += 1
            continue
        counts["n_tests"] += 1
        counts[outcome["kind"]] += 1
        if outcome["kind"] == "located":
            counts["clamped"] += outcome["clamped"]
            counts["n_overlapping"] += outcome["overlap"]
    return counts


def _tally_binary(scenes: list[Scene], outcomes: dict, runs: int) -> dict:
    per_run = []
    for run in range(runs):
        tp = fn_ = fp = tn = 0
        for scene in scenes:
            outcome = outcomes[(scene.scene_id, run)]
            if outcome["kind"] == "fault":
                continue
            label, predicted = scene.box is not None, outcome["verdict"]
            tp += label and predicted
            fn_ += label and not predicted
            fp += (not label) and predicted
            tn += (not label) and not predicted
        per_run.append([tp, fn_, fp, tn])
    values = list(outcomes.values())
    return {
        "per_run": per_run,
        "coerced": sum(o.get("coerced", False) for o in values),
        "faults": sum(o["kind"] == "fault" for o in values),
        "queries": len(values),
    }


def _dump(path: Path, data) -> None:
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def generate(out: Path, seed: int, n_scenes: int, prompt_texts: dict[str, str], live: bool) -> None:
    """Write one workload's inputs and expected outcomes into ``out``.

    With ``live`` the replies are per (scene, prompt), identical across
    runs (a request carries no run index), and faults are transient HTTP
    errors that clear on retry instead of scripted gateway faults.
    """
    rng = random.Random(seed)
    scenes = _make_scenes(rng, n_scenes)
    positives = [s for s in scenes if s.box is not None]
    frames = out / "frames"
    frames.mkdir(parents=True, exist_ok=True)
    with open(out / "manifest.jsonl", "w", encoding="utf-8") as manifest:
        for scene in scenes:
            (frames / f"{scene.scene_id}.frame").write_bytes(_frame(seed, scene.scene_id))
            record = {
                "scene_id": scene.scene_id,
                "image_path": f"frames/{scene.scene_id}.frame",
                "width": scene.width,
                "height": scene.height,
                "has_pedestrian": scene.box is not None,
                "gt_boxes": [] if scene.box is None else [list(scene.box)],
                "tags": list(scene.tags),
            }
            manifest.write(json.dumps(record) + "\n")

    # replies[(scene_id, prompt_id, run)] = (text, outcome)
    replies: dict[tuple[str, str, int], tuple[str, dict]] = {}

    def draw(scene_id: str, prompt_id: str, run: int, make) -> None:
        # a live request carries no run index, so every run repeats run 0
        replies[(scene_id, prompt_id, run)] = replies[(scene_id, prompt_id, 0)] if live and run else make()

    for scene in scenes:
        for run in range(RUNS):
            draw(scene.scene_id, "BIN", run, lambda: _binary_reply(rng, scene.box is not None))
    for prompt_id in ("P1",) if live else COORD_PROMPTS:
        for scene in positives:
            for run in range(RUNS):
                draw(scene.scene_id, prompt_id, run, lambda: _coordinate_reply(rng, scene))

    keys = sorted(replies)
    fixture: dict[str, dict] = {}
    live_faults: dict[str, int] = {}
    if live:
        contents = sorted({(s, p) for s, p, _ in keys})
        n_transient = max(1, round(LIVE_RETRY_SHARE * len(keys)))
        for scene_id, prompt_id in rng.sample(contents, n_transient):
            live_faults[f"{scene_id}|{prompt_id}"] = rng.choice((429, 503))
    else:
        for key in rng.sample(keys, round(FAULT_SHARE * len(keys))):
            replies[key] = ("", {"kind": "fault", "fault": rng.choice(FAULT_KINDS)})
        for key in keys:
            text, outcome = replies[key]
            flat = "|".join(map(str, key))
            fixture[flat] = {"fault": outcome["fault"]} if outcome["kind"] == "fault" else {"text": text}

    binary = {(s, run): replies[(s, "BIN", run)][1] for s, p, run in keys if p == "BIN"}
    expected = {
        "seed": seed,
        "n_scenes": n_scenes,
        "n_positives": len(positives),
        "runs": RUNS,
        "frame_bytes": FRAME_BYTES,
        "binary": {"BIN": _tally_binary(scenes, binary, RUNS)},
        "localization": {
            p: _tally_localization([replies[k][1] for k in keys if k[1] == p])
            for p in sorted({k[1] for k in keys} - {"BIN"})
        },
    }
    if live:
        expected["transient_faults"] = len(live_faults)
        _dump(
            out / "live.json",
            {
                "prompts": {p: prompt_texts[p] for p in ("BIN", "P1")},
                "replies": {f"{s}|{p}": replies[(s, p, 0)][0] for s, p, run in keys if run == 0},
                "faults": live_faults,
            },
        )
    else:
        # the paper's four-message dialogue: two remotes, one P1 query each,
        # over consecutive positives whose run-0 P1 reply is not a fault
        usable = [s.scene_id for s in positives if replies[(s.scene_id, "P1", 0)][1]["kind"] != "fault"]
        pairs = [usable[i : i + 2] for i in range(0, len(usable) - 1, 2)]
        expected["dialogues"] = {
            "pairs": pairs,
            "bytes": [
                dialogue_bytes("P1", prompt_texts["P1"], [replies[(s, "P1", 0)] for s in pair])
                for pair in pairs
            ],
            "link": {"rate_bps": LINK_RATE_BPS, "overhead": LINK_OVERHEAD},
        }
        _dump(out / "fixture.json", fixture)
    _dump(out / "expected.json", expected)
