"""Orchestration of the three evaluation experiments.

Experiment 1 asks the yes/no presence question over positives and
negatives and scores a confusion matrix. Experiment 2 asks for a
bounding box over the positives and scores the three localization
measures. Experiment 3 repeats experiment 2 across the registered
coordinate prompts for a comparative table.

The dispatch unit is one scene: a task opens the scene's frame once and
asks every (prompt, run) of the experiment about it, handing every
backend the ``Frame``. The live backend reads and encodes the frame once
per task, at its first query, and the task keeps only the encoding:
experiment 3 reads each positive once for all its prompts, and a
simulated backend, which never looks at the pixels, reads no frame. For
a backend that waits on the network, ``parallelism`` is the number of
workers, at most one per scene: the calling thread and plain threads, no
thread pool, so it caps the requests in flight. A worker whose query
sleeps out a retry's backoff runs the next whole tasks meanwhile, and a
task taken up that way may lend its own backoffs one level deeper, but
no further. A simulated backend never waits, so its tasks run on the
calling thread whatever the parallelism. A dispatch parses each distinct
reply once per expected format: results that received equal replies
share one frozen detection. Each prompt's results are sorted by
(scene_id, prompt_id, run_idx) so output never depends on completion
order. Per-scene gateway faults become recorded fault results; a run
aborts only when every scene failed for a prompt, or for one run of
experiment 1.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field
from functools import partial
from itertools import combinations

from . import stats as stats_mod
from .dataset import Frame, SceneRecord, SceneSet
from .errors import FovlinkError
from .gateway import Gateway, GatewayError, QueryParams, UnscriptedKey
from .geometry import NormalizedBBox, iou, normalize_bbox, overlap_recall, overlaps
from .parsing import DetectionKind, FailureKind, ParsedDetection, detect_bbox, detect_binary
from .prompts import ExpectedFormat, PromptSpec, UnknownPromptId, get_prompt

LOWLIGHT_TAGS = frozenset({"dusk", "sunset", "shade", "solar_glare"})

CONSISTENCY_IOU_THRESHOLD = 0.5


class ExperimentPrecondition(FovlinkError):
    """An experiment was invoked with arguments violating its contract."""


class WrongPromptKind(UnknownPromptId, ExperimentPrecondition):
    """A registered prompt of a kind the experiment does not take: a usage error, as an unknown id is."""


class AllScenesFailed(FovlinkError):
    """Every scene failed at the gateway; there is nothing to score."""


class InsufficientRuns(FovlinkError):
    """Consistency analysis needs at least one (scene, prompt) with two runs."""


class EmptyFailureSet(FovlinkError):
    """Low-light share requested over zero failures."""


@dataclass(frozen=True, slots=True)
class RunResult:
    """One (scene, prompt, run) outcome: a parsed detection or a recorded fault."""

    scene_id: str
    prompt_id: str
    run_idx: int
    detection: ParsedDetection | None
    latency: float
    raw_text: str
    fault: str | None = None

    @property
    def outcome(self) -> str:
        """``"fault"``, or the kind of the detection: the record's ``outcome`` field."""
        return "fault" if self.detection is None else self.detection.kind.value


@dataclass(frozen=True, slots=True)
class ExperimentConfig:
    runs_per_prompt: int = 3
    parallelism: int = 1
    params: QueryParams = field(default_factory=QueryParams)

    def __post_init__(self) -> None:
        if self.runs_per_prompt < 1:
            raise ValueError("runs_per_prompt must be >= 1")
        if self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")


@dataclass(frozen=True, slots=True)
class LocalizationSample:
    scene_id: str
    run_idx: int
    overlap: bool
    recall: float
    iou: float
    failure_kind: FailureKind | None = None


@dataclass(frozen=True, slots=True)
class BinaryExperimentResult:
    results: tuple[RunResult, ...]
    matrix: stats_mod.ConfusionMatrix
    stats: stats_mod.DetectionStats
    per_run_matrices: tuple[stats_mod.ConfusionMatrix, ...]
    per_run_stats: tuple[stats_mod.DetectionStats, ...]


@dataclass(frozen=True, slots=True)
class LocalizationExperimentResult:
    results: tuple[RunResult, ...]
    samples: tuple[LocalizationSample, ...]
    summary: stats_mod.LocalizationSummary


@dataclass(frozen=True, slots=True)
class PromptComparison:
    prompt_ids: tuple[str, ...]
    runs: dict[str, LocalizationExperimentResult]

    def summary_table(self) -> list[tuple[str, stats_mod.LocalizationSummary]]:
        return [(pid, self.runs[pid].summary) for pid in self.prompt_ids]

    @property
    def results(self) -> tuple[RunResult, ...]:
        """Every prompt's results, in prompt order."""
        return tuple(r for pid in self.prompt_ids for r in self.runs[pid].results)


@dataclass(frozen=True, slots=True)
class ConsistencyRecord:
    scene_id: str
    prompt_id: str
    n_runs: int
    kinds: tuple[str, ...]
    min_pairwise_iou: float | None  # boxes only: None unless every run located one

    @property
    def flagged(self) -> bool:
        """The runs mix outcome kinds, or two of their boxes overlap below ``CONSISTENCY_IOU_THRESHOLD``."""
        if self.min_pairwise_iou is None:
            return len(self.kinds) > 1
        return self.min_pairwise_iou < CONSISTENCY_IOU_THRESHOLD


def _detect(
    expected_format: ExpectedFormat, text: str, parsed: dict[tuple[ExpectedFormat, str], ParsedDetection]
) -> ParsedDetection:
    """``text`` parsed for ``expected_format``, looked up in or added to ``parsed``."""
    detection = parsed.get((expected_format, text))
    if detection is None:
        detect = detect_binary if expected_format is ExpectedFormat.YES_NO else detect_bbox
        # threads may share ``parsed`` without a lock: a race only parses twice
        detection = parsed[expected_format, text] = detect(text)
    return detection


def query_detection(
    frame: Frame,
    scene_id: str,
    prompt: PromptSpec,
    run_idx: int,
    gateway: Gateway,
    params: QueryParams,
    parsed: dict[tuple[ExpectedFormat, str], ParsedDetection],
) -> RunResult:
    """Ask the vision model about one frame and parse its reply.

    The one query → detection step shared by the experiments and the V2V
    dialogue. Every backend gets the ``Frame``: a simulated one answers
    by key without looking at the pixels, and the live one sends the
    frame's base64 encoding, made by its first request, once per scene
    task, without keeping the raw bytes.
    A reply already in ``parsed`` (by expected format and text) reuses its
    detection; others are parsed and added. A gateway fault becomes a
    recorded fault result; an unscripted mock key is a harness bug and
    propagates.
    """
    key = (scene_id, prompt.prompt_id, run_idx)
    try:
        response = gateway.send_vision_query(frame, prompt.text, params, key)
    except UnscriptedKey:
        # a hole in the fixture is a harness bug, not a backend fault
        raise
    except GatewayError as e:
        detection, latency, raw_text = None, 0.0, ""
        fault = f"{type(e).__name__}: {e}"
    else:
        detection = _detect(prompt.expected_format, response.text, parsed)
        latency, raw_text, fault = response.latency, response.text, None
    return RunResult(
        scene_id=scene_id,
        prompt_id=prompt.prompt_id,
        run_idx=run_idx,
        detection=detection,
        latency=latency,
        raw_text=raw_text,
        fault=fault,
    )


# a scene taken up during a backoff lends its own backoffs to scenes one
# level deeper; at this depth a backoff only sleeps, so a storm of faults
# nests no deeper than this however many scenes it hits
_LENDING_DEPTH = 2


def _take_up(next_task, run, gateway: Gateway, depth: int = 0, deadline: float = math.inf) -> None:
    """``run(task, view)`` each task from ``next_task()`` until none is left or ``deadline`` (monotonic) passes.

    ``view`` lends each backoff to this function one level deeper, down to
    ``_LENDING_DEPTH``. A module function, not a closure that names itself,
    so a dispatch leaves no reference cycle holding its results.
    """
    if depth < _LENDING_DEPTH:
        gateway = gateway.lending(partial(_take_up, next_task, run, gateway, depth + 1))
    while time.monotonic() < deadline and (task := next_task()) is not None:
        run(task, gateway)


def _dispatch(
    scenes: list[SceneRecord],
    prompts: tuple[PromptSpec, ...],
    gateway: Gateway,
    config: ExperimentConfig,
) -> dict[str, tuple[RunResult, ...]]:
    """Every (scene, prompt, run) query, one task per scene; results per prompt id.

    Each task opens its scene's frame once; the live backend reads and
    encodes it once, at its first query. Workers take whole tasks in turn
    from one iterator. A simulated backend answers at once, so its one
    worker is the calling thread; a backend that waits on the network gets
    ``parallelism`` workers, at most one per scene: the calling thread and
    plain threads, no pool. A worker whose query backs off takes up the
    next whole tasks through the gateway view from ``Gateway.lending``
    until the backoff's deadline passes, then sleeps out what is left of
    it, so at most ``parallelism`` requests are in flight and no worker
    idles through a backoff while tasks remain. An exception on any
    worker, a KeyboardInterrupt on the calling thread among them, stops
    every worker from taking another task and is raised once all are
    done. Every task parses through one memo that lasts for this dispatch
    only.
    """
    if not scenes:
        raise ExperimentPrecondition("experiment invoked with zero scenes")
    parsed: dict[tuple[ExpectedFormat, str], ParsedDetection] = {}
    by_prompt: dict[str, list[RunResult]] = {prompt.prompt_id: [] for prompt in prompts}
    tasks = iter(scenes)
    taking = threading.Lock()
    failures: list[BaseException] = []

    def next_task() -> SceneRecord | None:
        with taking:
            return None if failures else next(tasks, None)

    def run(scene: SceneRecord, view: Gateway) -> None:
        frame = Frame(scene)
        for prompt in prompts:
            by_prompt[prompt.prompt_id].extend([
                query_detection(frame, scene.scene_id, prompt, run_idx, view, config.params, parsed)
                for run_idx in range(config.runs_per_prompt)
            ])

    def work() -> None:
        try:
            _take_up(next_task, run, gateway)
        except BaseException as e:
            # every worker finishes the task it holds and takes no other
            failures.append(e)

    workers = 1 if gateway.backend.simulated else min(config.parallelism, len(scenes))
    helpers = [threading.Thread(target=work) for _ in range(workers - 1)]
    for helper in helpers:
        helper.start()
    work()
    for helper in helpers:
        helper.join()
    if failures:
        # the first failure leaves the list as it is raised: its traceback
        # holds the frames that hold the list, so no reference cycle is left
        del failures[1:]
        raise failures.pop()
    for results in by_prompt.values():
        if all(r.fault is not None for r in results):
            raise AllScenesFailed(f"all {len(scenes)} scenes failed at the gateway")
        results.sort(key=lambda r: (r.scene_id, r.prompt_id, r.run_idx))
    return {prompt_id: tuple(results) for prompt_id, results in by_prompt.items()}


def _matrix_for_run(
    results: tuple[RunResult, ...], labels: list[tuple[str, bool]], run_idx: int
) -> stats_mod.ConfusionMatrix:
    predictions = [
        (r.scene_id, r.detection.verdict)
        for r in results
        if r.run_idx == run_idx and r.detection is not None and r.detection.verdict is not None
    ]
    return stats_mod.build_confusion_matrix(predictions, labels)


# the kind of prompt each format is, as an error names it
_PROMPT_KINDS = {ExpectedFormat.YES_NO: "yes/no", ExpectedFormat.COORDINATE_TEMPLATE: "coordinate"}


def check_prompts(prompt_ids: tuple[str, ...], expected_format: ExpectedFormat) -> tuple[PromptSpec, ...]:
    """The prompts ``prompt_ids`` names, each once, every one of ``expected_format``.

    An unknown id raises ``UnknownPromptId``, and a prompt of another
    format ``WrongPromptKind``, which is both that and an
    ``ExperimentPrecondition``.
    """
    prompts = tuple(get_prompt(prompt_id) for prompt_id in dict.fromkeys(prompt_ids))
    for prompt in prompts:
        if prompt.expected_format is not expected_format:
            raise WrongPromptKind(f"prompt {prompt.prompt_id} is not a {_PROMPT_KINDS[expected_format]} prompt")
    return prompts


def run_binary_experiment(
    scenes: SceneSet, prompt_id: str, gateway: Gateway, config: ExperimentConfig
) -> BinaryExperimentResult:
    """Experiment 1: one presence query per scene per run.

    Unparseable replies count as predicted-positive (a missed pedestrian
    is the costly error) and stay flagged via detection.coerced. The
    headline matrix comes from run 0; per-run matrices are kept because
    identical metrics can still hide false positives moving between
    images across runs. Faulted scenes drop out of the join, leaving a
    visible column-sum shortfall.
    """
    (prompt,) = check_prompts((prompt_id,), ExpectedFormat.YES_NO)
    results = _dispatch(list(scenes), (prompt,), gateway, config)[prompt_id]
    for run_idx in range(config.runs_per_prompt):
        if all(r.fault is not None for r in results if r.run_idx == run_idx):
            raise AllScenesFailed(
                f"all {len(scenes)} scenes failed at the gateway in run {run_idx}"
            )
    return binary_result(results, scenes.labels(), config.runs_per_prompt)


def binary_result(
    results: tuple[RunResult, ...], labels: list[tuple[str, bool]], n_runs: int
) -> BinaryExperimentResult:
    """Score sorted binary results: one confusion matrix per run, run 0 the headline."""
    per_run = tuple(_matrix_for_run(results, labels, run_idx) for run_idx in range(n_runs))
    per_run_stats = tuple(stats_mod.derive_detection_stats(m) for m in per_run)
    return BinaryExperimentResult(
        results=results,
        matrix=per_run[0],
        stats=per_run_stats[0],
        per_run_matrices=per_run,
        per_run_stats=per_run_stats,
    )


def _score_detection(
    detection: ParsedDetection, gt: NormalizedBBox, scene_id: str, run_idx: int
) -> LocalizationSample:
    box = detection.box
    if detection.kind is DetectionKind.FAILURE:
        overlap, recall, box_iou = False, 0.0, 0.0
    else:
        assert box is not None
        overlap, recall, box_iou = overlaps(gt, box), overlap_recall(gt, box), iou(gt, box)
    return LocalizationSample(
        scene_id=scene_id,
        run_idx=run_idx,
        overlap=overlap,
        recall=recall,
        iou=box_iou,
        failure_kind=detection.failure_kind,
    )


def run_localization_experiment(
    scenes: SceneSet, prompt_id: str, gateway: Gateway, config: ExperimentConfig
) -> LocalizationExperimentResult:
    """Experiment 2: coordinate queries over the positive scenes.

    Every positive must carry exactly one ground-truth box. Parse
    failures are scored overlap=false with recall and IoU 0 and keep
    their taxonomy kind; gateway faults are recorded but not scored.
    """
    return _localize(scenes, (prompt_id,), gateway, config)[prompt_id]


def _localize(
    scenes: SceneSet, prompt_ids: tuple[str, ...], gateway: Gateway, config: ExperimentConfig
) -> dict[str, LocalizationExperimentResult]:
    """Validate every prompt, query all of them in one dispatch, score each."""
    prompts = check_prompts(prompt_ids, ExpectedFormat.COORDINATE_TEMPLATE)
    multi = [r.scene_id for r in scenes.positives if len(r.gt_boxes) != 1]
    if multi:
        raise ExperimentPrecondition(
            f"localization needs exactly one gt box per scene, offending: {multi}"
        )
    dispatched = _dispatch(list(scenes.positives), prompts, gateway, config)

    gt_by_scene = {
        r.scene_id: normalize_bbox(r.gt_boxes[0], r.width, r.height) for r in scenes.positives
    }
    return {
        prompt_id: localization_result(
            results,
            tuple(
                _score_detection(r.detection, gt_by_scene[r.scene_id], r.scene_id, r.run_idx)
                for r in results
                if r.detection is not None
            ),
        )
        for prompt_id, results in dispatched.items()
    }


def localization_result(
    results: tuple[RunResult, ...], samples: tuple[LocalizationSample, ...]
) -> LocalizationExperimentResult:
    """Summarize scored localization samples next to the results behind them."""
    summary = stats_mod.summarize_localization(
        [(s.scene_id, s.run_idx, s.overlap, s.recall, s.iou) for s in samples]
    )
    return LocalizationExperimentResult(results=results, samples=samples, summary=summary)


def run_prompt_comparison(
    scenes: SceneSet,
    prompt_ids: tuple[str, ...] | list[str],
    gateway: Gateway,
    config: ExperimentConfig,
) -> PromptComparison:
    """Experiment 3: the localization experiment across several prompts.

    Every prompt is validated before any query; the prompts then share one
    dispatch, so a backend that reads frames reads each positive's once
    for all of them. A repeated prompt id is queried once and keeps its
    place in the table.
    Emits one localization summary per prompt plus the per-image recall
    samples behind the recall-distribution chart.
    """
    prompt_ids = tuple(prompt_ids)
    if not prompt_ids:
        raise ExperimentPrecondition("prompt comparison needs at least one prompt")
    runs = _localize(scenes, prompt_ids, gateway, config)
    return PromptComparison(prompt_ids=prompt_ids, runs=runs)


def _outcome_kind(result: RunResult) -> str:
    outcome, detection = result.outcome, result.detection
    if outcome == "verdict":
        return f"verdict:{str(detection.verdict).lower()}"
    if outcome == "failure":
        return f"failure:{detection.failure_kind.value}"
    return outcome


def _pairwise_iou(a: NormalizedBBox, b: NormalizedBBox) -> float:
    if a.area == 0.0 and b.area == 0.0:
        return 1.0 if a.as_list() == b.as_list() else 0.0
    return iou(a, b)


def analyze_run_consistency(results: list[RunResult] | tuple[RunResult, ...]) -> list[ConsistencyRecord]:
    """Per (scene, prompt) agreement across repeated runs.

    A group is flagged when runs mix outcome kinds (e.g. two boxes and a
    no-pedestrian reply) or, with boxes only, when any pairwise IoU falls
    below ``CONSISTENCY_IOU_THRESHOLD``. Cross-run disagreement on the
    same image is the hallucination signal this harness looks for.
    """
    groups: dict[tuple[str, str], list[RunResult]] = {}
    for result in results:
        groups.setdefault((result.scene_id, result.prompt_id), []).append(result)
    multi_run = {key: rs for key, rs in groups.items() if len(rs) >= 2}
    if not multi_run:
        raise InsufficientRuns("need at least two runs for some (scene, prompt)")

    records = []
    for (scene_id, prompt_id), rs in sorted(multi_run.items()):
        kinds = tuple(sorted({_outcome_kind(r) for r in rs}))
        min_iou: float | None = None
        if kinds == ("located",):
            boxes = [r.detection.box for r in rs]
            min_iou = min(_pairwise_iou(a, b) for a, b in combinations(boxes, 2))
        records.append(
            ConsistencyRecord(
                scene_id=scene_id,
                prompt_id=prompt_id,
                n_runs=len(rs),
                kinds=kinds,
                min_pairwise_iou=min_iou,
            )
        )
    return records


def lowlight_by_scene(scenes: SceneSet) -> dict[str, bool]:
    """scene_id -> whether the scene carries a low-light tag (dusk, sunset, shade, solar_glare)."""
    return {r.scene_id: bool(r.tags & LOWLIGHT_TAGS) for r in scenes}


def failure_lowlight_share(
    results: list[RunResult] | tuple[RunResult, ...], lowlight: dict[str, bool]
) -> float | None:
    """Fraction of failure scenes that ``lowlight`` marks low-light, None without failures.

    Counts distinct scenes whose replies fell into the failure taxonomy; a
    scene missing from ``lowlight`` counts as not low-light.
    """
    failure_scenes = {r.scene_id for r in results if r.outcome == "failure"}
    if not failure_scenes:
        return None
    return sum(1 for scene_id in failure_scenes if lowlight.get(scene_id)) / len(failure_scenes)


def lowlight_failure_share(
    results: list[RunResult] | tuple[RunResult, ...], scenes: SceneSet
) -> float:
    """Fraction of failure scenes shot in low-light conditions (see lowlight_by_scene)."""
    share = failure_lowlight_share(results, lowlight_by_scene(scenes))
    if share is None:
        raise EmptyFailureSet("no taxonomy failures in the result set")
    return share
