"""Command-line front-end for the experiments and the V2V simulation.

Exit codes: 0 success, 1 usage error, 2 data/schema error, 3 backend
exhaustion. A malformed mock fixture, or a fixture key without a scripted
entry, counts as a data error (2), not a backend failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .dataset import SceneSet, load_manifest
from .errors import FovlinkError
from .experiments import (
    AllScenesFailed,
    ExperimentConfig,
    failure_lowlight_share,
    lowlight_by_scene,
    run_binary_experiment,
    run_localization_experiment,
    run_prompt_comparison,
)
from .gateway import (
    Gateway,
    GatewayError,
    LiveBackend,
    MalformedBackendReply,
    MockBackend,
    QueryParams,
    UnscriptedKey,
)
from .prompts import UnknownPromptId
from .report import (
    RENDER_TARGETS,
    ReportBundle,
    consistency_or_none,
    emit_report,
    normalize_targets,
    rerender,
)
from .v2v import load_scenario, run_dialogue

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_BACKEND = 3


class _FixtureError(FovlinkError):
    """The mock fixture file could not be loaded."""


def _bounded(convert, rule: str, ok):
    """argparse type: ``convert`` the text, then reject values that break ``rule``."""

    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value

    parse.__name__ = convert.__name__  # argparse names it in "invalid int value"
    return parse


_AT_LEAST_ONE = _bounded(int, ">= 1", lambda v: v >= 1)
_NON_NEGATIVE_INT = _bounded(int, ">= 0", lambda v: v >= 0)
_NON_NEGATIVE_FLOAT = _bounded(float, ">= 0", lambda v: v >= 0)
_POSITIVE_FLOAT = _bounded(float, "> 0", lambda v: v > 0)
_PROMPT_IDS = _bounded(
    lambda text: tuple(p.strip() for p in text.split(",") if p.strip()),
    "comma-separated prompt ids, each named once",
    lambda ids: len(set(ids)) == len(ids),
)


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit with code 1 instead of 2."""

    def error(self, message: str):  # noqa: D102 - argparse contract
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--backend", choices=("live", "mock"), default="mock")
    shared.add_argument("--fixture", type=Path, help="mock reply script (JSON)")
    shared.add_argument("--model", default="gpt-4o", help="model name for live mode")
    shared.add_argument("--parallelism", type=_AT_LEAST_ONE, default=1)
    shared.add_argument("--max-tokens", type=_AT_LEAST_ONE, default=300)
    shared.add_argument("--temperature", type=_NON_NEGATIVE_FLOAT, default=0.0)
    shared.add_argument("--timeout", type=_POSITIVE_FLOAT, default=60.0)
    shared.add_argument("--retries", type=_NON_NEGATIVE_INT, default=2)

    parser = _Parser(prog="fovlink", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    exp1 = sub.add_parser("exp1", parents=[shared], help="binary pedestrian detection")
    exp1.add_argument("--manifest", type=Path, required=True)
    exp1.add_argument("--prompt", default="BIN", help="BIN or BIN_REFINED")
    exp1.add_argument("--runs", type=_AT_LEAST_ONE, default=3)
    exp1.add_argument("--out", type=Path, required=True)

    exp2 = sub.add_parser("exp2", parents=[shared], help="bounding-box localization")
    exp2.add_argument("--manifest", type=Path, required=True)
    exp2.add_argument("--prompt", default="P1")
    exp2.add_argument("--runs", type=_AT_LEAST_ONE, default=3)
    exp2.add_argument("--out", type=Path, required=True)

    exp3 = sub.add_parser("exp3", parents=[shared], help="prompt comparison")
    exp3.add_argument("--manifest", type=Path, required=True)
    exp3.add_argument(
        "--prompts", type=_PROMPT_IDS, default="P1,P2,P3", help="comma-separated prompt ids"
    )
    exp3.add_argument("--runs", type=_AT_LEAST_ONE, default=3)
    exp3.add_argument("--out", type=Path, required=True)

    v2v = sub.add_parser("v2v", parents=[shared], help="vehicle dialogue simulation")
    v2v.add_argument("--scenario", type=Path, required=True)
    v2v.add_argument("--manifest", type=Path, required=True)
    v2v.add_argument("--out", type=Path, required=True)

    report = sub.add_parser("report", help="re-render reports from result files")
    report.add_argument("--in", dest="in_dir", type=Path, required=True)
    report.add_argument("--targets", default=",".join(RENDER_TARGETS))

    return parser


def _make_gateway(args) -> Gateway:
    if args.backend == "mock":
        try:
            return Gateway(MockBackend.from_file(args.fixture))
        except MalformedBackendReply as e:
            raise _FixtureError(str(e)) from e
    return Gateway(LiveBackend())


def _query_params(args) -> QueryParams:
    return QueryParams(
        model_name=args.model,
        max_tokens=args.max_tokens,
        temperature=args.temperature,
        timeout=args.timeout,
        max_retries=args.retries,
    )


def _experiment_inputs(args) -> tuple[SceneSet, Gateway, ExperimentConfig]:
    """Scenes, gateway and config that exp1, exp2 and exp3 start from."""
    scenes = load_manifest(args.manifest)
    gateway = _make_gateway(args)
    config = ExperimentConfig(
        runs_per_prompt=args.runs, parallelism=args.parallelism, params=_query_params(args)
    )
    return scenes, gateway, config


def _emit_experiment(out: Path, scenes: SceneSet, results, **parts) -> list[Path]:
    """Write an experiment's report with the scene maps and run consistency."""
    bundle = ReportBundle(
        consistency=consistency_or_none(results),
        labels={r.scene_id: r.has_pedestrian for r in scenes},
        lowlight=lowlight_by_scene(scenes),
        **parts,
    )
    return emit_report(bundle, RENDER_TARGETS, out)


def _cmd_exp1(args) -> list[Path]:
    scenes, gateway, config = _experiment_inputs(args)
    outcome = run_binary_experiment(scenes, args.prompt, gateway, config)
    files = _emit_experiment(args.out, scenes, outcome.results, binary=outcome)
    m = outcome.matrix
    recall = outcome.stats.recall
    recall_txt = "n/a" if recall is None else f"{recall * 100:.2f}%"
    print(f"exp1 {args.prompt}: matrix (tp={m.tp}, fn={m.fn_}, fp={m.fp}, tn={m.tn}), recall {recall_txt}")
    return files


def _cmd_exp2(args) -> list[Path]:
    scenes, gateway, config = _experiment_inputs(args)
    outcome = run_localization_experiment(scenes, args.prompt, gateway, config)
    share = failure_lowlight_share(outcome.results, lowlight_by_scene(scenes))
    files = _emit_experiment(
        args.out, scenes, outcome.results, localization=outcome, lowlight_share=share
    )
    s = outcome.summary
    print(
        f"exp2 {args.prompt}: union rate {s.union_rate * 100:.2f}% over {s.n_tests} tests, "
        f"recall_all {s.recall_mean_all * 100:.2f}%"
    )
    return files


def _cmd_exp3(args) -> list[Path]:
    scenes, gateway, config = _experiment_inputs(args)
    comparison = run_prompt_comparison(scenes, args.prompts, gateway, config)
    files = _emit_experiment(args.out, scenes, comparison.results, comparison=comparison)
    for pid, summary in comparison.summary_table():
        print(f"exp3 {pid}: union rate {summary.union_rate * 100:.2f}%")
    return files


def _cmd_v2v(args) -> list[Path]:
    ego, remotes, link, prompt_id = load_scenario(args.scenario)
    scenes = load_manifest(args.manifest)
    gateway = _make_gateway(args)
    transcript = run_dialogue(ego, remotes, scenes, prompt_id, gateway, link, _query_params(args))
    files = emit_report(ReportBundle(transcript=transcript), RENDER_TARGETS, args.out)
    c = transcript.comparison()
    ratio_txt = "n/a" if c.ratio is None else f"{c.ratio:.6f}"
    print(
        f"v2v: {len(transcript.messages)} messages, dialogue {c.dialogue_bytes} B "
        f"({c.dialogue_time:.6f} s) vs stream {c.stream_bytes} B ({c.stream_time:.6f} s), "
        f"ratio {ratio_txt}"
    )
    return files


def _cmd_report(args) -> list[Path]:
    targets = normalize_targets(t.strip() for t in args.targets.split(",") if t.strip())
    return rerender(args.in_dir, targets)


_COMMANDS = {
    "exp1": _cmd_exp1,
    "exp2": _cmd_exp2,
    "exp3": _cmd_exp3,
    "v2v": _cmd_v2v,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "backend", None) == "mock" and not args.fixture:
        parser.error(f"{args.command}: --backend mock requires --fixture")
    try:
        for path in _COMMANDS[args.command](args):
            print(f"wrote {path}")
        return EXIT_OK
    except (_FixtureError, UnscriptedKey) as e:
        print(f"fovlink: fixture error: {e}", file=sys.stderr)
        return EXIT_DATA
    except (GatewayError, AllScenesFailed) as e:
        print(f"fovlink: backend failure: {e}", file=sys.stderr)
        return EXIT_BACKEND
    except UnknownPromptId as e:
        print(f"fovlink: {e}", file=sys.stderr)
        return EXIT_USAGE
    except FovlinkError as e:
        print(f"fovlink: {e}", file=sys.stderr)
        return EXIT_DATA
    except OSError as e:
        print(f"fovlink: i/o error: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    raise SystemExit(main())
