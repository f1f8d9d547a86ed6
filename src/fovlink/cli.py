"""Command-line front-end for the experiments and the V2V simulation.

Exit codes: 0 success, 1 usage error, 2 data/schema error, 3 backend
exhaustion, 130 interrupted (Ctrl-C, the status a shell reports for
SIGINT). A malformed mock fixture, or a fixture key without a scripted
entry, counts as a data error (2), not a backend failure.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from pathlib import Path

from .dataset import load_manifest
from .errors import FovlinkError
from .experiments import (
    AllScenesFailed,
    ExperimentConfig,
    check_prompts,
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
from .prompts import ExpectedFormat, UnknownPromptId
from .report import (
    RENDER_TARGETS,
    ReportBundle,
    emit_report,
    normalize_targets,
    report_bundle,
    rerender,
)
from .v2v import load_scenario, run_dialogue

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_BACKEND = 3
EXIT_INTERRUPTED = 130


def _field(owner, name: str) -> dict:
    """add_argument keywords for the flag that sets ``owner``'s field ``name``: its default, and a type that rejects what ``owner`` does."""
    default = getattr(owner(), name)

    def parse(text: str):
        value = type(default)(text)
        try:
            owner(**{name: value})
        except ValueError as e:
            raise argparse.ArgumentTypeError(f"{e}, got {text}") from None
        return value

    parse.__name__ = type(default).__name__  # argparse names it in "invalid int value"
    return {"type": parse, "default": default}


def _comma_list(what: str, text: str) -> tuple[str, ...]:
    """argparse type, given ``what`` with ``partial``: comma-separated ``what``, each named once."""
    names = tuple(n.strip() for n in text.split(",") if n.strip())
    if not names:
        raise argparse.ArgumentTypeError(f"must name at least one of the {what}, got none")
    if len(set(names)) != len(names):
        raise argparse.ArgumentTypeError(f"must be comma-separated {what}, each named once, got {text}")
    return names


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit with code 1 instead of 2."""

    def error(self, message: str):  # noqa: D102 - argparse contract
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _binary_summary(prompt: str, outcome) -> str:
    m, recall = outcome.matrix, outcome.stats.recall
    recall_txt = "n/a" if recall is None else f"{recall * 100:.2f}%"
    return f"exp1 {prompt}: matrix (tp={m.tp}, fn={m.fn_}, fp={m.fp}, tn={m.tn}), recall {recall_txt}"


def _localization_summary(prompt: str, outcome) -> str:
    s = outcome.summary
    return (
        f"exp2 {prompt}: union rate {s.union_rate * 100:.2f}% over {s.n_tests} tests, "
        f"recall_all {s.recall_mean_all * 100:.2f}%"
    )


def _comparison_summary(prompts, outcome) -> str:
    return "\n".join(f"exp3 {pid}: union rate {s.union_rate * 100:.2f}%" for pid, s in outcome.summary_table())


# subcommand -> (help, prompt flag, its add_argument keywords, the format of
# its prompts, runner, ReportBundle part, stdout summary); the flag is stored
# as args.prompt
_EXPERIMENTS = {
    "exp1": (
        "binary pedestrian detection", "--prompt", {"default": "BIN", "help": "BIN or BIN_REFINED"},
        ExpectedFormat.YES_NO, run_binary_experiment, "binary", _binary_summary,
    ),
    "exp2": (
        "bounding-box localization", "--prompt", {"default": "P1"},
        ExpectedFormat.COORDINATE_TEMPLATE, run_localization_experiment, "localization", _localization_summary,
    ),
    "exp3": (
        "prompt comparison", "--prompts",
        {"type": partial(_comma_list, "prompt ids"), "default": "P1,P2,P3", "help": "comma-separated prompt ids", "metavar": "PROMPTS"},
        ExpectedFormat.COORDINATE_TEMPLATE, run_prompt_comparison, "comparison", _comparison_summary,
    ),
}


def _build_parser() -> _Parser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--backend", choices=("live", "mock"), default="mock")
    shared.add_argument("--fixture", type=Path, help="mock reply script (JSON)")
    shared.add_argument("--model", default="gpt-4o", help="model name for live mode")
    shared.add_argument("--max-tokens", **_field(QueryParams, "max_tokens"))
    shared.add_argument("--temperature", **_field(QueryParams, "temperature"))
    shared.add_argument("--timeout", **_field(QueryParams, "timeout"))
    shared.add_argument("--retries", **_field(QueryParams, "max_retries"))
    shared.add_argument("--manifest", type=Path, required=True)
    shared.add_argument("--out", type=Path, required=True)

    parser = _Parser(prog="fovlink", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (help_text, flag, prompt_kwargs, *_) in _EXPERIMENTS.items():
        experiment = sub.add_parser(name, parents=[shared], help=help_text)
        experiment.add_argument(flag, dest="prompt", **prompt_kwargs)
        experiment.add_argument("--runs", **_field(ExperimentConfig, "runs_per_prompt"))
        experiment.add_argument("--parallelism", **_field(ExperimentConfig, "parallelism"))

    v2v = sub.add_parser("v2v", parents=[shared], help="vehicle dialogue simulation")
    v2v.add_argument("--scenario", type=Path, required=True)

    report = sub.add_parser("report", help="re-render reports from result files")
    report.add_argument("--in", dest="in_dir", type=Path, required=True)
    report.add_argument("--targets", type=partial(_comma_list, "render targets"), default=",".join(RENDER_TARGETS))

    return parser


def _make_gateway(args) -> Gateway:
    if args.backend == "mock":
        return Gateway(MockBackend.from_file(args.fixture))
    return Gateway(LiveBackend())


def _query_params(args) -> QueryParams:
    return QueryParams(
        model_name=args.model,
        max_tokens=args.max_tokens,
        temperature=args.temperature,
        timeout=args.timeout,
        max_retries=args.retries,
    )


def _cmd_experiment(args) -> list[Path]:
    *_, expected_format, run, part, summary = _EXPERIMENTS[args.command]
    # every prompt id is checked before any input file is read
    check_prompts(args.prompt if isinstance(args.prompt, tuple) else (args.prompt,), expected_format)
    scenes = load_manifest(args.manifest)
    config = ExperimentConfig(runs_per_prompt=args.runs, parallelism=args.parallelism, params=_query_params(args))
    outcome = run(scenes, args.prompt, _make_gateway(args), config)
    bundle = report_bundle({part: outcome}, dict(scenes.labels()), lowlight_by_scene(scenes))
    files = emit_report(bundle, RENDER_TARGETS, args.out)
    print(summary(args.prompt, outcome))
    return files


def _cmd_v2v(args) -> list[Path]:
    ego, remotes, link, prompt_id = load_scenario(args.scenario)
    scenes, gateway = load_manifest(args.manifest), _make_gateway(args)
    t = run_dialogue(ego, remotes, scenes, prompt_id, gateway, link, _query_params(args))
    files = emit_report(ReportBundle(transcript=t), RENDER_TARGETS, args.out)
    ratio_txt = "n/a" if t.ratio is None else f"{t.ratio:.6f}"
    print(
        f"v2v: {len(t.messages)} messages, dialogue {t.dialogue_bytes} B "
        f"({t.dialogue_time:.6f} s) vs stream {t.stream_bytes} B ({t.stream_time:.6f} s), "
        f"ratio {ratio_txt}"
    )
    return files


def _cmd_report(args) -> list[Path]:
    return rerender(args.in_dir, normalize_targets(args.targets))


_COMMANDS = {**dict.fromkeys(_EXPERIMENTS, _cmd_experiment), "v2v": _cmd_v2v, "report": _cmd_report}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "backend", None) == "mock" and not args.fixture:
        parser.error(f"{args.command}: --backend mock requires --fixture")
    try:
        for path in _COMMANDS[args.command](args):
            print(f"wrote {path}")
        return EXIT_OK
    # from the fixture: query_detection records every other GatewayError, a bad reply too, as a fault
    except (MalformedBackendReply, UnscriptedKey) as e:
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
    except KeyboardInterrupt:
        print("fovlink: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    raise SystemExit(main())
