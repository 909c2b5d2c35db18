"""Command line interface.

Subcommands mirror the pipeline stages: ``gen-scene`` compiles one
description, ``paraphrase`` expands one instruction, ``plan`` writes a
campaign manifest, ``run`` executes a manifest against a policy endpoint,
and ``report`` aggregates execution results. With a provider, ``gen-scene``
asks it for the objects and then, when the description names neither
lighting nor camera, for the environment; ``plan`` asks it only for each
scene's objects and for one set of paraphrase templates.

Errors are machine-readable: a single JSON line on stderr with a ``code``
and ``message``. Exit codes are 0 on success, 2 for a command-line error (a
``UsageError``, which includes a ``DescriptionParseError``), and 1 for
everything else: a malformed input file (with the code of its fault, such
as ``schema_violation``), a runtime failure, a failed trend check, or an
``io_error`` such as a missing input file.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from dataclasses import replace
from datetime import datetime, timezone

from . import __version__
from .campaign import (
    CampaignSpec,
    Factors,
    load_manifest,
    plan_campaign,
)
from .catalog import Source, load_catalog, load_default_catalog
from .errors import BenchtopError
from .generation import (
    ask_environment,
    fallback_generate,
    generate_scene,
    parse_description,
)
from .jsonio import dumps
from .paraphrase import (
    DEFAULT_SIMILARITY_THRESHOLD,
    builtin_paraphrases,
    check_paraphrase_args,
    generate_paraphrases,
    validate_candidates,
)
from .providers import (
    API_KEY_ENV_VAR,
    MAX_RETRIES,
    TIMEOUT_S,
    HttpProvider,
    ProviderMode,
)
from .report import (
    DEFAULT_TREND_SLACK,
    Factor,
    ReportFormat,
    aggregate,
    emit,
    trend_check,
)
from .runner import (
    DEFAULT_ACT_TIMEOUT_S,
    load_results,
    parse_policy_endpoint,
    run_campaign,
)
from .sim import DEFAULT_MAX_STEPS, Task


def _error_line(code: str, message: str) -> None:
    sys.stderr.write(dumps({"code": code, "message": message}) + "\n")


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        _error_line("usage", message)
        raise SystemExit(2)


def _add_provider_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--provider-url", default=None, help=(
        f"base URL of the chat API; the {API_KEY_ENV_VAR} environment variable "
        f"is sent as a bearer token, and a request times out after {TIMEOUT_S:g} s "
        f"and is retried {MAX_RETRIES} times with backoff"))
    parser.add_argument("--provider-model", default="default-model")
    parser.add_argument(
        "--provider-mode",
        choices=[m.value for m in ProviderMode],
        default=ProviderMode.LIVE.value,
        help="record and replay need --fixtures-dir (default %(default)s)",
    )
    parser.add_argument("--fixtures-dir", default=None, help=(
        "where record writes, and replay reads, one file per request"))


def _provider_from_args(args):
    """A context manager that gives the flags' provider, or ``None`` without
    ``--provider-url``, and closes the provider on exit."""
    if not args.provider_url:
        return contextlib.nullcontext()
    provider = HttpProvider(
        args.provider_url, args.provider_model,
        ProviderMode(args.provider_mode), args.fixtures_dir,
    )
    return contextlib.closing(provider)


def _created_at(provider: HttpProvider | None) -> str | None:
    # pinned in offline/replay runs so manifests are reproducible
    if provider is None or provider.mode is ProviderMode.REPLAY:
        return None
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _load_catalog(args):
    return load_catalog(args.catalog) if args.catalog else load_default_catalog()


def _write_out(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_gen_scene(args) -> int:
    catalog = _load_catalog(args)
    description = parse_description(args.desc)
    with _provider_from_args(args) as provider:
        if provider is None:
            config = fallback_generate(description, catalog, args.seed)
        else:
            config = generate_scene(description, provider, catalog, args.seed)
            if description.lighting is None and description.camera is None:
                env = ask_environment(description, provider)
                config = replace(config, env=env)
    _write_out(dumps(config) + "\n", args.out)
    return 0


def _cmd_paraphrase(args) -> int:
    # checked before the provider is built, so a bad flag costs no request
    check_paraphrase_args(args.instruction, args.k, args.threshold)
    with _provider_from_args(args) as provider:
        if provider is None:
            candidates = builtin_paraphrases(args.instruction, args.k)
        else:
            candidates = generate_paraphrases(args.instruction, args.k, provider)
    instruction_set = validate_candidates(
        args.instruction, candidates, args.k, args.threshold
    )
    _write_out(dumps(instruction_set) + "\n", args.out)
    return 0


_SOURCE_FLAGS = {"seen": Source.SEEN_SET.value, "unseen": Source.UNSEEN_SET.value}


def _cmd_plan(args) -> int:
    catalog = _load_catalog(args)
    lo, hi = args.object_count_range
    spec = CampaignSpec(
        task=Task(args.task),
        n_scenes=args.n,
        k_instructions=args.k,
        factors=Factors(
            object_count_range=(lo, hi),
            source_filter=_SOURCE_FLAGS[args.source] if args.source else None,
            lighting_mutation=args.lighting_mutation,
            camera_mutation=args.camera_mutation,
            use_paraphrases=not args.no_paraphrases,
        ),
        master_seed=args.seed,
        threshold=args.threshold,
    )
    with _provider_from_args(args) as provider:
        manifest = plan_campaign(
            spec, catalog, chat_provider=provider, created_at=_created_at(provider)
        )
    _write_out(manifest.dumps() + "\n", args.out)
    return 0


def _cmd_run(args) -> int:
    catalog = _load_catalog(args)
    manifest = load_manifest(args.manifest)
    endpoint = parse_policy_endpoint(args.policy)
    results = run_campaign(
        manifest,
        catalog,
        endpoint,
        parallelism=args.parallelism,
        max_steps=args.max_steps,
        act_timeout_s=args.act_timeout,
    )
    lines = "".join(dumps(r) + "\n" for r in results)
    _write_out(lines, args.out)
    return 0


def _cmd_report(args) -> int:
    results = load_results(args.results)
    table = aggregate(results, Factor(args.group_by))
    # checked before writing, so a bad factor or slack leaves no report behind
    violations = trend_check(table, args.slack) if args.check_trend else ()
    _write_out(emit(table, ReportFormat(args.format)), args.out)
    for v in violations:
        _error_line(
            "trend",
            f"{v.policy_id}: rate rises from {v.rate_a:.1f} at "
            f"{v.level_a} to {v.rate_b:.1f} at {v.level_b} "
            f"(slack {args.slack})",
        )
    return 1 if violations else 0


def _gen_scene_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--desc", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--catalog", default=None)
    p.add_argument("--out", default=None)
    _add_provider_flags(p)


def _paraphrase_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--instruction", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--threshold", type=float, default=DEFAULT_SIMILARITY_THRESHOLD)
    p.add_argument("--out", default=None)
    _add_provider_flags(p)


def _plan_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--task", choices=[t.value for t in Task], required=True)
    p.add_argument("--n", type=int, required=True, help="number of scenes")
    p.add_argument("--k", type=int, required=True, help="instructions per scene")
    p.add_argument(
        "--object-count-range",
        nargs=2,
        type=int,
        default=[1, 5],
        metavar=("LO", "HI"),
    )
    p.add_argument("--source", choices=sorted(_SOURCE_FLAGS), default=None)
    p.add_argument("--lighting-mutation", action="store_true")
    p.add_argument("--camera-mutation", action="store_true")
    p.add_argument("--no-paraphrases", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threshold", type=float, default=DEFAULT_SIMILARITY_THRESHOLD)
    p.add_argument("--catalog", default=None)
    p.add_argument("--out", default=None)
    _add_provider_flags(p)


def _run_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--manifest", required=True)
    p.add_argument("--policy", required=True, help="e.g. builtin:oracle")
    p.add_argument("--parallelism", type=int, default=1)
    p.add_argument("--max-steps", type=int, default=DEFAULT_MAX_STEPS)
    p.add_argument("--act-timeout", type=float, default=DEFAULT_ACT_TIMEOUT_S)
    p.add_argument("--catalog", default=None)
    p.add_argument("--out", default=None)


def _report_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--results", required=True)
    p.add_argument(
        "--group-by", choices=[f.value for f in Factor], default="object_count"
    )
    p.add_argument(
        "--format", choices=[f.value for f in ReportFormat], default="csv"
    )
    p.add_argument("--check-trend", action="store_true", help=(
        "exit 1 if a rate rises from one object count to the next by more "
        "than --slack points"))
    p.add_argument("--slack", type=float, default=DEFAULT_TREND_SLACK, help=(
        "points a rate may rise under --check-trend (default %(default)s)"))
    p.add_argument("--out", default=None)


# name -> (help, the function that adds its arguments, the function it runs)
_COMMANDS = {
    "gen-scene": ("compile a description to a scene config",
                  _gen_scene_arguments, _cmd_gen_scene),
    "paraphrase": ("expand and validate an instruction",
                   _paraphrase_arguments, _cmd_paraphrase),
    "plan": ("plan a campaign manifest", _plan_arguments, _cmd_plan),
    "run": ("execute a campaign manifest", _run_arguments, _cmd_run),
    "report": ("aggregate results into a table", _report_arguments, _cmd_report),
}


def build_parser(command: str | None = None) -> _Parser:
    """The parser with subcommand ``command`` alone, or with all of them
    when ``command`` is ``None``."""
    parser = _Parser(prog="benchtop", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments, func) in _COMMANDS.items():
        if command is None or name == command:
            p = sub.add_parser(name, help=help_text)
            add_arguments(p)
            p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    # Only the named subcommand is built. Anything else in front (nothing,
    # an unknown name, ``--help`` or ``--version``) is for the top-level
    # parser, whose messages list all five, so then all five are built.
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except BenchtopError as exc:
        _error_line(exc.code, str(exc))
        return exc.exit_code
    except OSError as exc:
        _error_line("io_error", str(exc))
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
