"""Command line interface: list scenarios, run them, emit reports.

Exit codes: 0 when every executed check passes, 1 when any check fails,
2 on usage, configuration or I/O errors.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import RedstarError
from .report import emit_report
from .runner import STAGE_ORDER, run_scenario
from .scenarios import load_config, registry, REGISTRY_BUILDERS


def _resolve(name_or_path):
    if name_or_path in REGISTRY_BUILDERS:
        return REGISTRY_BUILDERS[name_or_path]()
    if os.path.exists(name_or_path):
        return load_config(name_or_path)
    raise RedstarError(
        f"{name_or_path!r} is neither a registered scenario nor a config file"
    )


def cmd_list(_args):
    for name, cfg in registry().items():
        print(f"{name:22} {cfg.description}")
    return 0


def cmd_run(args):
    cfg = _resolve(args.scenario)
    report = run_scenario(cfg, order=args.order, degree_bound=args.degree)
    text = emit_report(report, fmt=args.format, path=args.report)
    sys.stdout.write(text if args.report is None else report.to_text())
    return 0 if report.verdict == "pass" else 1


def cmd_check(args):
    """Run one stage; a stage that is not evaluated never passes.

    An unconfigured stage is a usage error (2).  A stage skipped because an
    earlier one failed is a failed check (1).  The run ends after the stage
    and holds the records of every stage before it, so its first failure
    names the stage that failed.
    """
    cfg = _resolve(args.scenario)
    if args.stage not in cfg.stages:
        raise RedstarError(f"stage {args.stage!r} is not configured for scenario {cfg.name!r}")
    report = run_scenario(cfg, only_stage=args.stage)
    failed = next((r.stage for r in report.records if r.status in ("fail", "error")), args.stage)
    if failed != args.stage:
        print(
            f"error: stage {args.stage!r} of scenario {cfg.name!r} was not evaluated: "
            f"earlier stage {failed!r} failed",
            file=sys.stderr,
        )
        return 1
    report.records = [r for r in report.records if r.stage == args.stage]
    sys.stdout.write(report.to_text())
    return 0 if report.verdict == "pass" else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="redstar",
        description="exact verification of homological reduction scenarios",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered scenarios").set_defaults(fn=cmd_list)

    run = sub.add_parser("run", help="run a scenario or a config file")
    run.add_argument("scenario", help="registry name or path to a config file")
    run.add_argument("--order", type=int, default=None, help="truncation order in nu")
    run.add_argument("--degree", type=int, default=None, help="polynomial degree bound")
    run.add_argument("--report", default=None, help="write the report to this path")
    run.add_argument("--format", choices=("json", "text"), default="json")
    run.set_defaults(fn=cmd_run)

    chk = sub.add_parser("check", help="run a single verification stage")
    chk.add_argument("stage", choices=STAGE_ORDER)
    chk.add_argument("scenario", help="registry name or path to a config file")
    chk.set_defaults(fn=cmd_check)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except RedstarError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
