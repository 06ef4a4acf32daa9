"""Command-line interface.

    young-bounds run PROBLEM.json [--format table|json] [--methods m1,m2,...]
    young-bounds verify --golden DIR [--format table|json]
    young-bounds sweep [--seed N] [--count K] [--format table|json]

Exit codes: 0 success, 1 invariant or golden failure, 2 input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .errors import (
    ExprSyntaxError,
    ParseError,
    UnsupportedFeatureError,
    ValidationError,
    YoungBoundsError,
)
from .report import (
    load_problem,
    parse_method_spec,
    render_table,
    report_to_dict,
    run_report,
    sweep,
    verify_golden,
)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused by every
    later one: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="young-bounds",
        description="Two-sided bounds for the Young integral functional of a "
                    "strictly increasing function, validated against a "
                    "quadrature oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="evaluate a problem file")
    p_run.add_argument("file", help="JSON problem file")
    p_run.add_argument("--format", choices=("table", "json"), default="table")
    p_run.add_argument("--methods", default=None,
                       help="comma-separated method specs overriding the file")

    p_verify = sub.add_parser("verify", help="recompute golden fixtures")
    p_verify.add_argument("--golden", required=True, help="fixture directory")
    p_verify.add_argument("--format", choices=("table", "json"), default="table")

    p_sweep = sub.add_parser("sweep", help="random-instance property sweep")
    p_sweep.add_argument("--seed", type=int, default=42)
    p_sweep.add_argument("--count", type=int, default=100)
    p_sweep.add_argument("--format", choices=("table", "json"), default="table")
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    problem = load_problem(args.file)
    methods = problem.methods
    if args.methods:
        methods = tuple(
            parse_method_spec(m) for m in args.methods.split(",") if m.strip()
        )
    report = run_report(problem.instance, methods)
    if args.format == "json":
        print(json.dumps(report_to_dict(report), indent=2))
    else:
        print(render_table(report))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    summary = verify_golden(args.golden)
    if args.format == "json":
        print(json.dumps(
            {"outcomes": [{"name": o.name, "status": o.status, "message": o.message}
                          for o in summary.outcomes],
             "passed": summary.passed, "failed": summary.failed},
            indent=2,
        ))
    else:
        print(summary.render())
    return 0 if summary.ok else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    summary = sweep(args.seed, args.count)
    if args.format == "json":
        print(json.dumps(
            {"seed": summary.seed, "count": summary.count, "checks": summary.checks,
             "violations": list(summary.violations)},
            indent=2,
        ))
    else:
        print(summary.render())
    return 0 if summary.ok else 1


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_sweep(args)
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except YoungBoundsError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        # a function text that does not parse is malformed input too
        return 2 if isinstance(exc, (ExprSyntaxError, UnsupportedFeatureError)) else 1


if __name__ == "__main__":
    sys.exit(main())
