"""Command-line front end: plan, simulate, trace, experiment, validate.

Exit codes: 0 = success (for ``simulate``: every goal achieved by an exact
plan), 1 = ran but the goal was missed or only a closest plan exists,
2 = usage, parse, or validation error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import qbdl, worldsim
from .beliefs import GoalSpec, initial_beliefs, uniform_scale
from .planner import EXACT, LimitsError, PlannerConfig, plan
from .qbdl import DomainSpec
from .sitcalc import format_plan
from .worldsim import ExperimentParams


class _Failure(Exception):
    def __init__(self, exit_code: int, message: str):
        self.exit_code = exit_code
        self.message = message


def _read_domain(path: str) -> DomainSpec:
    try:
        with open(path, "rb") as file:
            data = file.read(qbdl.MAX_DOCUMENT_BYTES + 1)
    except OSError as exc:
        raise _Failure(2, f"{path}: {exc.strerror or exc}")
    if len(data) > qbdl.MAX_DOCUMENT_BYTES:
        line = qbdl.line_at(data, qbdl.MAX_DOCUMENT_BYTES)
        raise _Failure(2, f"{path}:{line}: E_PARSE: longer than {qbdl.MAX_DOCUMENT_BYTES} bytes")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _Failure(2, f"{path}:{qbdl.line_at(data, exc.start)}: E_PARSE: not valid UTF-8")
    try:
        return qbdl.parse(text)
    except qbdl.ParseError as exc:
        raise _Failure(2, f"{path}:{exc.line}: {exc.code}: {exc.message}")


def cmd_plan(args: argparse.Namespace) -> int:
    spec = _read_domain(args.domain)
    cfg = PlannerConfig(max_depth=args.max_depth)
    outcome = plan(initial_beliefs(spec.initial_counts, spec.scale), GoalSpec(spec.goals), cfg)
    if args.json:
        print(
            json.dumps(
                {
                    "plan": [[a.src, a.dst] for a in outcome.plan],
                    "outcome_kind": outcome.kind,
                    "distance": outcome.distance,
                },
                indent=2,
            )
        )
    else:
        sys.stdout.write(format_plan(outcome.plan))
    print(
        f"{outcome.kind}: {len(outcome.plan)} moves, distance {outcome.distance}, "
        f"{outcome.expanded} states expanded",
        file=sys.stderr,
    )
    return 0 if outcome.kind == EXACT else 1


def cmd_simulate(args: argparse.Namespace) -> int:
    spec = _read_domain(args.domain)
    report = worldsim.run_scenario(spec)
    if args.json:
        print(json.dumps(worldsim.report_json(report), indent=2))
    else:
        sys.stdout.write(worldsim.format_report(report))
    return 0 if report.all_achieved and report.outcome_kind == EXACT else 1


def cmd_trace(args: argparse.Namespace) -> int:
    try:
        scale = uniform_scale(args.granularity)
        table = worldsim.trajectory_table(args.blocks, scale, args.steps)
    except ValueError as exc:
        raise _Failure(2, str(exc))
    if args.json:
        print(
            json.dumps(
                {
                    "blocks": args.blocks,
                    "steps": args.steps,
                    "granularity": scale.granularity,
                    "counts": list(table.counts),
                    "rows": worldsim.degree_rows(table),
                },
                indent=2,
            )
        )
    else:
        sys.stdout.write(worldsim.format_trajectory(table))
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    try:
        params = ExperimentParams(
            runs=args.runs, columns=args.columns, max_initial=args.max_initial, seed=args.seed
        )
    except ValueError as exc:
        raise _Failure(2, str(exc))
    result = worldsim.run_experiment(params)
    if args.json:
        print(json.dumps(result, indent=2))
    else:
        for i, run in enumerate(result["runs"]):
            hits = sum(run["achieved"])
            print(
                f"run {i}: {len(run['plan'])} moves, {run['outcome_kind']}, "
                f"achieved {hits}/{args.columns}"
            )
        print(f"success_rate: {result['success_rate']}")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    _read_domain(args.domain)
    if args.json:
        print(json.dumps({"valid": True}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbplan",
        description="Plan and simulate block moves under quantized height beliefs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="print a belief-space plan for a domain file")
    p.add_argument("domain", help="domain file path")
    p.add_argument(
        "--max-depth", type=int, default=PlannerConfig.max_depth, help="search depth bound"
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("simulate", help="plan, execute on the true counts, and evaluate")
    p.add_argument("domain", help="domain file path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("trace", help="print a belief trajectory table")
    p.add_argument("--blocks", type=int, required=True, help="initial block count")
    p.add_argument("--steps", type=int, required=True, help="<0 removals, >0 additions")
    p.add_argument("--granularity", type=int, default=4)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("experiment", help="run seeded random scenarios in batch")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--columns", type=int, default=5)
    p.add_argument("--max-initial", type=int, default=12)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("validate", help="parse a domain file, report errors only")
    p.add_argument("domain", help="domain file path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _Failure as failure:
        print(failure.message, file=sys.stderr)
        return failure.exit_code
    except LimitsError as exc:
        print(f"E_LIMITS: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
