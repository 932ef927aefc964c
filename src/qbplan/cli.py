"""Command-line front end: plan, simulate, trace, experiment, validate.

Stdout holds only a command's text form or, with ``--json``, one JSON
document; ``_emit`` alone writes it. Stderr holds ``plan``'s summary line or
one failure line; ``_note`` alone writes it.

Exit codes: 0 = success (for ``simulate``: every goal achieved by an exact
plan), 1 = ran but the goal was missed or only a closest plan exists,
2 = usage, parse, or validation error, or stdout could not be written.
A reader that has gone away, or no stdout at all, ends the output and keeps
the command's exit code; a stderr line that cannot be written is dropped.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import qbdl
from .beliefs import GoalSpec, initial_beliefs, uniform_scale
from .qbdl import DomainSpec


class _Failure(Exception):
    """A usage, parse or validation error: its message goes to stderr, exit 2."""


def _to_null(stream) -> None:
    # Python flushes the standard streams again at exit; what a failed write
    # left in the buffer goes to the null device, not to a second error.
    os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())


def _emit(args: argparse.Namespace, text: str, document: object, indent: int | None = 2) -> None:
    """Write the command's output: its JSON document under ``--json``, else its text."""
    if args.json:
        text = json.dumps(document, indent=indent) + "\n"
    if sys.stdout is None:
        return
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        _to_null(sys.stdout)
        if not isinstance(exc, BrokenPipeError):
            raise _Failure(f"stdout: {exc.strerror or exc}")


def _note(line: str) -> None:
    """Write one line to stderr, or drop it where stderr cannot take it."""
    if sys.stderr is None:
        return
    try:
        sys.stderr.write(line + "\n")  # line-buffered: the write flushes
    except OSError:
        _to_null(sys.stderr)


def _read_domain(path: str) -> DomainSpec:
    try:
        with open(path, "rb") as file:
            data = file.read(qbdl.MAX_DOCUMENT_BYTES + 1)
    except OSError as exc:
        raise _Failure(f"{path}: {exc.strerror or exc}")
    if len(data) > qbdl.MAX_DOCUMENT_BYTES:
        line = qbdl.line_at(data, qbdl.MAX_DOCUMENT_BYTES)
        raise _Failure(f"{path}:{line}: E_PARSE: longer than {qbdl.MAX_DOCUMENT_BYTES} bytes")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _Failure(f"{path}:{qbdl.line_at(data, exc.start)}: E_PARSE: not valid UTF-8")
    try:
        return qbdl.parse(text)
    except qbdl.ParseError as exc:
        raise _Failure(f"{path}:{exc.line}: {exc.code}: {exc.message}")


def cmd_plan(args: argparse.Namespace) -> int:
    from .planner import EXACT, LimitsError, PlannerConfig, plan
    from .sitcalc import format_plan

    spec = _read_domain(args.domain)
    cfg = PlannerConfig(max_depth=args.max_depth)
    try:
        outcome = plan(initial_beliefs(spec.initial_counts, spec.scale), GoalSpec(spec.goals), cfg)
    except LimitsError as exc:
        raise _Failure(f"{exc.code}: {exc}")
    _emit(args, format_plan(outcome.plan), {
        "plan": [[a.src, a.dst] for a in outcome.plan],
        "outcome_kind": outcome.kind,
        "distance": outcome.distance,
    })
    _note(
        f"{outcome.kind}: {len(outcome.plan)} moves, distance {outcome.distance}, "
        f"{outcome.expanded} states expanded"
    )
    return 0 if outcome.kind == EXACT else 1


def cmd_simulate(args: argparse.Namespace) -> int:
    from . import worldsim
    from .planner import EXACT

    spec = _read_domain(args.domain)
    report = worldsim.run_scenario(spec)
    _emit(args, worldsim.format_report(report), worldsim.report_json(report))
    return 0 if report.all_achieved and report.outcome_kind == EXACT else 1


def cmd_trace(args: argparse.Namespace) -> int:
    from . import worldsim

    try:
        scale = uniform_scale(args.granularity)
        table = worldsim.trajectory_table(args.blocks, scale, args.steps)
    except ValueError as exc:
        raise _Failure(str(exc))
    _emit(args, worldsim.format_trajectory(table), {
        "blocks": args.blocks,
        "steps": args.steps,
        "granularity": scale.granularity,
        "counts": list(table.counts),
        "rows": worldsim.degree_rows(table),
    })
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    from . import worldsim

    try:
        params = worldsim.ExperimentParams(
            runs=args.runs, columns=args.columns, max_initial=args.max_initial, seed=args.seed
        )
    except ValueError as exc:
        raise _Failure(str(exc))
    result = worldsim.run_experiment(params)
    lines = [
        f"run {i}: {len(run['plan'])} moves, {run['outcome_kind']}, "
        f"achieved {sum(run['achieved'])}/{args.columns}\n"
        for i, run in enumerate(result["runs"])
    ]
    _emit(args, "".join(lines) + f"success_rate: {result['success_rate']}\n", result)
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    _read_domain(args.domain)
    _emit(args, "", {"valid": True}, indent=None)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbplan",
        description="Plan and simulate block moves under quantized height beliefs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="print a belief-space plan for a domain file")
    p.add_argument("domain", help="domain file path")
    # PlannerConfig.max_depth, written out so that only `plan` imports the planner.
    p.add_argument("--max-depth", type=int, default=64, help="search depth bound")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("simulate", help="plan, execute on the true counts, and evaluate")
    p.add_argument("domain", help="domain file path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("trace", help="print a belief trajectory table")
    p.add_argument("--blocks", type=int, required=True, help="initial block count")
    p.add_argument("--steps", type=int, required=True, help="<0 removals, >0 additions")
    p.add_argument("--granularity", type=int, default=4)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("experiment", help="run seeded random scenarios in batch")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--columns", type=int, default=5)
    p.add_argument("--max-initial", type=int, default=12)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("validate", help="parse a domain file, report errors only")
    p.add_argument("domain", help="domain file path")
    p.set_defaults(func=cmd_validate)

    # Last, so that each command's --help lists it after its own arguments.
    for p in sub.choices.values():
        p.add_argument("--json", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _Failure as failure:
        _note(str(failure))
        return 2


if __name__ == "__main__":
    sys.exit(main())
