#!/usr/bin/env python3
"""qbplan benchmark: one workload, one closed-loop client, one process.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload corpus-c5 --seed 1 --seconds 10 --trace 0

Workloads are ``corpus-c5``, ``cli-scenarios`` and ``replay`` (see the
module of the same purpose in this directory).  The program is imported from
the checkout's ``src/``; nothing is installed.  Set-up (imports, input
generation from ``--seed``, warm-up) runs several times, half of them before
the timed passes and half after, and ``setup_s`` is the fastest.  Whole
passes over the workload's items run until their timed part reaches
``--seconds``.  Outputs are checked after each item, outside
its timed region, and every pass must reproduce the first one exactly.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the same
untraced passes and then one traced pass, with a span around every call into
qbplan, and reports the per-layer metrics; the spans go to ``.bench_out/``.  Every
metric is printed as ``name value unit`` and the last line of stdout is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = {"corpus-c5": "corpus", "cli-scenarios": "clibench", "replay": "replay"}
SETUP_REPEATS = 10
REFS = HERE / "refs.json"
RUSAGE = (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
QBPLAN_MODULES = ("beliefs", "planner", "qbdl", "sitcalc", "worldsim", "cli")

END_TO_END = {
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# Span names whose self time over the traced pass makes each per-layer time.
LAYER_SPANS = {
    "planner.plan_exact_s": ("planner.plan:Exact",),
    "planner.plan_closest_s": ("planner.plan:Closest",),
    "planner.plan_s": ("planner.plan:Exact", "planner.plan:Closest"),
    "planner.simulate_beliefs_s": ("planner.simulate_beliefs",),
    "beliefs.apply_move_s": ("beliefs.apply_move",),
    "beliefs.initial_beliefs_s": ("beliefs.initial_beliefs",),
    "worldsim.execute_s": ("worldsim.execute",),
    "worldsim.evaluate_s": ("worldsim.evaluate",),
    "worldsim.trajectory_table_s": ("worldsim.trajectory_table",),
    "worldsim.format_trajectory_s": ("worldsim.format_trajectory",),
    "worldsim.random_scenario_s": ("worldsim.random_scenario",),
    "worldsim.report_json_s": ("worldsim.report_json",),
    "qbdl.parse_s": ("qbdl.parse",),
    "qbdl.serialize_s": ("qbdl.serialize",),
    "sitcalc.format_plan_s": ("sitcalc.format_plan",),
    "sitcalc.parse_plan_s": ("sitcalc.parse_plan",),
}
PER_LAYER = {
    **{name: "s" for name in LAYER_SPANS},
    "planner.expanded": "count",
    "planner.expansions_per_s": "1/s",
    "planner.peak_alloc_mb": "MB",
    "beliefs.moves_per_s": "1/s",
    "worldsim.failed_moves": "count",
    "cli.interp_start_ms": "ms",
    "cli.import_ms": "ms",
    "cli.main_ms": "ms",
    "cli.child_peak_rss_mb": "MB",
    "trace.overhead_ratio": "ratio",
}


def load_qbplan() -> SimpleNamespace:
    """Import qbplan afresh, so that every set-up pays for its imports."""
    for name in [m for m in sys.modules if m == "qbplan" or m.startswith("qbplan.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    return SimpleNamespace(
        **{name: importlib.import_module(f"qbplan.{name}") for name in QBPLAN_MODULES}
    )


def set_up(module, seed: int):
    gc.collect()  # the garbage of an earlier set-up is not this one's cost
    start = time.perf_counter()
    workload = module.Workload(load_qbplan(), seed)
    workload.warm_up()
    return time.perf_counter() - start, workload


def measure(workload, seconds: float, tracer=None, passes: int | None = None):
    """Run whole passes until the timed part reaches ``seconds`` (or exactly
    ``passes`` passes); check and fingerprint every item."""
    durations, errors, records, first_outs = [], [], [], []
    failed = 0
    n = len(workload)
    while True:
        digest, counts = hashlib.sha256(), {}
        for k in range(n):
            if tracer is not None:
                tracer.item = len(records) * n + k
            start = time.perf_counter()
            try:
                if tracer is None:
                    out = workload.run(k, None)
                else:
                    with tracer.span("item"):
                        out = workload.run(k, tracer)
            except Exception as exc:  # an item that raises counts as failed
                durations.append(time.perf_counter() - start)
                out, error = None, f"raised {exc!r}"
            else:
                durations.append(time.perf_counter() - start)
                error = _check(workload, k, out, digest, counts)
            if error is not None:
                failed += 1
                errors.append(f"item {k}: {error}")
            if not records and tracer is not None:
                first_outs.append(out)
        records.append({"digest": digest.hexdigest(), **counts})
        if len(records) == 1:  # one pass holds every item; later ones add allocator slack
            peak_rss = {who: resource.getrusage(who).ru_maxrss / 1024 for who in RUSAGE}
        if len(records) == passes or (passes is None and sum(durations) >= seconds):
            break
    for i, record in enumerate(records[1:], 2):
        if record != records[0]:
            errors.append(f"pass {i} differs from pass 1: {record} != {records[0]}")
    return SimpleNamespace(
        durations=durations, attempted=len(durations), failed=failed, errors=errors,
        record=records[0], passes=len(records), first_outs=first_outs, peak_rss=peak_rss,
    )


def _check(workload, k, out, digest, counts) -> str | None:
    """Check item ``k``'s output and fold it into the pass fingerprint."""
    try:
        error = workload.check(k, out)
        data, item_counts = workload.record(k, out)
    except Exception as exc:  # malformed output fails the item, not the run
        return f"checking raised {exc!r}"
    digest.update(data)
    for key, value in item_counts.items():
        counts[key] = counts.get(key, 0) + value
    return error


def end_to_end(workload, run, rss_who) -> dict:
    """Item metrics from each item's fastest execution (the rule ``timeit``
    uses): other tenants of the host slow whole seconds of a run at random,
    and the fastest of several executions spread over the run filters that
    out.  A workload whose pass runs some items more than once says which
    item each position runs in ``slots``."""
    n = len(workload)
    slots = getattr(workload, "slots", range(n))
    best = {}
    for i, duration in enumerate(run.durations):
        key = slots[i % n]
        best[key] = min(duration, best.get(key, duration))
    times = list(best.values())
    p = tracing.tail_percentile(len(times))
    print(f"# {len(times)} items over {run.passes} passes, each timed at its fastest execution; "
          f"item_tail_ms is p{p:g}")
    return {
        "items_per_s": len(times) / sum(times),
        "item_p50_ms": statistics.median(times) * 1000,
        "item_tail_ms": tracing.percentile(times, p) * 1000,
        "peak_rss_mb": run.peak_rss[rss_who],
    }


def per_layer(workload, plain, traced, tracer) -> dict:
    self_times = tracer.self_times()
    values = {
        name: sum(self_times.get(s, 0.0) for s in spans) for name, spans in LAYER_SPANS.items()
    }
    expanded = traced.record.get("expanded", 0)
    values["planner.expanded"] = expanded
    values["planner.expansions_per_s"] = expanded / values["planner.plan_s"] if expanded else 0.0
    moves = traced.record["plan_moves"] if values["beliefs.apply_move_s"] else 0
    values["beliefs.moves_per_s"] = moves / values["beliefs.apply_move_s"] if moves else 0.0
    values["worldsim.failed_moves"] = traced.record["failed_moves"]
    # The spans that repeat the untraced work (whole items, or on a workload
    # whose traced item does more than its untraced one, the span it names)
    # over the last untraced pass, which ran just before, in the same spell
    # of the host's speed.
    span = getattr(workload, "overhead_span", "item")
    traced_s = sum(end - start for name, start, end, *_ in tracer.spans if name == span)
    values["trace.overhead_ratio"] = traced_s / sum(plain.durations[-len(workload):])
    values.update({name: 0.0 for name in PER_LAYER if name not in values})
    values.update(workload.layer_metrics(traced.first_outs, tracer))
    return values


def check_refs(workload_name: str, seed: int, record: dict) -> list[str]:
    """Compare a pass's fingerprint and counts with those recorded for the seed."""
    refs = json.loads(REFS.read_text()) if REFS.exists() else {}
    ref = refs.get(workload_name, {}).get(str(seed))
    if ref is None:
        return []
    return [
        f"{key}: {record[key]} differs from the recorded {ref[key]}"
        for key in ref
        if key in record and record[key] != ref[key]
    ]


def prepare() -> bool:
    """Work from the checkout root and import qbplan from its sources."""
    if not (SRC / "qbplan" / "__init__.py").is_file():
        print(f"error: no qbplan sources under {SRC}", file=sys.stderr)
        return False
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not prepare():
        return 2

    module = importlib.import_module(WORKLOADS[args.workload])
    # Set-up is timed at both ends of the run and reported at its fastest,
    # the rule items follow, so that a slow spell of the host does not set it.
    setup_times, workload = [], None
    for _ in range(SETUP_REPEATS // 2):
        if workload is not None:
            workload.close()
        elapsed, workload = set_up(module, args.seed)
        setup_times.append(elapsed)
    try:
        plain = measure(workload, args.seconds)
        errors = plain.errors + check_refs(args.workload, args.seed, plain.record)
        attempted, failed = plain.attempted, plain.failed
        if args.trace:
            tracer = tracing.Tracer()
            traced = measure(workload, 0, tracer, passes=1)
            errors += traced.errors + check_refs(args.workload, args.seed, traced.record)
            if traced.record["digest"] != plain.record["digest"]:
                errors.append("traced outputs differ from untraced outputs")
            attempted += traced.attempted
            failed += traced.failed
            metrics = per_layer(workload, plain, traced, tracer)
            units = PER_LAYER
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
        else:
            rss_who = resource.RUSAGE_CHILDREN if args.workload == "cli-scenarios" else resource.RUSAGE_SELF
            metrics = end_to_end(workload, plain, rss_who)
            units = END_TO_END
    finally:
        workload.close()
    if not args.trace:
        for _ in range(SETUP_REPEATS - SETUP_REPEATS // 2):
            elapsed, workload = set_up(module, args.seed)
            workload.close()
            setup_times.append(elapsed)
        metrics["setup_s"] = min(setup_times)
        print(f"# setup_s is the fastest of {len(setup_times)} set-ups: "
              + " ".join(f"{t:.4f}" for t in setup_times))

    for error in errors[:20]:
        print(f"# check failed: {error}")
    print(f"# failed_ratio {failed / attempted:.6g} ({failed} of {attempted} items)")
    for name, value in metrics.items():
        shown = value if isinstance(value, int) else f"{value:.6g}"  # counts stay exact
        print(f"{name} {shown} {units[name]}")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
