#!/usr/bin/env python3
"""Compare two source checkouts on the benchmark in alternating pairs of runs:

    python3 scripts/bench_pairs.py PARENT CHANGE --pairs 10 --seconds 25 \\
        --out BENCH_prN.json

Pair i runs ``perfbench/run.py --workload W --seed i --seconds S --trace 0``
in each checkout, one run at a time, the parent first in odd pairs and the
change first in even ones, so that a slow spell of the host falls on both
sides alike.  Each side runs the benchmark from its own checkout.

It prints one markdown table row per workload and end-to-end metric: the
parent's and the change's median and quartiles
(``statistics.quantiles(values, n=4)``), the change in the median, the
parent's spread (the distance between its quartiles) and the metric's bound
from ``BENCHMARK.json``, and in how many pairs the change was better.  With
``--out`` it also writes these figures, every run's value and every run's
``correct`` flag, ``failed`` count and ``attempted`` count as JSON.

A run that exits non-zero stops the script with exit status 1 and one line
on stderr naming the workload, the seed and the side.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last stdout line of one untraced benchmark run, as JSON."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def summary(values: list[float]) -> dict:
    """The median and the quartiles of ``values``."""
    low, _, high = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "quartiles": [low, high], "runs": values}


def compare(runs: dict, metrics: list[dict]) -> dict:
    """Per end-to-end metric: both sides' summaries and the pairs the change won."""
    result = {}
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        values = {side: [run["metrics"][name]["value"] for run in runs[side]] for side in SIDES}
        wins = sum(c > p if higher else c < p for p, c in zip(values["parent"], values["change"]))
        result[name] = {**{key: metric[key] for key in ("unit", "better", "bound")},
                        **{side: summary(values[side]) for side in SIDES}, "change_better": wins}
    return result


def table(workloads: dict, pairs: int) -> list[str]:
    """The markdown table of ``workloads``' comparisons."""
    lines = ["| workload | metric | parent median [quartiles] | change median [quartiles] "
             "| change | spread and bound | change better |",
             "|---|---|---|---|---|---|---|"]
    for workload, metrics in workloads.items():
        for name, row in metrics.items():
            parent, change = row["parent"], row["change"]
            median = parent["median"]
            shift = change["median"] / median - 1 if median else 0.0
            spread = (parent["quartiles"][1] - parent["quartiles"][0]) / median if median else 0.0
            cells = [f"{s['median']:.4g} [{s['quartiles'][0]:.4g}, {s['quartiles'][1]:.4g}]"
                     for s in (parent, change)]
            lines.append(f"| {workload} | {name} | {cells[0]} | {cells[1]} | {shift:+.1%} "
                         f"| parent IQR {spread:.1%} of median, bound {row['bound']:.0%} "
                         f"| {row['change_better']}/{pairs} |")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workloads", nargs="+", default=None,
                        help="workloads to run (default: every one in BENCHMARK.json)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds a run (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--out", type=Path, help="write the figures to this JSON file")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    checkouts = dict(zip(SIDES, (args.parent.resolve(), args.change.resolve())))

    compared, flags = {}, {"correct": {}, "failed": {}, "attempted": {}}
    for workload in workloads:
        runs = {side: [] for side in SIDES}
        for seed in range(1, args.pairs + 1):
            for side in SIDES if seed % 2 else SIDES[::-1]:
                try:
                    runs[side].append(run_once(checkouts[side], workload, seed, seconds))
                except subprocess.CalledProcessError as exc:
                    last = (exc.stderr.strip().splitlines() or ["no output"])[-1]
                    print(f"{workload} seed {seed} {side}: perfbench/run.py exited "
                          f"{exc.returncode}: {last}", file=sys.stderr)
                    return 1
                print(f"# {workload} seed {seed} {side} done", file=sys.stderr, flush=True)
        compared[workload] = compare(runs, bench["end_to_end"])
        for key, per_workload in flags.items():
            per_workload[workload] = {side: [run[key] for run in runs[side]] for side in SIDES}

    print("\n".join(table(compared, args.pairs)))
    if args.out:
        args.out.write_text(json.dumps({
            "pairs": args.pairs,
            "seconds": seconds,
            "seeds": list(range(1, args.pairs + 1)),
            "host": {"python": platform.python_version(), "machine": platform.machine(),
                     "system": platform.system(), "cpus": os.cpu_count()},
            "workloads": compared,
            **flags,
        }, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
