#!/usr/bin/env python3
"""Record the per-seed references that run.py compares every pass with.

Usage, from the root of a source checkout:

    python3 perfbench/record_refs.py [--seeds 0-19]

For each workload and seed it runs one untraced and one traced pass and
stores the pass fingerprint (a SHA-256 over every item's plans, JSON and
output text) with its exact counts: plan moves, failed world moves and,
where the workload plans, states expanded.  Record only on a commit whose
outputs are known good; later commits must reproduce them byte for byte.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys

import run
import tracing


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-19", help="inclusive range, such as 0-19")
    args = parser.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    if not run.prepare():
        return 2
    refs = {}
    for name, module_name in run.WORKLOADS.items():
        module = importlib.import_module(module_name)
        for seed in range(first, last + 1):
            _, workload = run.set_up(module, seed)
            try:
                plain = run.measure(workload, 0, passes=1)
                traced = run.measure(workload, 0, tracing.Tracer(), passes=1)
            finally:
                workload.close()
            errors = plain.errors + traced.errors
            if plain.record["digest"] != traced.record["digest"]:
                errors.append("traced outputs differ from untraced outputs")
            if errors:
                print(f"{name} seed {seed}: {errors[:5]}", file=sys.stderr)
                return 1
            refs.setdefault(name, {})[str(seed)] = traced.record
            print(f"{name} seed {seed}: {traced.record}", flush=True)
    run.REFS.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
