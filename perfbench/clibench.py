"""cli-scenarios: the qbplan command line, one child process per item.

Each item starts the CLI the way its installed console script does and
waits for it, so interpreter start, imports, parsing and output formatting
are paid on every call, as a user pays them.  A pass holds:

* ``simulate`` and ``simulate --json`` on the three bundled scenarios;
* ``plan --json`` and ``validate --json`` on two seeded relabellings of each
  bundled scenario (column order and in-band true counts change, so the
  planner's work stays at 2.5k-22k expansions);
* ``validate`` on one malformed domain per documented error code, made by
  seeded edits of each relabelling of ``borderline``;
* six ``trace`` calls with seeded block counts, steps and granularities.

That is 42 invocations a pass.

Every invocation must match the documented contract (exit code, stdout,
error code on stderr) and the output of ``cli.main`` run in this process.

Set-up starts no child: interpreter start is what users pay on every call,
so it stays out of ``setup_s``.  A cold first child costs nothing either,
because an item's time is its fastest execution.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from corpus import draw_counts, peak_alloc_mb, traced_run_scenario

SCENARIOS = ("well_established", "borderline", "borderline_failure")
SIMULATE_EXIT = {"well_established": 0, "borderline": 0, "borderline_failure": 1}
LAUNCH = "import sys; from qbplan.cli import main; sys.exit(main())"
WORKDIR = Path(".bench_work") / "cli-scenarios"
CHILD_TIMEOUT_S = 120
PROBES = 5
RELABELLINGS = 2


def _malformed(rng, text: str):
    """Seeded edits of a valid domain text, one per documented error code."""
    lines = text.splitlines()
    key = {line.split(":", 1)[0]: i for i, line in enumerate(lines)}
    counts = lines[key["initial"]].split()[1:]
    goals = lines[key["goal"]].split()[1:]
    c, g = rng.randrange(len(counts)), rng.randrange(len(goals))
    duplicated, dropped = (key[rng.choice(list(key))] for _ in range(2))

    def edit(key_name, value):
        out = list(lines)
        out[key[key_name]] = f"{key_name}: {value}"
        return out

    bands = "zero=0..0, small=1..4, medium=5..8, large=9..12"
    cases = {
        "E_PARSE": edit("columns", rng.choice(("five", "5.0", "")) or "x y"),
        "E_BANDS_GAP": edit("bands", bands.replace("small=1", f"small={rng.randint(2, 4)}")),
        "E_BANDS_OVERLAP": edit("bands", bands.replace("medium=5", f"medium={rng.randint(2, 4)}")),
        "E_BANDS_ORDER": edit("bands", bands.replace("large=9..12", f"large=12..{rng.randint(9, 11)}")),
        "E_ARITY": edit("initial", " ".join(counts[:c] + counts[c + 1 :])),
        "E_UNKNOWN_QUALITY": edit("goal", " ".join(goals[:g] + ["huge"] + goals[g + 1 :])),
        "E_COUNT_NEGATIVE": edit("initial", " ".join(counts[:c] + [f"-{rng.randint(1, 9)}"] + counts[c + 1 :])),
        "E_DUP_KEY": lines + [lines[duplicated]],
        "E_MISSING_KEY": lines[:dropped] + lines[dropped + 1 :],
    }
    return {code: "\n".join(body) + "\n" for code, body in cases.items()}


def _relabel(q, spec, perm, counts):
    """``spec`` with its columns reordered by ``perm`` and the given true counts."""
    goals = tuple(spec.goals[j] for j in perm)
    return q.qbdl.DomainSpec(spec.columns, spec.scale, counts, goals)


def _run_main(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class Workload:
    # A traced item also runs ``cli.main`` and the library calls behind the
    # invocation; only its child repeats the untraced work.
    overhead_span = "cli.child"

    def __init__(self, q, seed: int):
        self.q = q
        rng = random.Random(f"cli-scenarios:{seed}")
        shutil.rmtree(WORKDIR, ignore_errors=True)
        WORKDIR.mkdir(parents=True)
        self.env = dict(os.environ, PYTHONPATH=str(Path("src").resolve()))
        # (argv, expected exit code, expected error code or None, domain text or None)
        invocations = []
        for name in SCENARIOS:
            path = f"scenarios/{name}.qbd"
            text = Path(path).read_text(encoding="utf-8")
            spec = q.qbdl.parse(text)
            for flags in ([], ["--json"]):
                invocations.append((["simulate", path, *flags], SIMULATE_EXIT[name], None, text))
            for r in range(RELABELLINGS):
                perm = rng.sample(range(spec.columns), spec.columns)
                counts = draw_counts(q, rng, spec, perm, spec.scale.bands[-1][1])
                text = q.qbdl.serialize(_relabel(q, spec, perm, counts))
                path = WORKDIR / f"{name}-{r}.qbd"
                path.write_text(text, encoding="utf-8")
                invocations.append((["plan", str(path), "--json"], None, None, text))
                invocations.append((["validate", str(path), "--json"], 0, None, text))
                if name == "borderline":
                    for code, bad in _malformed(rng, text).items():
                        path = WORKDIR / f"bad-{r}-{code}.qbd"
                        path.write_text(bad, encoding="utf-8")
                        invocations.append((["validate", str(path)], 2, code, bad))
        for i in range(6):
            args = ["trace", "--blocks", str(rng.randint(0, 20)), "--steps",
                    str(rng.choice((-1, 1)) * rng.randint(1, 30)), "--granularity", str(rng.randint(2, 8))]
            invocations.append((args + (["--json"] if i % 2 else []), 0, None, None))
        rng.shuffle(invocations)
        self.invocations = invocations
        self._expected = {}

    def expected(self, k: int):
        """What ``cli.main`` prints in this process: an oracle for checking,
        computed on first use and therefore not part of set-up."""
        if k not in self._expected:
            self._expected[k] = _run_main(self.q.cli, self.invocations[k][0])
        return self._expected[k]

    def __len__(self) -> int:
        return len(self.invocations)

    def warm_up(self) -> None:
        pass

    def _child(self, argv):
        proc = subprocess.run(
            [sys.executable, "-c", LAUNCH, *argv],
            env=self.env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def run(self, k: int, tr):
        argv = self.invocations[k][0]
        if tr is None:
            return self._child(argv), None, None
        with tr.span("cli.child"):
            result = self._child(argv)
        with tr.span("cli.main"):
            _run_main(self.q.cli, argv)
        return (result, *self._layer_calls(tr, k))

    def _layer_calls(self, tr, k):
        """The library calls behind invocation ``k``, each in its own span:
        the plan outcome and, for ``simulate``, the report, where made."""
        q = self.q
        argv, _, _, text = self.invocations[k]
        if argv[0] == "trace":
            g = int(argv[argv.index("--granularity") + 1])
            with tr.span("worldsim.trajectory_table"):
                table = q.worldsim.trajectory_table(
                    int(argv[2]), q.beliefs.uniform_scale(g), int(argv[4]))
            with tr.span("worldsim.format_trajectory"):
                q.worldsim.format_trajectory(table)
            return None, None
        try:
            with tr.span("qbdl.parse"):
                spec = q.qbdl.parse(text)
        except q.qbdl.ParseError:
            return None, None
        if argv[0] == "validate":
            return None, None
        if argv[0] == "simulate":
            report, outcome = traced_run_scenario(q, tr, spec)
            with tr.span("worldsim.report_json"):
                q.worldsim.report_json(report)
            return outcome, report
        with tr.span("beliefs.initial_beliefs"):
            state = q.beliefs.initial_beliefs(spec.initial_counts, spec.scale)
        with tr.span("planner.plan") as span:
            outcome = q.planner.plan(state, q.beliefs.GoalSpec(spec.goals))
            span[0] = f"planner.plan:{outcome.kind}"
        return outcome, None

    def check(self, k: int, out) -> str | None:
        (code, stdout, stderr), outcome, _ = out
        argv, exit_code, error_code, text = self.invocations[k]
        if (code, stdout, stderr) != self.expected(k):
            return f"{' '.join(argv)}: child output differs from in-process cli.main"
        if argv[0] == "plan":
            return self._check_plan(text, code, stdout, stderr, outcome)
        if code != exit_code:
            return f"{' '.join(argv)}: exit {code}, documented {exit_code}"
        if error_code is not None:
            first = stderr.splitlines()[0] if stderr else ""
            if stdout or not re.fullmatch(rf"{re.escape(argv[1])}:\d+: {error_code}: .+", first):
                return f"{' '.join(argv)}: expected {error_code} on stderr, got {first!r}"
        elif argv[0] == "validate" and json.loads(stdout) != {"valid": True}:
            return f"{' '.join(argv)}: expected {{\"valid\": true}}"
        elif argv[0] == "simulate" and "--json" in argv:
            report = json.loads(stdout)
            if report["all_achieved"] != (exit_code == 0) or report["outcome_kind"] != "Exact":
                return f"{' '.join(argv)}: report disagrees with the documented outcome"
        return None

    def _check_plan(self, text, code, stdout, stderr, outcome):
        q = self.q
        spec = q.qbdl.parse(text)
        payload = json.loads(stdout)
        actions = tuple(q.sitcalc.Action(s, d) for s, d in payload["plan"])
        goal = q.beliefs.GoalSpec(spec.goals)
        final = q.planner.simulate_beliefs(
            q.beliefs.initial_beliefs(spec.initial_counts, spec.scale), actions)[-1]
        kind = payload["outcome_kind"]
        if code != (0 if kind == q.planner.EXACT else 1):
            return f"plan: exit {code} for a {kind} plan"
        if kind == q.planner.EXACT and not q.planner.goal_satisfied(final, goal):
            return "plan: Exact plan does not reach the goal"
        if payload["distance"] != q.planner.distance(final, goal):
            return "plan: distance differs from distance(final_belief)"
        if outcome is not None and outcome.plan != actions:
            return "plan: child plan differs from the library plan"
        if not stderr.startswith(f"{kind}: {len(actions)} moves, distance {payload['distance']}, "):
            return "plan: outcome summary missing from stderr"
        return None

    def record(self, k: int, out):
        (code, stdout, stderr), outcome, report = out
        counts = {"plan_moves": 0}
        if self.invocations[k][0][0] == "plan":
            counts["plan_moves"] = len(json.loads(stdout)["plan"])
        # Only traced items make the library calls that count these.
        if outcome is not None:
            counts["expanded"] = outcome.expanded
        if report is not None:
            counts["failed_moves"] = len(report.failed_moves)
        return f"{code}\n{stdout}\n{stderr}\n".encode(), counts

    def layer_metrics(self, outs, tracer) -> dict:
        """Interpreter start, import cost and in-process ``cli.main``, each a median."""

        def child_ms(code):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=self.env, check=True, timeout=CHILD_TIMEOUT_S)
            return (time.perf_counter() - t0) * 1000

        bare = statistics.median(child_ms("pass") for _ in range(PROBES))
        imported = statistics.median(child_ms("import qbplan.cli") for _ in range(PROBES))
        main_ms = [(end - start) * 1000 for name, start, end, *_ in tracer.spans if name == "cli.main"]
        searches = [
            (self.q.qbdl.parse(self.invocations[k][3]), o[1]) for k, o in enumerate(outs) if o and o[1]
        ]
        return {
            "cli.interp_start_ms": bare,
            "cli.import_ms": imported - bare,
            "cli.main_ms": statistics.median(main_ms),
            "cli.child_peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
            "planner.peak_alloc_mb": peak_alloc_mb(self.q, searches),
        }

    def close(self) -> None:
        shutil.rmtree(WORKDIR, ignore_errors=True)
