"""Smoke tests: the bundled scripts, the README's library example and the
benchmark's traced path run."""

import importlib
import json
import re
import runpy
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from qbplan import beliefs, planner, worldsim
from qbplan.qbdl import parse

ROOT = Path(__file__).resolve().parent.parent


def run_script(monkeypatch, capsys, name, *args):
    path = ROOT / "scripts" / name
    monkeypatch.setattr(sys, "argv", [str(path), *args])
    with pytest.raises(SystemExit) as info:
        runpy.run_path(str(path), run_name="__main__")
    return info.value.code, capsys.readouterr().out


def test_reproduce_scenarios_runs(monkeypatch, capsys):
    code, out = run_script(monkeypatch, capsys, "reproduce_scenarios.py")
    assert code == 0
    assert "== borderline.qbd" in out.splitlines()


def test_success_rate_sweep_runs(monkeypatch, capsys):
    code, out = run_script(monkeypatch, capsys, "success_rate_sweep.py",
                           "--runs", "5", "--ceilings", "4", "8")
    assert code == 0
    assert "max_initial  success_rate" in out.splitlines()


def test_readme_library_example_runs(monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text()
    [block] = re.findall(r"```python\n(.*?)```", readme, re.S)
    monkeypatch.chdir(ROOT)
    exec(compile(block, "README.md", "exec"), {})
    first = capsys.readouterr().out.splitlines()[0]
    assert first == "(8, 0, 3, 4, 10) (False, True, True, True, True)"


def test_traced_benchmark_run_matches_run_scenario(monkeypatch):
    # perfbench's traced items redo run_scenario call by call and build
    # worldsim.Report by keyword, so they break if a public field goes missing.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    corpus = importlib.import_module("corpus")
    tracer = importlib.import_module("tracing").Tracer()
    q = SimpleNamespace(beliefs=beliefs, planner=planner, worldsim=worldsim)
    spec = parse((ROOT / "scenarios" / "borderline.qbd").read_text())
    report, outcome = corpus.traced_run_scenario(q, tracer, spec)
    assert report == worldsim.run_scenario(spec)
    assert corpus.check_report(q, spec, report, worldsim.report_json(report), outcome) is None


def test_outcome_digest_hashes_answers_and_work_apart(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    digest = importlib.import_module("outcome_digest")
    small = digest.digests(corpus_runs=3, random_domains=5, wide_runs=2)
    assert list(small) == ["corpus-answers", "corpus-work", "random-answers", "random-work",
                           "wide-answers", "wide-work"]
    assert all(re.fullmatch("[0-9a-f]{64}", value) for value in small.values())
    assert digest.digests(corpus_runs=3, random_domains=5, wide_runs=2) == small
    # Each digest covers every search it is given.
    more = digest.digests(corpus_runs=4, random_domains=6, wide_runs=3)
    assert all(more[name] != small[name] for name in small)


def test_outcome_digest_lists_each_search_on_one_line(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    digest = importlib.import_module("outcome_digest")
    lines = list(digest.listing(corpus_runs=3, random_domains=5, wide_runs=2))
    searches = [*digest.corpus_searches(3), *digest.random_searches(5), *digest.wide_searches(2)]
    assert [line.split()[:2] for line in lines] == (
        [["corpus", str(i)] for i in range(6)] + [["random", str(i)] for i in range(5)]
        + [["wide", str(i)] for i in range(6)])
    # Runs 0 and 1 at 6, 7 and 8 columns, each capped at 400,000 states.
    assert [len(initial.columns) for initial, _, _ in searches[-6:]] == [6, 6, 7, 7, 8, 8]
    assert {cfg.max_states for _, _, cfg in searches[-6:]} == {400_000}
    for line, (initial, goal, cfg) in zip(lines, searches, strict=True):
        o = planner.plan(initial, goal, cfg)
        _, _, depth, states, kind, dist, expanded, *moves = line.split()
        assert (int(depth), int(states), kind, int(dist), int(expanded)) == (
            cfg.max_depth, cfg.max_states, o.kind, o.distance, o.expanded)
        assert moves == [f"{a.src}-{a.dst}" for a in o.plan]


def test_bench_pairs_compares_two_checkouts(monkeypatch, capsys, tmp_path):
    out = tmp_path / "bench.json"
    code, text = run_script(monkeypatch, capsys, "bench_pairs.py", str(ROOT), str(ROOT),
                            "--workloads", "corpus-c5", "--pairs", "1", "--seconds", "0",
                            "--out", str(out))
    assert code == 0
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [metric["name"] for metric in bench["end_to_end"]]
    header, rule, *rows = text.splitlines()
    assert header.startswith("| workload | metric | parent median [quartiles] |")
    assert [row.split(" | ")[:2] for row in rows] == [["| corpus-c5", name] for name in names]
    assert all(row.endswith("/1 |") for row in rows)
    result = json.loads(out.read_text())
    assert (result["pairs"], result["seconds"], result["seeds"]) == (1, 0, [1])
    assert result["correct"] == {"corpus-c5": {"parent": [True], "change": [True]}}
    assert result["failed"] == {"corpus-c5": {"parent": [0], "change": [0]}}
    attempted = result["attempted"]["corpus-c5"]
    assert attempted["parent"] == attempted["change"] and attempted["parent"][0] > 0
    metrics = result["workloads"]["corpus-c5"]
    assert list(metrics) == names
    for row in metrics.values():
        assert row["change_better"] in (0, 1)
        for side in ("parent", "change"):
            [value] = row[side]["runs"]
            assert value > 0 and row[side]["median"] == value
            assert row[side]["quartiles"] == [value, value]


def test_bench_pairs_names_the_run_that_exits_non_zero(monkeypatch, capsys, tmp_path):
    # The parent runs first in odd pairs, so a parent whose benchmark exits 3
    # stops the script before the change runs at all.
    broken = tmp_path / "broken"
    (broken / "perfbench").mkdir(parents=True)
    (broken / "perfbench" / "run.py").write_text(
        "import sys\nprint('no such workload', file=sys.stderr)\nsys.exit(3)\n")
    out = tmp_path / "bench.json"
    path = ROOT / "scripts" / "bench_pairs.py"
    monkeypatch.setattr(sys, "argv", [str(path), str(broken), str(ROOT), "--workloads", "replay",
                                      "--pairs", "2", "--seconds", "0", "--out", str(out)])
    with pytest.raises(SystemExit) as info:
        runpy.run_path(str(path), run_name="__main__")
    captured = capsys.readouterr()
    assert info.value.code == 1
    assert captured.err.splitlines()[-1] == (
        "replay seed 1 parent: perfbench/run.py exited 3: no such workload")
    assert captured.out == "" and not out.exists()
