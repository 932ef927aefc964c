import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SRC, fuzz_lines, parse_trace, scenario
from qbplan.cli import main
from qbplan.qbdl import MAX_DOCUMENT_BYTES
from qbplan.sitcalc import parse_plan


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_plan_prints_only_move_lines_on_stdout(capsys):
    code, out, err = run_cli(capsys, "plan", scenario("borderline_failure"))
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 6
    assert all(line.startswith("move ") for line in lines)
    assert len(parse_plan(out)) == 6
    assert "Exact" in err


def test_plan_json_payload(capsys):
    code, out, _ = run_cli(capsys, "plan", "--json", scenario("borderline_failure"))
    assert code == 0
    payload = json.loads(out)
    assert sorted(payload) == ["distance", "outcome_kind", "plan"]
    assert payload["outcome_kind"] == "Exact"
    assert payload["distance"] == 0
    assert len(payload["plan"]) == 6


def test_plan_exits_one_under_a_tight_depth_bound(capsys):
    code, out, err = run_cli(capsys, "plan", "--max-depth", "1",
                             scenario("borderline_failure"))
    assert code == 1
    assert "Closest" in err


def test_plan_with_unusable_limits_exits_two(capsys):
    code, _, err = run_cli(capsys, "plan", "--max-depth", "-1",
                           scenario("borderline_failure"))
    assert code == 2
    assert err == (
        "E_LIMITS: unusable search limits: "
        "PlannerConfig(max_depth=-1, max_states=5000000)\n"
    )


def test_plan_reports_parse_errors_with_line_numbers(tmp_path, capsys):
    bad = tmp_path / "bad.qbd"
    bad.write_text(
        "columns: 5\n"
        "granularity: 4\n"
        "bands: zero=0..0, small=1..4, medium=5..8, large=9..12\n"
        "initial: 7 2 0 11 6\n"
        "goal: small small medium medium\n"
    )
    code, out, err = run_cli(capsys, "plan", str(bad))
    assert code == 2
    assert out == ""
    assert ":5: E_ARITY" in err


def test_non_utf8_domain_file_is_a_coded_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.qbd"
    bad.write_bytes(b"columns: 2\ngranularity: 4\n# \xff\xfe\n")
    code, out, err = run_cli(capsys, "validate", str(bad))
    assert code == 2
    assert out == ""
    assert f"{bad}:3: E_PARSE: not valid UTF-8" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("newline", [b"\r\n", b"\r"])
def test_invalid_utf8_is_reported_on_its_line_after_cr_breaks(tmp_path, capsys, newline):
    bad = tmp_path / "bad.qbd"
    bad.write_bytes(newline.join([b"columns: 2", b"granularity: 4", b"# \xff\xfe", b""]))
    code, out, err = run_cli(capsys, "validate", str(bad))
    assert (code, out, err) == (2, "", f"{bad}:3: E_PARSE: not valid UTF-8\n")


@pytest.mark.parametrize("char", ["\x85", "\u2028"])
def test_a_comment_holding_a_unicode_line_separator_validates(tmp_path, capsys, char):
    document = tmp_path / "noted.qbd"
    note = f"# scenario {char} note\n".encode()
    document.write_bytes(note + Path(scenario("borderline")).read_bytes())
    assert run_cli(capsys, "validate", str(document)) == (0, "", "")


DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not DIGIT_LIMIT, reason="the interpreter sets no int-string digit limit")
def test_integer_past_the_digit_limit_is_a_coded_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.qbd"
    bad.write_text("columns: 2\ngranularity: 2\n"
                   f"bands: zero=0..0, big=1..{'9' * (DIGIT_LIMIT + 1)}\n"
                   "initial: 0 3\ngoal: zero big\n")
    code, out, err = run_cli(capsys, "validate", str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith(f"{bad}:3: E_PARSE: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("size, exit_code", [(MAX_DOCUMENT_BYTES, 0), (MAX_DOCUMENT_BYTES + 1, 2)])
def test_domain_files_are_read_up_to_the_size_cap(tmp_path, capsys, size, exit_code):
    document = Path(scenario("well_established")).read_bytes()
    padded = tmp_path / "padded.qbd"
    padded.write_bytes(document + b"#" * (size - len(document) - 1) + b"\n")
    code, out, err = run_cli(capsys, "validate", str(padded))
    assert (code, out) == (exit_code, "")
    last_line = document.count(b"\n") + 1
    assert err == ("" if code == 0 else
                   f"{padded}:{last_line}: E_PARSE: longer than {MAX_DOCUMENT_BYTES} bytes\n")


def test_missing_domain_file_exits_two(capsys):
    code, _, err = run_cli(capsys, "plan", "no/such/file.qbd")
    assert code == 2
    assert err


def test_simulate_renders_the_outcome_table(capsys):
    code, out, _ = run_cli(capsys, "simulate", scenario("well_established"))
    assert code == 0
    assert "Goal achievement" in out
    achievement = [l for l in out.splitlines() if l.startswith("Goal achievement")][0]
    assert achievement.split()[2:] == ["yes"] * 5
    assert "Initially blocks in col." in out
    assert "Assigned qualities in initial sit." in out


def test_simulate_flags_the_failure_scenario(capsys):
    code, out, _ = run_cli(capsys, "simulate", scenario("borderline_failure"))
    assert code == 1
    achievement = [l for l in out.splitlines() if l.startswith("Goal achievement")][0]
    assert achievement.split()[2:] == ["no", "yes", "yes", "yes", "yes"]


def test_simulate_names_the_moves_that_met_an_empty_column(tmp_path, capsys):
    # Run 29 of `experiment --seed 0 --columns 3`: the robot believes column 1
    # medium and moves six blocks from it, but only five are there.
    domain = tmp_path / "run29.qbd"
    domain.write_text("columns: 3\ngranularity: 4\n"
                      "bands: zero=0..0, small=1..4, medium=5..8, large=9..12\n"
                      "initial: 5 8 5\ngoal: small large large\n")
    assert run_cli(capsys, "simulate", str(domain)) == (1, (
        "Columns                             1       2       3\n"
        "Initially blocks in col.            5       8       5\n"
        "Assigned qualities in initial sit.  medium  medium  medium\n"
        "Goal                                small   large   large\n"
        "Finally blocks in col.              0       11      7\n"
        "Goal achievement                    no      yes     no\n"
        "Plan: 6 moves (Exact)\n"
        "Failed moves at steps: 5\n"), "")
    code, out, _ = run_cli(capsys, "plan", str(domain))
    assert (code, out) == (0, "move 1 2\n" * 3 + "move 1 3\n" * 3)


@pytest.mark.parametrize("name", ["borderline", "borderline_failure", "well_established"])
@pytest.mark.parametrize("command, argv", [
    ("plan", ["plan"]), ("plan-json", ["plan", "--json"]), ("simulate", ["simulate"]),
    ("simulate-json", ["simulate", "--json"])])
def test_bundled_scenarios_keep_their_cli_bytes(capsys, name, command, argv):
    # The golden files hold each command's stdout and plan's stderr, which
    # --json leaves as it is and which counts the states expanded.
    code, out, err = run_cli(capsys, *argv, scenario(name))
    golden = Path(__file__).parent / "cli_golden"
    simulate = command.startswith("simulate")
    assert out == (golden / f"{name}.{command}.out").read_text()
    assert err == ("" if simulate else (golden / f"{name}.plan.err").read_text())
    assert code == (1 if simulate and name == "borderline_failure" else 0)


@pytest.mark.parametrize("name, command, argv", [
    ("borderline", "validate-json", ["validate", "--json", scenario("borderline")]),
    ("b7-s-9", "trace", ["trace", "--blocks", "7", "--steps", "-9"]),
    ("b7-s-9", "trace-json", ["trace", "--blocks", "7", "--steps", "-9", "--json"]),
    ("b3-s20-g6", "trace", ["trace", "--blocks", "3", "--steps", "20", "--granularity", "6"]),
    ("b3-s20-g6", "trace-json",
     ["trace", "--blocks", "3", "--steps", "20", "--granularity", "6", "--json"]),
    ("r3-s7-c3", "experiment", ["experiment", "--runs", "3", "--seed", "7", "--columns", "3"]),
    ("r3-s7-c3", "experiment-json",
     ["experiment", "--runs", "3", "--seed", "7", "--columns", "3", "--json"]),
])
def test_other_commands_keep_their_cli_bytes(capsys, name, command, argv):
    golden = Path(__file__).parent / "cli_golden" / f"{name}.{command}.out"
    assert run_cli(capsys, *argv) == (0, golden.read_text(), "")


def test_a_deep_depth_limit_keeps_the_plan(capsys):
    # A depth limit far past the interpreter's recursion limit changes no
    # byte of the plan: the walk keeps its own stack, and the tables grow to
    # the positions 5,000 moves reach.
    code, out, _ = run_cli(capsys, "plan", "--max-depth", "5000", scenario("borderline"))
    assert code == 0
    assert out == (Path(__file__).parent / "cli_golden" / "borderline.plan.out").read_text()


def test_simulate_json_report(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--json", scenario("borderline_failure"))
    assert code == 1
    payload = json.loads(out)
    assert payload["final_counts"] == [8, 0, 3, 4, 10]
    assert payload["achieved"] == [False, True, True, True, True]
    assert payload["all_achieved"] is False
    assert payload["outcome_kind"] == "Exact"


def test_trace_renders_the_trajectory(capsys):
    code, out, _ = run_cli(capsys, "trace", "--blocks", "11", "--steps", "-3")
    assert code == 0
    labels, rows = parse_trace(out)
    assert labels == ["11", "10", "9", "8"]
    assert [str(f) for f in rows["large"]] == ["1", "3/4", "1/2", "1/4"]


def test_trace_saturates_below_zero(capsys):
    code, out, _ = run_cli(capsys, "trace", "--blocks", "0", "--steps", "-2")
    assert code == 0
    labels, rows = parse_trace(out)
    assert labels == ["0", "0", "0"]
    assert [str(f) for f in rows["zero"]] == ["1", "1", "1"]


def test_trace_json(capsys):
    code, out, _ = run_cli(capsys, "trace", "--blocks", "5", "--steps", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["counts"] == [5, 6, 7]
    assert payload["rows"]["medium"] == ["4/4", "3/4", "2/4"]


def test_trace_rejects_bad_flags(capsys):
    assert run_cli(capsys, "trace", "--blocks", "-1", "--steps", "-2")[0] == 2
    assert run_cli(capsys, "trace", "--blocks", "3", "--steps", "-2",
                   "--granularity", "1")[0] == 2
    assert run_cli(capsys, "trace", "--blocks", "3", "--steps", "-9999")[0] == 2
    assert run_cli(capsys, "trace", "--blocks", "3", "--steps", "1",
                   "--granularity", "65")[0] == 2


def test_trace_steps_are_capped_at_ten_g_squared(capsys):
    args = ("trace", "--blocks", "3", "--granularity", "2", "--steps")
    assert run_cli(capsys, *args, "40")[0] == 0
    code, _, err = run_cli(capsys, *args, "41")
    assert (code, err) == (2, "|steps| > 40\n")


def test_experiment_is_reproducible_byte_for_byte(capsys):
    args = ("experiment", "--runs", "2", "--seed", "7", "--columns", "3",
            "--max-initial", "12", "--json")
    first = run_cli(capsys, *args)
    second = run_cli(capsys, *args)
    assert first == second
    assert first[0] == 0
    payload = json.loads(first[1])
    assert payload["params"]["seed"] == 7
    assert 0.0 <= payload["success_rate"] <= 1.0


def test_experiment_human_summary(capsys):
    code, out, _ = run_cli(capsys, "experiment", "--runs", "2", "--seed", "1",
                           "--columns", "3")
    assert code == 0
    assert out.startswith("run 0:")
    assert "success_rate:" in out


def test_experiment_rejects_bad_flags(capsys):
    assert run_cli(capsys, "experiment", "--runs", "0")[0] == 2
    assert run_cli(capsys, "experiment", "--columns", "0")[0] == 2
    assert run_cli(capsys, "experiment", "--columns", "65")[0] == 2
    assert run_cli(capsys, "experiment", "--max-initial", "-1")[0] == 2


def test_validate_is_silent_on_success(capsys):
    code, out, err = run_cli(capsys, "validate", scenario("borderline"))
    assert (code, out, err) == (0, "", "")
    code, out, _ = run_cli(capsys, "validate", "--json", scenario("borderline"))
    assert code == 0
    assert json.loads(out) == {"valid": True}


def test_validate_rejects_bad_documents(tmp_path, capsys):
    bad = tmp_path / "bad.qbd"
    bad.write_text("columns: 2\n")
    code, _, err = run_cli(capsys, "validate", str(bad))
    assert code == 2
    assert "E_MISSING_KEY" in err


def test_unknown_command_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


# Output streams that cannot be written. A CLI child runs as `python -m
# qbplan.cli` with Python's default buffering, under which a failed write
# may surface only at a flush, and under a shell where a test needs a stream
# closed or full.
CHILD = [sys.executable, "-m", "qbplan.cli"]
CHILD_ENV = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
CHILD_ENV["PYTHONPATH"] = str(SRC)
NO_DEV_FULL = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")


def child(redirect, *argv):
    """The exit code, stdout and stderr of a CLI child whose streams the
    shell redirection `redirect` sets up."""
    proc = subprocess.run(["sh", "-c", f'exec "$@" {redirect}', "sh", *CHILD, *argv],
                          env=CHILD_ENV, capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def test_a_reader_that_leaves_ends_the_output_quietly():
    # About 280 kB of JSON, far past a pipe's buffer: the child is still
    # writing when the reader leaves.
    with subprocess.Popen([*CHILD, "experiment", "--runs", "300", "--json"], env=CHILD_ENV,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        assert (proc.wait(timeout=120), proc.stderr.read()) == (0, b"")


def test_a_reader_that_has_left_keeps_the_exit_code():
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([*CHILD, "plan", scenario("borderline_failure"), "--max-depth", "1"],
                              env=CHILD_ENV, stdout=write,
                              stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        os.close(write)
    summary = "Closest: 0 moves, distance 4, 1 states expanded\n"
    assert (proc.returncode, proc.stderr) == (1, summary)


@NO_DEV_FULL
@pytest.mark.parametrize("argv", [
    ["validate", "--json", scenario("borderline")], ["plan", scenario("borderline")],
    ["experiment", "--runs", "300", "--json"]])
def test_a_full_stdout_is_a_coded_failure(argv):
    assert child(">/dev/full", *argv) == (2, "", "stdout: No space left on device\n")


@pytest.mark.parametrize("redirect", [
    ">&-", "2>&-", pytest.param("2>/dev/full", marks=NO_DEV_FULL)])
def test_a_closed_or_full_stream_keeps_the_exit_code(tmp_path, redirect):
    bad = tmp_path / "bad.qbd"
    bad.write_text("columns: five\n")
    for argv, exit_code in ((["plan", scenario("borderline")], 0),
                            (["plan", scenario("borderline_failure"), "--max-depth", "1"], 1),
                            (["validate", str(bad)], 2)):
        code, out, err = child(redirect, *argv)
        assert code == exit_code, argv
        assert "Traceback" not in err, argv
    # The malformed file's failure line stays off stdout, wherever stderr went.
    assert out == ""


# Domain files as arbitrary bytes: raw binary, and UTF-8 text mixing the lines
# of a valid domain with fuzzed ones.
VALID_LINES = Path(scenario("borderline")).read_text().splitlines()
FUZZ_LINES = fuzz_lines(VALID_LINES)


@st.composite
def fuzz_text(draw):
    """The valid lines, each replaced by a fuzzed line one time in four,
    with up to two fuzzed lines added, in any order."""
    lines = [draw(FUZZ_LINES) if draw(st.integers(0, 3)) == 3 else line for line in VALID_LINES]
    lines += draw(st.lists(FUZZ_LINES, max_size=2))
    return "\n".join(draw(st.permutations(lines))).encode()


FUZZ_FILES = st.binary(max_size=200) | fuzz_text()


@settings(deadline=None)
@given(FUZZ_FILES)
def test_cli_handles_arbitrary_domain_bytes(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.qbd"
        path.write_bytes(data)
        # Depth 1 keeps a fuzzed domain with many columns from starting a large search.
        for argv in (["validate"], ["validate", "--json"], ["plan", "--max-depth", "1"]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv + [str(path)])
            assert code in (0, 1, 2), argv
            if code == 2:
                assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n"), argv
