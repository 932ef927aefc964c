import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fuzz_lines, parse_trace, scenario
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


@pytest.mark.parametrize("name", ["borderline", "borderline_failure", "well_established"])
@pytest.mark.parametrize("command, argv", [
    ("plan", ["plan"]), ("plan-json", ["plan", "--json"]), ("simulate", ["simulate"])])
def test_bundled_scenarios_keep_their_cli_bytes(capsys, name, command, argv):
    # The golden files hold each command's stdout and plan's stderr, which
    # --json leaves as it is and which counts the states expanded.
    code, out, err = run_cli(capsys, *argv, scenario(name))
    golden = Path(__file__).parent / "cli_golden"
    assert out == (golden / f"{name}.{command}.out").read_text()
    assert err == ("" if command == "simulate" else (golden / f"{name}.plan.err").read_text())
    assert code == (1 if command == "simulate" and name == "borderline_failure" else 0)


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
