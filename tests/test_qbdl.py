import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import fuzz_lines, scenario
from qbplan.beliefs import Quality, QualityScale
from qbplan.qbdl import DomainSpec, ParseError, parse, serialize

WELL_ESTABLISHED = Path(scenario("well_established")).read_text()

VALID = """columns: 5
granularity: 4
bands: zero=0..0, small=1..4, medium=5..8, large=9..12
initial: 7 2 0 11 6
goal: small small medium medium small
"""


def test_parse_the_default_five_column_document():
    spec = parse(VALID)
    assert spec.columns == 5
    assert spec.initial_counts == (7, 2, 0, 11, 6)
    assert [q.name for q in spec.goals] == ["small", "small", "medium", "medium", "small"]
    assert spec.scale.granularity == 4
    assert spec.scale.bands == ((0, 0), (1, 4), (5, 8), (9, 12))


def test_parse_ignores_comments_blank_lines_and_key_order():
    shuffled = """
# a comment
goal: small small  # trailing comment
initial: 1 2

granularity: 4
bands: zero=0..0, small=1..4, medium=5..8, large=9..12
columns: 2
"""
    spec = parse(shuffled)
    assert spec.columns == 2
    assert spec.initial_counts == (1, 2)


def test_parse_accepts_the_bundled_scenarios():
    spec = parse(WELL_ESTABLISHED)
    assert spec == parse(VALID)


def test_serialize_is_canonical():
    text = serialize(parse(WELL_ESTABLISHED))
    assert "initial: 7 2 0 11 6\n" in text
    assert text.splitlines()[0] == "columns: 5"
    failure = Path(scenario("borderline_failure")).read_text()
    assert "initial: 5 3 0 7 10\n" in serialize(parse(failure))
    borderline = Path(scenario("borderline")).read_text()
    assert "goal: medium medium large medium small\n" in serialize(parse(borderline))


def test_round_trip_identity():
    spec = parse(VALID)
    assert parse(serialize(spec)) == spec
    assert serialize(parse(serialize(spec))) == serialize(spec)


def expect_error(doc: str, code: str, line: int | None = None, message: str | None = None):
    with pytest.raises(ParseError) as info:
        parse(doc)
    assert info.value.code == code
    if line is not None:
        assert info.value.line == line
    if message is not None:
        assert info.value.message == message


def test_unknown_and_malformed_keys_are_parse_errors():
    expect_error(VALID + "extra: 1\n", "E_PARSE", 6)
    expect_error("just some words\n" + VALID, "E_PARSE", 1)
    expect_error(VALID.replace("columns: 5", "columns: five"), "E_PARSE", 1)
    expect_error(VALID.replace("columns: 5", "columns: 0"), "E_PARSE", 1)
    expect_error(VALID.replace("granularity: 4", "granularity: 1"), "E_PARSE", 2)


def test_granularity_must_match_the_band_count():
    expect_error(VALID.replace("granularity: 4", "granularity: 3"), "E_PARSE", 2)


def test_band_arrangement_errors_carry_specific_codes():
    expect_error(VALID.replace("small=1..4", "small=2..4"), "E_BANDS_GAP", 3)
    expect_error(VALID.replace("zero=0..0", "zero=1..1"), "E_BANDS_GAP", 3)
    expect_error(VALID.replace("small=1..4", "small=0..4"), "E_BANDS_OVERLAP", 3)
    expect_error(
        VALID.replace(
            "bands: zero=0..0, small=1..4",
            "bands: small=1..4, zero=0..0",
        ),
        "E_BANDS_ORDER",
        3,
    )
    expect_error(VALID.replace("small=1..4", "small=4..1"), "E_BANDS_ORDER", 3)
    expect_error(VALID.replace("small=1..4", "small=1though4"), "E_PARSE", 3)
    bands = "zero=0..0, small=1..4, medium=5..8, large=9..12"
    expect_error(VALID.replace(bands, "a=0..0, a=1..2"), "E_PARSE", 3,
                 "duplicate band name 'a'")
    expect_error(VALID.replace(bands, "a=0..5"), "E_PARSE", 3, "at least two bands required")


def test_arity_errors_name_the_offending_line():
    expect_error(VALID.replace("goal: small small medium medium small",
                               "goal: small small medium medium"), "E_ARITY", 5)
    expect_error(VALID.replace("initial: 7 2 0 11 6", "initial: 7 2 0 11"), "E_ARITY", 4)


def test_unknown_goal_quality():
    expect_error(VALID.replace("goal: small small", "goal: huge small"),
                 "E_UNKNOWN_QUALITY", 5)


def test_negative_initial_count():
    expect_error(VALID.replace("initial: 7 2 0 11 6", "initial: 7 -2 0 11 6"),
                 "E_COUNT_NEGATIVE", 4)


def test_duplicate_and_missing_keys():
    expect_error(VALID + "columns: 5\n", "E_DUP_KEY", 6)
    expect_error("\n".join(VALID.splitlines()[:-1]) + "\n", "E_MISSING_KEY")


def test_first_error_in_document_order_wins():
    doc = """goal: small nosuch
initial: 1 2 3
columns: 2
granularity: 4
bands: zero=0..0, small=1..4, medium=5..8, large=9..12
"""
    # both the goal line (unknown quality) and the initial line (arity) are
    # wrong; the goal line comes first
    expect_error(doc, "E_UNKNOWN_QUALITY", 1)


# Characters other than LF and CR at which str.splitlines breaks a line.
OTHER_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("char", OTHER_BREAKS)
def test_only_lf_cr_lf_and_cr_end_a_line(char):
    # Inside a comment such a character is comment text, so it neither
    # breaks a valid document nor hides the error on the line after it.
    assert parse(f"# scenario {char} note\n" + VALID) == parse(VALID)
    granularity = "granularity: 4\n"
    with pytest.raises(ParseError) as info:
        parse(f"# a {char} b\ngranularity: x\n" + VALID.replace(granularity, ""))
    assert (info.value.code, info.value.line) == ("E_PARSE", 2)
    assert info.value.message == "granularity: expected an integer, got 'x'"


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_lf_cr_lf_and_cr_lines_count_alike(newline):
    assert parse(VALID.replace("\n", newline)) == parse(VALID)
    expect_error(VALID.replace("initial: 7 2 0 11", "initial: 7 2 0").replace("\n", newline),
                 "E_ARITY", 4)
    # A final line break starts no new line.
    expect_error(f"columns: 2{newline}", "E_MISSING_KEY", 1)
    expect_error(f"columns: 2{newline}{newline}", "E_MISSING_KEY", 2)


DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not DIGIT_LIMIT, reason="the interpreter sets no int-string digit limit")
def test_integers_past_the_digit_limit_are_parse_errors():
    huge = "9" * (DIGIT_LIMIT + 1)
    expect_error(VALID.replace("columns: 5", f"columns: {huge}"), "E_PARSE", 1)
    expect_error(VALID.replace("granularity: 4", f"granularity: {huge}"), "E_PARSE", 2)
    expect_error(VALID.replace("large=9..12", f"large=9..{huge}"), "E_PARSE", 3)
    expect_error(VALID.replace("initial: 7", f"initial: {huge}"), "E_PARSE", 4)


def uniform_document(g: int) -> str:
    bands = ", ".join(["zero=0..0"] + [f"q{i}={i}..{i}" for i in range(1, g)])
    return f"columns: 1\ngranularity: {g}\nbands: {bands}\ninitial: 3\ngoal: q1\n"


def test_granularity_is_capped_where_the_column_automaton_is():
    assert parse(uniform_document(64)).scale.granularity == 64
    expect_error(uniform_document(65), "E_PARSE", 2, "granularity must be in 2..64")


def column_document(n: int) -> str:
    return VALID.replace("columns: 5", f"columns: {n}").replace(
        "initial: 7 2 0 11 6", "initial:" + " 3" * n).replace(
        "goal: small small medium medium small", "goal:" + " small" * n)


def test_column_count_is_capped_like_the_granularity():
    assert parse(column_document(64)).columns == 64
    expect_error(column_document(65), "E_PARSE", 1, "columns must be in 1..64")


def test_initial_counts_above_the_top_band_are_legal():
    spec = parse(VALID.replace("initial: 7 2 0 11 6", "initial: 7 2 0 40 6"))
    assert spec.initial_counts[3] == 40


def test_domain_spec_validates_programmatic_construction():
    spec = parse(VALID)
    with pytest.raises(ValueError):
        DomainSpec(4, spec.scale, spec.initial_counts, spec.goals)
    with pytest.raises(ValueError):
        DomainSpec(65, spec.scale, (1,) * 65, spec.goals[:1] * 65)
    with pytest.raises(ValueError):
        DomainSpec(5, spec.scale, (1, 2, 3, 4, -5), spec.goals)
    with pytest.raises(ValueError):
        DomainSpec(5, spec.scale, spec.initial_counts,
                   spec.goals[:-1] + (Quality(9, "other"),))


@st.composite
def domain_specs(draw):
    g = draw(st.integers(2, 6))
    widths = draw(st.lists(st.integers(1, 5), min_size=g - 1, max_size=g - 1))
    qualities = [Quality(0, "zero")]
    bands = [(0, 0)]
    for i, width in enumerate(widths, 1):
        qualities.append(Quality(i, f"q{i}"))
        bands.append((bands[-1][1] + 1, bands[-1][1] + width))
    scale = QualityScale(tuple(qualities), tuple(bands))
    columns = draw(st.integers(1, 6))
    counts = draw(st.lists(st.integers(0, bands[-1][1] + 3),
                           min_size=columns, max_size=columns))
    goals = draw(st.lists(st.sampled_from(qualities), min_size=columns, max_size=columns))
    return DomainSpec(columns, scale, tuple(counts), tuple(goals))


@given(domain_specs())
def test_round_trip_identity_on_generated_specs(spec):
    assert parse(serialize(spec)) == spec


FUZZ_LINES = fuzz_lines(VALID.splitlines())


@given(st.lists(FUZZ_LINES, max_size=8))
def test_parse_raises_only_parse_errors(lines):
    try:
        parse("\n".join(lines))
    except ParseError:
        pass
