"""Report aggregation, display rounding and the trend check."""

import pytest

from benchtop.campaign import EnvVariant, InstructionKind, SourceMix
from benchtop.errors import EmptyResults, UsageError
from benchtop.report import (
    Factor,
    ReportFormat,
    TrendViolation,
    aggregate,
    emit,
    format_rate,
    trend_check,
)
from benchtop.runner import EpisodeResult


def result(policy="p", success=True, object_count=1, env=EnvVariant.DEFAULT):
    return EpisodeResult(
        scene_index=0,
        instruction="pick up the cup",
        instruction_kind=InstructionKind.BASIC,
        success=success,
        steps_used=10,
        object_count=object_count,
        source_mix=SourceMix.SEEN_ONLY,
        env_variant=env,
        policy_id=policy,
        trial_seed=1,
    )


def results(policy, object_count, successes, trials):
    return [result(policy, i < successes, object_count) for i in range(trials)]


@pytest.mark.parametrize(
    "value, shown",
    [(0.15, "0.2"), (12.25, "12.3"), (200 / 3, "66.7"), (0.05, "0.1"),
     (0.0, "0.0"), (100.0, "100.0"), (12.5, "12.5")],
)
def test_display_rounds_half_up_to_one_decimal(value, shown):
    assert format_rate(value) == shown


def test_missing_rate_shows_the_empty_marker():
    assert format_rate(None) == ""
    assert format_rate(None, empty="-") == "-"


def test_rates_are_percentages_and_the_average_spans_present_levels_only():
    table = aggregate(
        results("a", 1, 2, 3) + results("a", 2, 0, 2) + results("b", 1, 1, 4),
        Factor.OBJECT_COUNT,
    )
    assert table.levels == (1, 2)
    a, b = table.rows
    assert a.policy_id == "a" and a.rates == (200 / 3, 0.0)
    assert a.avg == pytest.approx(100 / 3)
    # b never ran at two objects: its average is its one rate, not half of it
    assert b.policy_id == "b" and b.rates == (25.0, None)
    assert b.avg == 25.0
    assert emit(table, ReportFormat.CSV) == (
        "policy_id,1,2,avg\n"
        "a,66.7,0.0,33.3\n"
        "b,25.0,,25.0\n"
    )


def test_markdown_marks_a_missing_cell_with_a_dash():
    table = aggregate(
        results("a", 1, 1, 1) + results("a", 3, 1, 2) + results("bb", 1, 0, 1),
        Factor.OBJECT_COUNT,
    )
    assert emit(table, ReportFormat.MARKDOWN) == (
        "| policy_id | 1     | 3    | avg  |\n"
        "|-----------|-------|------|------|\n"
        "| a         | 100.0 | 50.0 | 75.0 |\n"
        "| bb        | 0.0   | -    | 0.0  |\n"
    )


def test_absent_categorical_levels_are_omitted_in_their_order():
    table = aggregate(
        [result(env=EnvVariant.CAMERA_MUTATED), result(env=EnvVariant.DEFAULT)],
        Factor.ENV_VARIANT,
    )
    assert table.levels == ("default", "camera_mutated")
    assert emit(table, ReportFormat.CSV).splitlines()[0] == (
        "policy_id,default,camera_mutated,avg"
    )


def test_no_results_is_an_error():
    with pytest.raises(EmptyResults):
        aggregate([], Factor.OBJECT_COUNT)


def _falling():
    # 100% with one object, 50% with two
    return aggregate(results("p", 1, 1, 1) + results("p", 2, 1, 2), Factor.OBJECT_COUNT)


def _rising():
    return aggregate(results("p", 1, 1, 2) + results("p", 2, 1, 1), Factor.OBJECT_COUNT)


def _falling_then_rising():
    # 100% with one object, 50% with two, 100% again with three
    return aggregate(
        results("p", 1, 1, 1) + results("p", 2, 1, 2) + results("p", 3, 1, 1),
        Factor.OBJECT_COUNT,
    )


@pytest.mark.parametrize(
    "table, rise",
    [(_rising, (1, 2)), (_falling_then_rising, (2, 3))],
    ids=["rise", "fall_then_rise"],
)
def test_trend_check_passes_at_the_slack_and_fails_just_past_it(table, rise):
    table = table()
    assert trend_check(table, slack=50.0) == ()
    a, b = (table.rows[0].rates[table.levels.index(level)] for level in rise)
    assert trend_check(table, slack=49.99) == (
        TrendViolation(policy_id="p", level_a=rise[0], level_b=rise[1], rate_a=a, rate_b=b),
    )


def test_trend_check_accepts_the_expected_direction_with_no_slack():
    assert trend_check(_falling(), slack=0.0) == ()


def test_trend_check_skips_pairs_with_a_missing_rate():
    table = aggregate(
        results("p", 1, 0, 1) + results("q", 2, 1, 1), Factor.OBJECT_COUNT
    )
    assert trend_check(table, slack=0.0) == ()


def test_trend_check_needs_an_ordered_factor():
    table = aggregate([result()], Factor.INSTRUCTION_KIND)
    with pytest.raises(UsageError, match="ordered factor"):
        trend_check(table)


def test_trend_check_rejects_a_negative_slack():
    with pytest.raises(UsageError, match="non-negative"):
        trend_check(_falling(), slack=-0.1)


@pytest.mark.parametrize("slack", [float("nan"), float("inf")])
def test_trend_check_rejects_a_slack_that_is_not_finite(slack):
    # a NaN slack made every comparison false, so a rising trend passed
    with pytest.raises(UsageError, match="finite"):
        trend_check(_rising(), slack=slack)
