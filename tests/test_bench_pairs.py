"""The pair-summary rule of tools/bench_pairs.py, on synthetic runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

HIGHER = {"name": "ops", "unit": "1/s", "better": "higher", "bound": 0.25}
LOWER = {"name": "p50", "unit": "ms", "better": "lower", "bound": 0.25}
# Ten base values with quartiles 99 and 101 (statistics.quantiles, n=4),
# so a gain holds only if the change's median beats 100 by more than 2.
BASE = [99, 101, 100, 98, 102, 100, 99, 101, 100, 100]


def _runs(metric, base, change):
    return [
        {"base": {"metrics": {metric["name"]: b}}, "change": {"metrics": {metric["name"]: c}}}
        for b, c in zip(base, change)
    ]


def _summary(metric, base, change):
    return bench_pairs.summarise(_runs(metric, base, change), [metric])[metric["name"]]


def test_base_quartiles():
    m = _summary(HIGHER, BASE, BASE)
    assert (m["base"]["q1"], m["base"]["median"], m["base"]["q3"]) == (99, 100, 101)


def test_ties_count_for_neither_side():
    change = [v + 5 for v in BASE[:7]] + BASE[7:9] + [BASE[9] - 1]
    m = _summary(HIGHER, BASE, change)
    assert (m["change_wins"], m["base_wins"]) == (7, 1)
    m = _summary(HIGHER, BASE, BASE)
    assert (m["change_wins"], m["base_wins"]) == (0, 0)
    assert m["median_gain_share"] == 0.0
    assert m["within_bound"] and not m["gain_holds"]


def test_lower_is_better_counts_the_smaller_value_as_the_win():
    base = [10.0] * 10
    m = _summary(LOWER, base, [9.0] * 9 + [11.0])
    assert (m["change_wins"], m["base_wins"]) == (9, 1)
    assert m["median_gain_share"] == pytest.approx(0.1)
    assert m["gain_holds"] and m["within_bound"]
    # The same numbers read the other way round are a loss.
    m = _summary(HIGHER, base, [9.0] * 9 + [11.0])
    assert (m["change_wins"], m["base_wins"]) == (1, 9)
    assert m["median_gain_share"] == pytest.approx(-0.1)
    assert not m["gain_holds"]


@pytest.mark.parametrize(
    "metric, factor, within",
    [
        (HIGHER, 0.80, True),  # 20 % fewer ops: inside the 25 % bound
        (HIGHER, 0.75, True),  # exactly on the bound
        (HIGHER, 0.70, False),
        (LOWER, 1.20, True),  # 20 % slower
        (LOWER, 1.30, False),
        (HIGHER, 1.50, True),  # a gain is always within bound
        (LOWER, 0.50, True),
    ],
)
def test_within_bound(metric, factor, within):
    base = [100.0] * 10
    m = _summary(metric, base, [v * factor for v in base])
    assert m["within_bound"] is within


def test_gain_holds_needs_nine_wins_in_ten():
    change = [v + 10 for v in BASE]
    assert _summary(HIGHER, BASE, change)["gain_holds"]
    nine = change[:9] + [BASE[9]]  # one tie
    m = _summary(HIGHER, BASE, nine)
    assert m["change_wins"] == 9 and m["gain_holds"]
    eight = change[:8] + BASE[8:]  # two ties
    m = _summary(HIGHER, BASE, eight)
    assert m["change_wins"] == 8 and not m["gain_holds"]


def test_gain_holds_needs_a_median_gain_beyond_the_base_quartiles():
    # The change wins every pair, but its median beats the base's by 2,
    # no more than the base's interquartile range of 2.
    m = _summary(HIGHER, BASE, [v + 2 for v in BASE])
    assert m["change_wins"] == 10
    assert not m["gain_holds"]
    m = _summary(HIGHER, BASE, [v + 3 for v in BASE])
    assert m["gain_holds"]
    # Lower is better: the same margin, measured downwards.
    assert not _summary(LOWER, BASE, [v - 2 for v in BASE])["gain_holds"]
    assert _summary(LOWER, BASE, [v - 3 for v in BASE])["gain_holds"]


# Quartiles 68.75 and 131.25: a spread of 62.5 % of the median, wider than the
# 25 % bound.
WIDE = [60, 140, 100, 70, 130, 100, 65, 135, 100, 100]


@pytest.mark.parametrize("metric", [HIGHER, LOWER])
def test_a_base_spread_wider_than_the_bound_leaves_the_metric_unresolved(metric):
    m = _summary(metric, WIDE, WIDE)
    assert m["base"]["q3"] - m["base"]["q1"] > metric["bound"] * m["base"]["median"]
    assert m["unresolved"] and m["within_bound"]
    # Every change run beats every base run: the spread does not hide it.
    better = [141 if metric is HIGHER else 59] * 10
    assert not _summary(metric, WIDE, better)["unresolved"]
    # Beating all but one base run is not enough.
    nearly = [139 if metric is HIGHER else 61] * 10
    assert _summary(metric, WIDE, nearly)["unresolved"]


def test_a_base_spread_inside_the_bound_is_resolved():
    assert not _summary(HIGHER, BASE, BASE)["unresolved"]
    assert not _summary(LOWER, BASE, [v * 1.5 for v in BASE])["unresolved"]
