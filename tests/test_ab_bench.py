"""``scripts/ab_bench.py``'s seed parsing and verdicts, on made-up values;
no benchmark runs."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location("ab_bench", Path(__file__).resolve().parents[1] / "scripts/ab_bench.py")
ab_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_bench)


def test_seeds_parses_ranges_and_lists():
    assert ab_bench.seeds("901-905") == [901, 902, 903, 904, 905]
    assert ab_bench.seeds("1,2,5") == [1, 2, 5]
    assert ab_bench.seeds("1-3,10,20-21") == [1, 2, 3, 10, 20, 21]


SPREAD = [60, 80, 100, 120, 140]  # inter-quartile distance 60, a share of 0.6 of the median


@pytest.mark.parametrize("base, change, direction, want", [
    # a steady base: the median moves by 10% or 20%, and by 30%, against a bound of 25%
    ([100] * 5, [110] * 5, "lower", "within bound"),
    ([100] * 5, [130] * 5, "lower", "worse"),
    ([1.0] * 5, [1.2] * 5, "higher", "within bound"),
    ([1.0] * 5, [0.7] * 5, "higher", "worse"),
    # zeros, which have no share: the same value is within bound, any worse one is worse
    ([0.0] * 3, [0.0] * 3, "higher", "within bound"),
    ([0.0] * 3, [0.5] * 3, "lower", "worse"),
    # a base that spreads by more than the bound cannot tell either way ...
    (SPREAD, [100] * 5, "lower", "unresolved"),
    (SPREAD, [200] * 5, "lower", "unresolved"),
    # ... unless every change run beats every base run
    (SPREAD, [50] * 5, "lower", "within bound"),
    (SPREAD, [150] * 5, "higher", "within bound"),
])
def test_verdict_against_the_bound(base, change, direction, want):
    assert ab_bench.verdict(base, change, 0.25, direction) == want
