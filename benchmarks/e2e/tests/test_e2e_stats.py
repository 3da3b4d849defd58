"""The percentile rule and the order statistics the reports rest on."""

import statistics

import numpy as np
import pytest

from stats import percentile, relative_spread, summary, supported_percentile


@pytest.mark.parametrize(
    "n, cap, expected",
    [
        (0, 100, None),
        (19, 100, None),  # the median would have 9.5 samples beyond it
        (20, 100, 50.0),
        (40, 100, 75.0),
        (100, 100, 90.0),  # p95 has only 5 beyond
        (199, 100, 90.0),
        (200, 100, 95.0),
        (999, 100, 98.0),
        (1000, 100, 99.0),
        (1050, 100, 99.0),
        (10000, 100, 99.9),
        (10000, 90, 90.0),  # a workload may stop below the supported tail
    ],
)
def test_highest_percentile_with_ten_samples_beyond(n, cap, expected):
    assert supported_percentile(n, cap) == expected
    if expected is not None:
        assert round(n * (100 - expected) / 100, 6) >= 10


def test_percentile_matches_numpy():
    rng = np.random.default_rng(3)
    values = list(rng.exponential(size=257))
    for q in (0, 10, 50, 90, 99, 99.9, 100):
        assert percentile(values, q) == pytest.approx(np.percentile(values, q))


def test_summary_and_spread():
    assert summary([]) == {"median": None, "q1": None, "q3": None, "n": 0}
    one = summary([4.0])
    assert one["median"] == one["q1"] == one["q3"] == 4.0
    s = summary([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (s["median"], s["n"]) == (3.0, 5)
    assert relative_spread([2.0]) is None
    assert relative_spread([10.0, 10.0, 10.0]) == 0.0
    # spread is defined on statistics.quantiles(values, n=4)
    q1, __, q3 = statistics.quantiles([9.0, 10.0, 11.0], n=4)
    assert relative_spread([9.0, 10.0, 11.0]) == pytest.approx((q3 - q1) / 10)
