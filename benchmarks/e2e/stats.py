"""Order statistics shared by the runner, the comparer and the tests.

Every timing is reported as a median plus the highest percentile that
still has at least ten samples beyond it, together with the sample
count: a p99 over 200 samples rests on two observations and says
nothing, so the rule picks the tail the sample can actually support.
"""

from __future__ import annotations

import math
import statistics

#: Tail percentiles the reports choose from, lowest first.
PERCENTILE_LADDER = (50.0, 75.0, 90.0, 95.0, 98.0, 99.0, 99.5, 99.9)

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10


def percentile(values, q: float) -> float:
    """The *q*-th percentile of *values* by linear interpolation.

    Matches ``numpy.percentile``'s default method, without needing NumPy
    in the parent process.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = (len(ordered) - 1) * q / 100.0
    lo = math.floor(rank)
    hi = math.ceil(rank)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def supported_percentile(n: int, cap: float = 100.0) -> float | None:
    """The highest ladder percentile with ``MIN_BEYOND`` samples beyond it.

    ``None`` when even the median lacks ten samples beyond it (fewer
    than 20 samples).  *cap* lets a workload stop below the supported
    tail when a higher one does not repeat between runs.
    """
    best = None
    for q in PERCENTILE_LADDER:
        # the epsilon absorbs float error: 10000 samples leave 10 beyond p99.9
        if q <= cap and n * (100.0 - q) / 100.0 + 1e-9 >= MIN_BEYOND:
            best = q
    return best


def summary(values) -> dict:
    """Median, quartiles and count of a sample (``None`` fields if empty)."""
    values = [float(v) for v in values]
    if not values:
        return {"median": None, "q1": None, "q3": None, "n": 0}
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, __, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
    }


def relative_spread(values) -> float | None:
    """Interquartile distance as a share of the median (``None`` if n < 2)."""
    values = [float(v) for v in values]
    if len(values) < 2:
        return None
    q1, __, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    if median == 0:
        return None
    return (q3 - q1) / abs(median)
