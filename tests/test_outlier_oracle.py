"""Differential oracle for the univariate fences.

:func:`boxplot_outliers` and :func:`mad_outliers` flag rows with one
full-array comparison; :func:`gesd_outliers` removes candidates over a
working array.  Each must flag exactly the rows a per-row loop flags by the
definition.  Samples are drawn from a quarter-step lattice, where every
quantile, median, deviation and mean the detectors take is exact, so the
loop's Python arithmetic and NumPy's agree bit for bit; gESD's per-step
mean and standard deviation come from NumPy on both sides.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from repro.preprocessing.outliers import (
    MAD_CONSISTENCY,
    MAD_CUTOFF,
    boxplot_outliers,
    gesd_outliers,
    mad_outliers,
)


def _median(xs: list[float]) -> float:
    s, mid = sorted(xs), len(xs) // 2
    return s[mid] if len(xs) % 2 else (s[mid - 1] + s[mid]) / 2


def loop_boxplot(values: list[float], whisker: float = 1.5) -> list[bool]:
    present = sorted(v for v in values if not math.isnan(v))
    if not present:
        return [False] * len(values)

    def quantile(q: float) -> float:  # linear interpolation between ranks
        h = (len(present) - 1) * q
        lo = math.floor(h)
        hi = min(lo + 1, len(present) - 1)
        return present[lo] + (present[hi] - present[lo]) * (h - lo)

    q1, q3 = quantile(0.25), quantile(0.75)
    lower, upper = q1 - whisker * (q3 - q1), q3 + whisker * (q3 - q1)
    return [v < lower or v > upper for v in values]  # NaN compares False


def loop_mad(values: list[float], cutoff: float = MAD_CUTOFF) -> list[bool]:
    present = [v for v in values if not math.isnan(v)]
    if not present:
        return [False] * len(values)
    median = _median(present)
    deviations = [abs(v - median) for v in present]
    mad = _median(deviations)
    if mad > 0:
        return [MAD_CONSISTENCY * abs(v - median) / mad > cutoff for v in values]
    mean_ad = sum(deviations) / len(deviations)  # more than half identical
    if mean_ad == 0:
        return [False] * len(values)
    return [abs(v - median) / (1.253314 * mean_ad) > cutoff for v in values]


def loop_gesd(
    values: list[float], max_outliers: int, alpha: float = 0.05
) -> list[bool]:
    present = [i for i, v in enumerate(values) if not math.isnan(v)]
    n = len(present)
    removed: list[int] = []
    declared = 0
    for i in range(1, min(max_outliers, max(n - 3, 0)) + 1):
        active = [j for j in present if j not in removed]
        sample = np.array([values[j] for j in active])
        mean, std = sample.mean(), sample.std(ddof=1)
        if std == 0:
            break
        worst = max(active, key=lambda j: abs(values[j] - mean))  # first of ties
        removed.append(worst)
        t = stats.t.ppf(1 - alpha / (2 * (n - i + 1)), n - i - 1)
        critical = (n - i) * t / math.sqrt((n - i - 1 + t * t) * (n - i + 1))
        if abs(values[worst] - mean) / std > critical:
            declared = i
    return [j in removed[:declared] for j in range(len(values))]


_LATTICE = st.integers(-40, 40).map(lambda i: i / 4)
_CELL = st.one_of(_LATTICE, st.just(math.nan))


@st.composite
def samples(draw):
    """Samples with ties, NaN, all-identical, empty and single-row shapes,
    and more-than-half-identical ones (MAD = 0, the mean-AD fallback)."""
    n = draw(st.integers(0, 40))
    shape = draw(st.sampled_from(["any", "identical", "majority"]))
    if shape == "any":
        return draw(st.lists(_CELL, min_size=n, max_size=n))
    same = draw(_LATTICE)
    values = [same] * n
    if shape == "majority":
        others = st.sets(st.integers(0, max(n - 1, 0)), max_size=max(n - 1, 0) // 2)
        for i in draw(others):
            values[i] = draw(_CELL)
    return values


@settings(max_examples=300, deadline=None)
@given(samples(), st.integers(1, 12))
@example([], 10)
@example([2.5], 10)
@example([1.0, 1.0, 1.0, 1.0, 9.0], 3)
@example([0.0] * 6 + [1.0, 2.0, 50.0], 3)
def test_fences_equal_the_loop_reference(values, max_outliers):
    arr = np.array(values, dtype=np.float64)
    assert boxplot_outliers(arr).mask.tolist() == loop_boxplot(values)
    assert mad_outliers(arr).mask.tolist() == loop_mad(values)
    gesd = gesd_outliers(arr, max_outliers).mask.tolist()
    assert gesd == loop_gesd(values, max_outliers)
