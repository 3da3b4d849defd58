"""Differential oracle for the one-query k-distance estimate.

:func:`estimate_dbscan_params` answers every k of its sweep from one
``cKDTree.query(k=hi + 1)``; :func:`k_distance_curve` queries per k.  Both
must equal, bit for bit, an O(n²) reference that sorts every pairwise
distance.  The reference sums squared differences dimension by
dimension, which is the tree's own order for up to three dimensions; wider
points are drawn from a coarse dyadic grid, where every such sum is exact
whatever the order.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.preprocessing.kdistance import estimate_dbscan_params, k_distance_curve


def naive_k_distance(points: np.ndarray, k: int) -> np.ndarray:
    """Ascending distance of each complete row to its k-th neighbour."""
    rows = [
        [float(v) for v in row]
        for row in points
        if not any(math.isnan(v) for v in row)
    ]
    if len(rows) <= k:
        return np.empty(0, dtype=np.float64)
    kth = []
    for p in rows:
        # every row, the point itself included: index 0 is the self-distance
        distances = sorted(
            math.sqrt(sum((a - b) * (a - b) for a, b in zip(p, q)))
            for q in rows
        )
        kth.append(distances[k])
    return np.sort(np.asarray(kth, dtype=np.float64))


_GRID = st.integers(-6, 6).map(lambda i: i / 4)
_ANY = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def point_sets(draw):
    """Point matrices with ties, duplicates, NaN rows and tiny sizes."""
    dims = draw(st.integers(1, 5))
    values = _ANY if dims <= 3 and draw(st.booleans()) else _GRID
    n = draw(st.integers(0, 24))
    if draw(st.booleans()):  # all-identical points
        rows = [draw(st.lists(values, min_size=dims, max_size=dims))] * n
    else:
        distinct = draw(
            st.lists(
                st.lists(values, min_size=dims, max_size=dims),
                min_size=1, max_size=max(n, 1),
            )
        )
        rows = [distinct[draw(st.integers(0, len(distinct) - 1))] for __ in range(n)]
    points = np.array(rows, dtype=np.float64).reshape(n, dims)
    for i in range(n):
        if draw(st.integers(0, 5)) == 0:  # a row with a missing feature
            points[i, draw(st.integers(0, dims - 1))] = np.nan
    lo = draw(st.integers(1, 4))
    hi = draw(st.integers(lo, lo + 6))
    return points, (lo, hi)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=200, deadline=None)
@given(point_sets())
def test_one_query_curves_equal_the_quadratic_reference(case):
    points, (lo, hi) = case
    estimate = estimate_dbscan_params(points, min_points_range=(lo, hi))
    assert sorted(estimate.curves) == list(range(lo, hi + 1))
    for k in range(lo, hi + 1):
        reference = naive_k_distance(points, k)
        assert _same_bits(estimate.curves[k], reference)
        assert _same_bits(k_distance_curve(points, k), reference)
