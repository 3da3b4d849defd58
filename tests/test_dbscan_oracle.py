"""Differential oracle for the DBSCAN noise set.

:func:`dbscan` finds noise with two ``cKDTree`` counting passes.  It must
equal an O(n²) reference that applies the definition row by row: a row is
core when at least ``min_points`` rows (itself included) lie within eps,
and noise when it is neither core nor within eps of a core row.  "Within"
is the tree's own inclusive squared-distance test.  Lattice coordinates
make every such sum exact, so rows exactly eps apart are true ties;
unrestricted floats are kept to three dimensions, where the reference
sums in the tree's order.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.preprocessing.dbscan import dbscan


def naive_noise(points: np.ndarray, eps: float, min_points: int) -> np.ndarray:
    """Noise rows by the definition: NaN, or neither core nor near a core."""
    complete = [i for i, row in enumerate(points) if not np.isnan(row).any()]

    def within(i: int, j: int) -> bool:
        return ((points[i] - points[j]) ** 2).sum() <= eps**2

    core = [i for i in complete if sum(within(i, j) for j in complete) >= min_points]
    noise = np.ones(len(points), dtype=bool)
    for i in complete:
        noise[i] = i not in core and not any(within(i, j) for j in core)
    return noise


_LATTICE = st.integers(-8, 8).map(lambda i: i / 4)
_ANY = st.floats(-3, 3, allow_nan=False, allow_infinity=False)


@st.composite
def point_sets(draw):
    """Point matrices with ties at eps, duplicates, NaN rows and tiny sizes."""
    dims = draw(st.integers(1, 5))
    values = _ANY if dims <= 3 and draw(st.booleans()) else _LATTICE
    n = draw(st.integers(0, 30))
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
    return points


@settings(max_examples=300, deadline=None)
@given(
    point_sets(),
    st.sampled_from([0.5, 1.0, 1.5]),
    st.integers(1, 5),
)
@example(np.empty((0, 2)), 1.0, 1)
@example(np.array([[0.5, 0.5]]), 1.0, 1)
@example(np.array([[0.5, 0.5]]), 1.0, 2)
@example(np.array([[0.0], [1.0], [2.0], [3.5]]), 1.0, 3)
def test_noise_equals_the_quadratic_reference(points, eps, min_points):
    result = dbscan(points, eps, min_points)
    reference = naive_noise(points, eps, min_points)
    assert result.noise_mask.dtype == bool
    assert np.array_equal(result.noise_mask, reference)
    assert result.n_noise == int(reference.sum())
    assert result.n_missing == int(np.isnan(points).any(axis=1).sum())
