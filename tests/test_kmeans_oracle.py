"""Differential oracle for the vectorized Lloyd loop in ``analytics/kmeans.py``.

``reference_kmeans`` below is the plain Lloyd loop that the vectorized
loop replaced, kept verbatim: every iteration recomputes the row norms,
computes the full distance matrix, takes its argmin and rebuilds each
centroid from a boolean mask.  The vectorized loop must return the same ``labels``, ``centroids`` (bit for
bit, ``-0.0`` included), ``sse``, ``n_iterations`` and ``converged`` on
every input: lattice points with exact ties, duplicate and identical
rows, K = 1 and K = n, clusters forced empty, one and several
dimensions, signed zeros, NaN rows, and far-from-origin data whose
expanded distances round in the last bits.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytics.kmeans import UNASSIGNED, KMeansResult, _kmeans_plus_plus, kmeans


def _reference_assign(points: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-centroid assignment; returns (labels, squared distances)."""
    # (n, k) squared Euclidean distances without forming (n, k, d)
    sq_norms = np.sum(centroids**2, axis=1)
    cross = points @ centroids.T
    dist_sq = np.maximum(np.sum(points**2, axis=1)[:, None] - 2 * cross + sq_norms, 0.0)
    labels = np.argmin(dist_sq, axis=1)
    return labels, dist_sq[np.arange(len(points)), labels]


def reference_kmeans(
    matrix: np.ndarray,
    k: int,
    max_iterations: int = 300,
    n_init: int = 5,
    seed: int = 0,
) -> KMeansResult:
    """Lloyd's K-means with k-means++ seeding and ``n_init`` restarts.

    The best restart by SSE wins.  Iteration stops when assignments no
    longer change ("the centroids no longer change" in the paper's terms)
    or after *max_iterations*.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError(f"expected an (n, d) matrix, got shape {matrix.shape}")
    if k < 1:
        raise ValueError("k must be >= 1")
    complete = ~np.isnan(matrix).any(axis=1)
    fit_idx = np.flatnonzero(complete)
    if len(fit_idx) < k:
        raise ValueError(f"only {len(fit_idx)} complete rows for k={k}")
    points = matrix[fit_idx]
    rng = np.random.default_rng(seed)

    best: tuple[float, np.ndarray, np.ndarray, int, bool] | None = None
    for __ in range(n_init):
        centroids = _kmeans_plus_plus(points, k, rng)
        labels = np.full(len(points), -1, dtype=np.intp)
        converged = False
        iteration = 0
        for iteration in range(1, max_iterations + 1):
            new_labels, dist_sq = _reference_assign(points, centroids)
            if np.array_equal(new_labels, labels):
                converged = True
                break
            labels = new_labels
            for c in range(k):
                members = points[labels == c]
                if len(members):
                    centroids[c] = members.mean(axis=0)
                else:
                    # re-seed an empty cluster at the worst-fitted point
                    centroids[c] = points[int(np.argmax(dist_sq))]
        __, dist_sq = _reference_assign(points, centroids)
        sse = float(dist_sq.sum())
        if best is None or sse < best[0]:
            best = (sse, labels.copy(), centroids.copy(), iteration, converged)

    sse, labels, centroids, iterations, converged = best
    full_labels = np.full(len(matrix), UNASSIGNED, dtype=np.intp)
    full_labels[fit_idx] = labels
    return KMeansResult(
        k=k,
        labels=full_labels,
        centroids=centroids,
        sse=sse,
        n_iterations=iterations,
        converged=converged,
    )


def assert_same_fit(matrix: np.ndarray, k: int, **kwargs) -> KMeansResult:
    """Fit both loops and require every field to match bit for bit."""
    expected = reference_kmeans(matrix, k, **kwargs)
    actual = kmeans(matrix, k, **kwargs)
    np.testing.assert_array_equal(actual.labels, expected.labels)
    assert actual.centroids.shape == expected.centroids.shape
    assert actual.centroids.tobytes() == expected.centroids.tobytes()
    assert np.float64(actual.sse).tobytes() == np.float64(expected.sse).tobytes()
    assert actual.n_iterations == expected.n_iterations
    assert actual.converged == expected.converged
    return actual


# -- hypothesis property ---------------------------------------------------


@st.composite
def _matrices(draw) -> np.ndarray:
    """An (n, d) matrix built to hit the loop's edge cases."""
    n = draw(st.integers(1, 40))
    d = draw(st.sampled_from([1, 1, 2, 3, 5, 8]))
    kind = draw(st.sampled_from(["lattice", "floats", "identical", "duplicates"]))
    if kind == "lattice":
        # small integer grids: many exact distance ties
        cells = st.integers(-3, 3).map(float)
    else:
        cells = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    if kind == "identical":
        rows = [draw(st.lists(cells, min_size=d, max_size=d))] * n
    elif kind == "duplicates":
        base = draw(st.lists(st.lists(cells, min_size=d, max_size=d), min_size=1, max_size=4))
        rows = [base[i] for i in draw(st.lists(st.integers(0, len(base) - 1), min_size=n, max_size=n))]
    else:
        rows = draw(st.lists(st.lists(cells, min_size=d, max_size=d), min_size=n, max_size=n))
    matrix = np.array(rows, dtype=np.float64).reshape(n, d)
    # far from the origin the expanded distance rounds in its last bits
    offset = draw(st.sampled_from([0.0, 0.0, 1e4, 1e8]))
    scale = draw(st.sampled_from([1.0, 0.1, 1e-3]))
    matrix = matrix * scale + offset
    if draw(st.booleans()):
        # signed zeros in some cells
        zeros = np.array(draw(st.lists(st.booleans(), min_size=n * d, max_size=n * d)))
        matrix[zeros.reshape(n, d)] = -0.0
    if n > 1 and draw(st.booleans()):
        nan_rows = draw(st.lists(st.integers(0, n - 1), max_size=n - 1))
        matrix[nan_rows, draw(st.integers(0, d - 1))] = np.nan
    return matrix


@settings(max_examples=300, deadline=None)
@given(data=st.data(), matrix=_matrices())
def test_vectorized_loop_matches_reference(data, matrix):
    n_fit = int((~np.isnan(matrix).any(axis=1)).sum())
    k = data.draw(st.one_of(st.just(1), st.just(n_fit), st.integers(1, n_fit)))
    max_iterations = data.draw(st.sampled_from([300, 300, 1, 2, 3]))
    seed = data.draw(st.integers(0, 2**16))
    assert_same_fit(matrix, k, max_iterations=max_iterations, n_init=2, seed=seed)


# -- seeded cases ----------------------------------------------------------


def _blobs(n: int, d: int, centers: int, spread: float, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    middles = rng.normal(0.0, 3.0, (centers, d))
    return middles[rng.integers(0, centers, n)] + rng.normal(0.0, spread, (n, d))


@pytest.mark.parametrize("d", [1, 2, 5])
@pytest.mark.parametrize("offset", [0.0, 1e6, 1e8])
def test_long_fits_match_reference(d, offset):
    """Hundreds of rows over many iterations.

    At an offset of 1e8 the expanded distances of neighbouring centroids
    round to within each other's error, so any change to the order of the
    distance arithmetic flips labels."""
    matrix = _blobs(600, d, centers=7, spread=1.5, seed=d) + offset
    for k in (2, 6, 10):
        fit = assert_same_fit(matrix, k, n_init=2, seed=k)
        assert fit.n_iterations > 2


def test_overlapping_standardized_features_match_reference():
    """The pipeline's shape: z-scored, overlapping clusters, K 2-10."""
    rng = np.random.default_rng(2322)
    matrix = np.column_stack(
        [rng.lognormal(4.0, 0.5, 1500), rng.normal(1.2, 0.4, 1500),
         rng.gamma(2.0, 30.0, 1500), rng.uniform(0.2, 0.9, 1500),
         rng.normal(0.0, 1.0, 1500)]
    )
    matrix = (matrix - matrix.mean(axis=0)) / matrix.std(axis=0)
    matrix[rng.integers(0, 1500, 20), 2] = np.nan
    for k in range(2, 11):
        assert_same_fit(matrix, k, seed=7)


def test_empty_clusters_reseed_like_reference():
    """More clusters than distinct points: every fit re-seeds empty clusters."""
    matrix = np.repeat(np.array([[0.0, 0.0], [1.0, 1.0], [-0.0, 5.0]]), 4, axis=0)
    for k in (4, 6, 12):
        assert_same_fit(matrix, k, seed=k)


def test_column_sums_differ_from_pairwise_at_one_dimension():
    """The d = 1 exception is real: a pairwise sum of one column differs from
    the row-order sum that ``np.bincount`` takes, so one dimension must keep
    the per-cluster mean."""
    rng = np.random.default_rng(0)
    column = rng.normal(0.0, 1.0, 1000)
    pairwise = column[:, None].mean(axis=0)[0]
    row_order = np.bincount(np.zeros(1000, dtype=np.intp), weights=column)[0] / 1000
    assert pairwise != row_order
    assert_same_fit(column[:, None], 3, seed=0)
