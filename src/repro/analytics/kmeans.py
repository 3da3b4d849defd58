"""K-means clustering with SSE-based automatic K selection.

"The partitional K-means cluster algorithm is exploited by INDICE to
identify groups of EPCs characterized by similar properties.  To measure
the similarity between EPCs, the Euclidean distance is computed. ...
INDICE analyses the trend of the SSE (sum of squared error) quality index
to evaluate the cluster cohesion and automatically identify possible good
K values. ... the K value is chosen as the point where the marginal
decrease in the SSE curve is maximized (aka elbow approach)."
(paper, Section 2.2.2.)

This module provides:

* :func:`standardize` — z-score feature scaling (EPC attributes live on
  wildly different scales: m², W/m²K, dimensionless ratios);
* :func:`kmeans` — Lloyd's algorithm with k-means++ seeding and restarts,
  with hoisted row norms and ``np.bincount`` centroids, bit-identical to
  the plain loop (``tests/test_kmeans_oracle.py`` keeps that loop as its
  oracle);
* :func:`sse_curve` / :func:`choose_k_elbow` — the SSE trend over a K range
  and the paper's elbow rule;
* :func:`kmeans_auto` — the INDICE entry point: sweep K, pick the elbow,
  return that clustering.

The sweep fits every K independently — each :func:`kmeans` call seeds its
own generator — so given a :class:`~repro.perf.parallel.ParallelMap` the
K values run as concurrent pool tasks (largest K first), and the curve,
the chosen K and its clustering stay bit-identical to the serial sweep.
A pool failure falls back to the serial sweep and counts in the
executor's ``fallbacks``; the engine logs it.

Rows containing NaN in any feature are excluded from fitting and receive
label ``-1``; the caller decides how to treat them (INDICE drops them
during preprocessing anyway).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover — types only, no import-time edge
    from ..perf.parallel import ParallelMap

__all__ = [
    "KMeansResult",
    "standardize",
    "kmeans",
    "sse_curve",
    "choose_k_elbow",
    "kmeans_auto",
    "UNASSIGNED",
]

#: Label given to rows that could not be clustered (missing features).
UNASSIGNED = -1


@dataclass
class KMeansResult:
    """A fitted K-means clustering.

    ``labels`` is aligned with the input rows (``UNASSIGNED`` for rows with
    missing features); ``centroids`` is ``(k, d)`` in the *fitting* space
    (standardized if the caller standardized); ``sse`` is the sum of squared
    distances of fitted rows to their centroid.
    """

    k: int
    labels: np.ndarray
    centroids: np.ndarray
    sse: float
    n_iterations: int
    converged: bool

    def cluster_sizes(self) -> dict[int, int]:
        """``{cluster_id: n_rows}`` over assigned rows."""
        ids, counts = np.unique(self.labels[self.labels != UNASSIGNED], return_counts=True)
        return {int(i): int(c) for i, c in zip(ids, counts)}

    def cluster_indices(self, cluster_id: int) -> np.ndarray:
        """Row indices belonging to *cluster_id*."""
        return np.flatnonzero(self.labels == cluster_id)


@dataclass
class Standardization:
    """Fitted z-score parameters (kept so new points can be projected)."""

    mean: np.ndarray
    std: np.ndarray

    def transform(self, matrix: np.ndarray) -> np.ndarray:
        """Project *matrix* into the standardized space."""
        return (matrix - self.mean) / self.std

    def inverse(self, matrix: np.ndarray) -> np.ndarray:
        """Map a standardized *matrix* back to the original units."""
        return matrix * self.std + self.mean


def standardize(matrix: np.ndarray) -> tuple[np.ndarray, Standardization]:
    """Z-score each column of an ``(n, d)`` matrix, ignoring NaN.

    Constant columns get std 1 so they standardize to zero rather than NaN.
    Returns the standardized matrix (NaN cells stay NaN) and the fitted
    parameters.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    mean = np.nanmean(matrix, axis=0)
    std = np.nanstd(matrix, axis=0)
    std = np.where(std == 0, 1.0, std)
    params = Standardization(mean=mean, std=std)
    return params.transform(matrix), params


def _kmeans_plus_plus(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ initial centroids (Arthur & Vassilvitskii 2007)."""
    n = len(points)
    centroids = np.empty((k, points.shape[1]), dtype=np.float64)
    first = int(rng.integers(0, n))
    centroids[0] = points[first]
    closest_sq = np.sum((points - centroids[0]) ** 2, axis=1)
    for i in range(1, k):
        total = closest_sq.sum()
        if total == 0:  # all points identical to chosen centroids
            centroids[i:] = points[int(rng.integers(0, n))]
            break
        probs = closest_sq / total
        chosen = int(rng.choice(n, p=probs))
        centroids[i] = points[chosen]
        dist_sq = np.sum((points - centroids[i]) ** 2, axis=1)
        np.minimum(closest_sq, dist_sq, out=closest_sq)
    return centroids


def _assign(
    points: np.ndarray, x2: np.ndarray, centroids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-centroid assignment; returns (labels, squared distances).

    *x2* is ``np.sum(points**2, axis=1)``, computed once per fit.
    """
    # (n, k) squared Euclidean distances without forming (n, k, d)
    sq_norms = np.sum(centroids**2, axis=1)
    cross = points @ centroids.T
    dist_sq = np.maximum(x2[:, None] - 2 * cross + sq_norms, 0.0)
    labels = np.argmin(dist_sq, axis=1)
    return labels, dist_sq[np.arange(len(points)), labels]


def _update_centroids(
    points: np.ndarray,
    columns: np.ndarray | None,
    labels: np.ndarray,
    dist_sq: np.ndarray,
    k: int,
) -> np.ndarray:
    """Each cluster's member mean; an empty cluster is re-seeded at the worst-fitted row.

    *columns* is ``points.T`` in C order, or None when ``d == 1``.  The
    per-dimension ``np.bincount`` sums are the same floats as
    ``points[labels == c].mean(axis=0)``'s: for ``d >= 2`` numpy reduces
    the slow axis by adding the rows in order from ``+0.0``, as bincount
    does.  A single column is summed pairwise instead, so ``d == 1``
    keeps the per-cluster mean.
    """
    counts = np.bincount(labels, minlength=k)
    if columns is None:
        centroids = np.empty((k, 1))
        for c in np.flatnonzero(counts):
            centroids[c] = points[labels == c].mean(axis=0)
    else:
        centroids = np.stack(
            [np.bincount(labels, weights=column, minlength=k) for column in columns],
            axis=1,
        )
        centroids /= np.maximum(counts, 1)[:, None]
    if not counts.all():
        centroids[counts == 0] = points[int(np.argmax(dist_sq))]
    return centroids


def kmeans(
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
    x2 = np.sum(points**2, axis=1)
    columns = np.ascontiguousarray(points.T) if points.shape[1] > 1 else None
    rng = np.random.default_rng(seed)

    best: tuple[float, np.ndarray, np.ndarray, int, bool] | None = None
    for __ in range(n_init):
        centroids = _kmeans_plus_plus(points, k, rng)
        labels = np.full(len(points), -1, dtype=np.intp)
        converged = False
        iteration = 0
        for iteration in range(1, max_iterations + 1):
            new_labels, dist_sq = _assign(points, x2, centroids)
            if np.array_equal(new_labels, labels):
                converged = True
                break
            labels = new_labels
            centroids = _update_centroids(points, columns, labels, dist_sq, k)
        if not converged:
            __, dist_sq = _assign(points, x2, centroids)
        sse = float(dist_sq.sum())
        if best is None or sse < best[0]:
            best = (sse, labels, centroids, iteration, converged)

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


def sse_curve(
    matrix: np.ndarray,
    k_range: tuple[int, int] = (2, 10),
    seed: int = 0,
    n_init: int = 5,
) -> dict[int, float]:
    """SSE for each K in the inclusive *k_range* (the elbow plot data)."""
    return {
        k: fit.sse
        for k, fit in _sweep(matrix, k_range, seed=seed, n_init=n_init).items()
    }


def _sweep(
    matrix: np.ndarray,
    k_range: tuple[int, int],
    seed: int,
    n_init: int,
    executor: "ParallelMap | None" = None,
) -> dict[int, KMeansResult]:
    """One fitted clustering per K in the inclusive *k_range*.

    With an *executor* every K is one task of
    :meth:`~repro.perf.parallel.ParallelMap.map_tasks`, largest K first
    (the longest fits start first, so two workers finish together); each
    worker gets the matrix once, as the map's state.  Each fit seeds its
    own generator from *seed*, so where it runs cannot change a bit of it.
    """
    lo, hi = k_range
    if lo < 1 or hi < lo:
        raise ValueError(f"invalid k_range {k_range}")
    if executor is None:
        return {
            k: kmeans(matrix, k, n_init=n_init, seed=seed)
            for k in range(lo, hi + 1)
        }
    ks = range(hi, lo - 1, -1)
    fits = executor.map_tasks(_fit_k, ks, args=(matrix, n_init, seed))
    return dict(sorted(zip(ks, fits)))


def _fit_k(state: tuple[np.ndarray, int, int], k: int) -> KMeansResult:
    """One K of the elbow sweep; *state* is ``(matrix, n_init, seed)``."""
    matrix, n_init, seed = state
    return kmeans(matrix, k, n_init=n_init, seed=seed)


def choose_k_elbow(curve: dict[int, float]) -> int:
    """The paper's rule: K where the marginal decrease in SSE is maximized.

    With SSE(k) decreasing, the marginal decrease at k is
    ``SSE(k-1) - SSE(k)``; the chosen K is where the *drop in marginal
    decrease* is largest — i.e. the K after which adding clusters stops
    paying.  Formally we maximize the second difference
    ``(SSE(k-1) - SSE(k)) - (SSE(k) - SSE(k+1))`` over interior K.
    """
    if not curve:
        raise ValueError("empty SSE curve")
    ks = sorted(curve)
    if len(ks) < 3:
        return ks[0]
    second_diff = {
        k: (curve[ks[i - 1]] - curve[k]) - (curve[k] - curve[ks[i + 1]])
        for i, k in enumerate(ks)
        if 0 < i < len(ks) - 1
    }
    return max(second_diff, key=second_diff.get)


@dataclass
class AutoKMeansResult:
    """Result of the automatic-K pipeline: the chosen clustering + the curve."""

    result: KMeansResult
    curve: dict[int, float] = field(default_factory=dict)
    chosen_k: int = 0


def kmeans_auto(
    matrix: np.ndarray,
    k_range: tuple[int, int] = (2, 10),
    seed: int = 0,
    n_init: int = 5,
    executor: "ParallelMap | None" = None,
) -> AutoKMeansResult:
    """Sweep K over *k_range*, choose the elbow, return that clustering.

    The sweep's own fit for the chosen K is the returned clustering: the
    fit is seeded, so fitting that K again would reproduce it exactly.
    *executor* (a :class:`~repro.perf.parallel.ParallelMap`) fits the K
    values concurrently; the result is bit-identical to the serial sweep.
    """
    fits = _sweep(matrix, k_range, seed=seed, n_init=n_init, executor=executor)
    curve = {k: fit.sse for k, fit in fits.items()}
    k = choose_k_elbow(curve)
    return AutoKMeansResult(result=fits[k], curve=curve, chosen_k=k)
