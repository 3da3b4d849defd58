"""Automatic DBSCAN parameter estimation via k-distance curves.

The paper: "To properly specify these input parameters INDICE plots the
k-distance graph and automatically estimates a good value for each
parameter.  As proposed in [10], INDICE runs several times the k-distance
plot for different values of minPoints, and selects minPoints when the
curve stabilises, and Epsilon as the elbow point of the stable curve."
(Section 2.1.2.)

Concretely:

* :func:`k_distance_curve` — sorted distances to each point's k-th nearest
  neighbour (the curve the dashboard plots);
* :func:`elbow_point` — the point of a monotone curve farthest from the
  chord joining its endpoints (the standard geometric elbow rule);
* :func:`estimate_dbscan_params` — sweeps minPoints, declares the curve
  *stable* at the first k whose curve is within a relative tolerance of
  the previous one, and returns that minPoints with the elbow Epsilon.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

__all__ = ["KDistanceEstimate", "k_distance_curve", "elbow_point", "estimate_dbscan_params"]


def k_distance_curve(points: np.ndarray, k: int) -> np.ndarray:
    """Ascending distances from each point to its k-th nearest neighbour.

    Rows with NaN coordinates are skipped.  ``k`` counts neighbours other
    than the point itself.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError(f"expected an (n, d) matrix, got shape {points.shape}")
    if k < 1:
        raise ValueError("k must be >= 1")
    coords = points[~np.isnan(points).any(axis=1)]
    if len(coords) <= k:
        return np.empty(0, dtype=np.float64)
    tree = cKDTree(coords)
    # query k+1 because the nearest neighbour of each point is itself
    distances, _ = tree.query(coords, k=k + 1)
    return np.sort(distances[:, k])


def elbow_point(curve: np.ndarray) -> tuple[int, float]:
    """Index and value of the elbow of an ascending curve.

    Uses the maximum-distance-to-chord rule: normalize both axes to [0, 1],
    draw the chord from the first to the last point, and pick the curve
    point with the largest perpendicular distance to it.
    """
    curve = np.asarray(curve, dtype=np.float64)
    if len(curve) < 3:
        index = max(len(curve) - 1, 0)
        return index, float(curve[index]) if len(curve) else 0.0
    x = np.linspace(0.0, 1.0, len(curve))
    span = curve[-1] - curve[0]
    if span == 0:
        return len(curve) - 1, float(curve[-1])
    y = (curve - curve[0]) / span
    # distance from (x, y) to the chord y = x is |y - x| / sqrt(2)
    index = int(np.argmax(np.abs(y - x)))
    return index, float(curve[index])


@dataclass
class KDistanceEstimate:
    """Outcome of the automatic (minPoints, Epsilon) estimation."""

    min_points: int
    eps: float
    curves: dict[int, np.ndarray] = field(default_factory=dict)
    stabilized_at: int | None = None

    def curve_for(self, k: int) -> np.ndarray:
        """The k-distance curve computed for *k*."""
        return self.curves[k]


def _curve_gap(a: np.ndarray, b: np.ndarray) -> float:
    """Relative L1 gap between two curves resampled to a common length."""
    m = min(len(a), len(b))
    if m == 0:
        return np.inf
    grid = np.linspace(0, 1, m)
    ra = np.interp(grid, np.linspace(0, 1, len(a)), a)
    rb = np.interp(grid, np.linspace(0, 1, len(b)), b)
    scale = max(np.abs(ra).mean(), 1e-12)
    return float(np.abs(ra - rb).mean() / scale)


def estimate_dbscan_params(
    points: np.ndarray,
    min_points_range: tuple[int, int] = (3, 12),
    stability_tolerance: float = 0.10,
) -> KDistanceEstimate:
    """Estimate (minPoints, Epsilon) by k-distance curve stabilization.

    Sweeps ``k`` over *min_points_range* (inclusive); the curve is declared
    stable at the first ``k`` whose curve differs from the previous one by
    less than *stability_tolerance* (relative mean gap).  Epsilon is the
    elbow of the stable curve.  Falls back to the last swept ``k`` when no
    curve stabilizes.

    DBSCAN's minPoints counts the point itself, so the returned
    ``min_points`` is the stable ``k`` **plus one**.

    One tree and one ``query(k=hi + 1)`` yield every swept curve: column
    ``k`` of the neighbour distances is exactly what
    :func:`k_distance_curve` computes for ``k``.  With ``hi`` or fewer
    complete rows some curves are empty, so each k falls back to
    :func:`k_distance_curve`.
    """
    lo, hi = min_points_range
    if lo < 1 or hi < lo:
        raise ValueError(f"invalid min_points_range {min_points_range}")
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError(f"expected an (n, d) matrix, got shape {points.shape}")
    coords = points[~np.isnan(points).any(axis=1)]
    distances = None
    if len(coords) > hi:
        distances, _ = cKDTree(coords).query(coords, k=hi + 1)
    curves: dict[int, np.ndarray] = {}
    stable_k: int | None = None
    previous: np.ndarray | None = None
    for k in range(lo, hi + 1):
        if distances is not None:
            curve = np.sort(distances[:, k])
        else:
            curve = k_distance_curve(coords, k)
        curves[k] = curve
        if previous is not None and stable_k is None:
            if _curve_gap(previous, curve) < stability_tolerance:
                stable_k = k
        previous = curve
    chosen_k = stable_k if stable_k is not None else hi
    _, eps = elbow_point(curves[chosen_k])
    if eps <= 0:
        positive = curves[chosen_k][curves[chosen_k] > 0]
        eps = float(positive[0]) if len(positive) else 1e-6
    return KDistanceEstimate(
        min_points=chosen_k + 1,
        eps=eps,
        curves=curves,
        stabilized_at=stable_k,
    )
