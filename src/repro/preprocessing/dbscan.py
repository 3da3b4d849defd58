"""DBSCAN noise for multivariate outlier detection.

"For the multivariate outlier detection, INDICE integrates the DBSCAN
algorithm ... clusters with higher-density regions are separated by
lower-density regions" (paper, Section 2.1.2).  Points that end up in no
cluster — DBSCAN noise — are the multivariate outliers INDICE removes,
and the noise set is all the pipeline reads.

Noise is "neither core nor within eps of a core point" (Ester et al.
1996), which does not depend on the order clusters are expanded in, so it
needs no neighbour graph and no cluster labels: one counting pass over a
``cKDTree`` (scipy; scikit-learn is a substituted dependency, see
DESIGN.md) finds the core rows, and a second counts, for the non-core
rows only, the core rows within eps.  Both passes use the tree's
inclusive ``<= eps`` distance test and hold O(rows) memory.  Features
should be standardized by the caller;
:func:`repro.analytics.kmeans.standardize` is the usual choice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

__all__ = ["DbscanResult", "dbscan"]


@dataclass
class DbscanResult:
    """The noise set of a DBSCAN run.

    ``noise_mask[i]`` is True when row i belongs to no cluster.  Rows with
    any NaN coordinate are noise and counted in ``n_missing`` (they cannot
    participate in density estimates).
    """

    noise_mask: np.ndarray
    eps: float
    min_points: int
    n_missing: int

    @property
    def n_noise(self) -> int:
        """Number of noise points (the multivariate outliers)."""
        return int(self.noise_mask.sum())


def dbscan(points: np.ndarray, eps: float, min_points: int) -> DbscanResult:
    """The DBSCAN noise rows of an ``(n, d)`` matrix.

    ``min_points`` counts the point itself, as in the original paper [12].
    A point is *core* when its eps-ball holds at least ``min_points``
    points; a non-core point within eps of a core point is a border point;
    the rest is noise.

    >>> points = np.array([[0.0], [1.0], [2.0], [5.0]])  # 1.0 is core, self counted
    >>> dbscan(points, eps=1.0, min_points=3).noise_mask  # 0.0, 2.0: exactly eps
    array([False, False, False,  True])
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError(f"expected an (n, d) matrix, got shape {points.shape}")
    if eps <= 0:
        raise ValueError("eps must be positive")
    if min_points < 1:
        raise ValueError("min_points must be >= 1")

    complete = ~np.isnan(points).any(axis=1)
    noise_mask = ~complete
    n_missing = int(noise_mask.sum())
    coords = points[complete]
    counts = cKDTree(coords).query_ball_point(coords, r=eps, return_length=True)
    core = counts >= min_points
    noise = ~core
    near_core = cKDTree(coords[core]).query_ball_point(
        coords[noise], r=eps, return_length=True
    )
    noise[noise] = near_core == 0
    noise_mask[complete] = noise
    return DbscanResult(noise_mask, eps, min_points, n_missing)
