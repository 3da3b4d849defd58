"""A uniform spatial grid index over geolocated points.

The cluster-marker aggregation needs "all points within distance eps of
p" / "all points in this cell" lookups that would be quadratic with a
naive scan (DBSCAN's feature-space queries use a ``cKDTree`` instead).
This index buckets points into equal-angle lat/lon cells sized so that a
radius query only has to inspect the 3x3 neighbourhood of the probe cell.
"""

from __future__ import annotations

import math

import numpy as np

from .distance import equirectangular_km, km_per_degree

__all__ = ["GridIndex"]


class GridIndex:
    """Bucket geolocated points into a uniform lat/lon grid.

    Parameters
    ----------
    latitudes, longitudes:
        Aligned coordinate arrays; non-finite (NaN or infinite)
        coordinates are skipped (they never appear in query results).
    cell_km:
        Approximate cell edge length in kilometres.
    """

    def __init__(self, latitudes: np.ndarray, longitudes: np.ndarray, cell_km: float):
        if cell_km <= 0:
            raise ValueError("cell_km must be positive")
        self.latitudes = np.asarray(latitudes, dtype=np.float64)
        self.longitudes = np.asarray(longitudes, dtype=np.float64)
        if self.latitudes.shape != self.longitudes.shape:
            raise ValueError("latitude/longitude arrays must be aligned")
        self.cell_km = float(cell_km)

        valid = np.isfinite(self.latitudes) & np.isfinite(self.longitudes)
        self._valid = valid
        reference_lat = float(np.mean(self.latitudes[valid])) if valid.any() else 0.0
        per_lat, per_lon = km_per_degree(reference_lat)
        per_lon = max(per_lon, 1e-9)
        self._lat_step = cell_km / per_lat
        self._lon_step = cell_km / per_lon

        # cell of every valid point, then the points sorted by cell (a
        # stable sort keeps ascending point order inside each cell)
        points = np.flatnonzero(valid)
        rows = np.floor(self.latitudes[points] / self._lat_step).astype(np.int64)
        cols = np.floor(self.longitudes[points] / self._lon_step).astype(np.int64)
        order = np.lexsort((cols, rows))
        self._points, rows, cols = points[order], rows[order], cols[order]
        first = np.ones(len(points), dtype=bool)  # each cell's first point
        first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        self._sorted_ranks = np.cumsum(first) - 1
        bounds = np.flatnonzero(first).tolist() + [len(points)]
        self._cells = {
            (row, col): self._points[lo:hi].tolist()
            for row, col, lo, hi in zip(
                rows[first].tolist(), cols[first].tolist(), bounds, bounds[1:]
            )
        }

    def _cell_of(self, lat: float, lon: float) -> tuple[int, int]:
        return (math.floor(lat / self._lat_step), math.floor(lon / self._lon_step))

    @property
    def n_points(self) -> int:
        """Number of indexed (valid-coordinate) points."""
        return int(self._valid.sum())

    @property
    def n_cells(self) -> int:
        """Number of occupied grid cells."""
        return len(self._cells)

    def cells(self) -> dict[tuple[int, int], list[int]]:
        """Mapping cell -> point indices (a copy, safe to mutate).

        Cells come in ascending (row, col) order, points ascending.
        """
        return {k: list(v) for k, v in self._cells.items()}

    def cell_ranks(self) -> np.ndarray:
        """Per point, the rank of its cell in ascending (row, col) order.

        Points with a non-finite coordinate get -1.  Ranking by cell is how the
        marker clustering groups points without a dict of lists.
        """
        ranks = np.full(len(self.latitudes), -1, dtype=np.int64)
        ranks[self._points] = self._sorted_ranks
        return ranks

    def cell_center(self, cell: tuple[int, int]) -> tuple[float, float]:
        """(lat, lon) of the geometric centre of *cell*."""
        row, col = cell
        return ((row + 0.5) * self._lat_step, (col + 0.5) * self._lon_step)

    def neighbors_within(self, index: int, radius_km: float) -> list[int]:
        """Indices of points within *radius_km* of point *index* (inclusive
        of the point itself)."""
        lat, lon = float(self.latitudes[index]), float(self.longitudes[index])
        return self.query_radius(lat, lon, radius_km)

    def query_radius(self, lat: float, lon: float, radius_km: float) -> list[int]:
        """Indices of points within *radius_km* of (*lat*, *lon*)."""
        if not (math.isfinite(lat) and math.isfinite(lon)):
            return []
        reach = max(1, math.ceil(radius_km / self.cell_km))
        row0, col0 = self._cell_of(lat, lon)
        hits: list[int] = []
        for dr in range(-reach, reach + 1):
            for dc in range(-reach, reach + 1):
                for i in self._cells.get((row0 + dr, col0 + dc), ()):
                    d = equirectangular_km(
                        lat, lon, float(self.latitudes[i]), float(self.longitudes[i])
                    )
                    if d <= radius_km:
                        hits.append(i)
        return hits
