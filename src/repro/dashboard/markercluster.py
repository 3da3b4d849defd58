"""Marker clustering for the cluster-marker energy maps.

The cluster-marker map is the paper's novel map type: "Cluster-marker
maps, similarly to the choropleth maps, aggregate multiple certificates
coloring the dynamic markers according to the average of the values of the
aggregated points ... The cardinality of the corresponding cluster affects
the size of the marker and is reported inside the marker" (Section 2.3).

Aggregation follows the greedy-grid strategy of Leaflet.markercluster,
the engine behind the folium maps the authors used: points are bucketed
into a uniform grid whose cell size depends on the zoom level, then each
occupied cell's points join the marker seeded at their mean position.
Re-running with a finer cell size is exactly the paper's "drill down in
the energy map".

Like Leaflet.markercluster's zoom pyramid, zoom levels are built
*hierarchically*: each coarser level groups the markers of the next finer
level rather than re-gridding the raw points.  Independent grids don't
nest (their cell boundaries fall in different places), so a coarser grid
could split a pair of points a finer grid had joined; grouping finer
markers makes drill-down monotone by construction — zooming out can only
merge markers, never split them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..geo.grid import GridIndex
from ..geo.regions import Granularity

__all__ = ["ClusterMarker", "cluster_markers", "CELL_KM_BY_GRANULARITY"]

#: Grid cell edge (km) per zoom level — coarser zoom, bigger aggregation.
CELL_KM_BY_GRANULARITY = {
    Granularity.CITY: 3.0,
    Granularity.DISTRICT: 1.2,
    Granularity.NEIGHBOURHOOD: 0.45,
    Granularity.UNIT: 0.0,  # no aggregation: one marker per certificate
}


@dataclass
class ClusterMarker:
    """One aggregated marker on the map."""

    latitude: float
    longitude: float
    count: int
    mean_value: float
    member_indices: np.ndarray = field(repr=False, default_factory=lambda: np.empty(0, dtype=np.intp))

    @property
    def label(self) -> str:
        """The cardinality printed inside the marker (paper, Section 2.3)."""
        return str(self.count)


def cluster_markers(
    latitudes: np.ndarray,
    longitudes: np.ndarray,
    values: np.ndarray,
    granularity: Granularity = Granularity.CITY,
    cell_km: float | None = None,
) -> list[ClusterMarker]:
    """Aggregate certificates into cluster markers for one zoom level.

    ``values`` is the response variable whose per-marker mean colors the
    marker.  Rows with missing (NaN) or infinite coordinates are skipped
    as unlocated; rows with missing values still count toward
    cardinality but not toward the mean.
    ``cell_km`` overrides the granularity's default cell size.

    At UNIT granularity (or ``cell_km == 0``) every certificate becomes
    its own marker — the fully drilled-down view.
    """
    latitudes = np.asarray(latitudes, dtype=np.float64)
    longitudes = np.asarray(longitudes, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if not (len(latitudes) == len(longitudes) == len(values)):
        raise ValueError("latitude/longitude/value arrays must be aligned")

    size = CELL_KM_BY_GRANULARITY[granularity] if cell_km is None else cell_km
    valid = np.isfinite(latitudes) & np.isfinite(longitudes)

    members = np.flatnonzero(valid)
    if not len(members):
        return []
    if size <= 0:
        return [
            ClusterMarker(lat, lon, 1, value, member)
            for lat, lon, value, member in zip(
                latitudes[members].tolist(), longitudes[members].tolist(),
                values[members].tolist(), members[:, None],
            )
        ]

    if cell_km is not None:
        levels = [cell_km]
    else:
        # finest non-unit level first, up to the requested zoom — each
        # level groups the previous one's markers (see module docstring)
        levels = [
            CELL_KM_BY_GRANULARITY[g]
            for g in (Granularity.NEIGHBOURHOOD, Granularity.DISTRICT,
                      Granularity.CITY)
            if g >= granularity
        ]

    # the groups are runs of *members*: group k is members[bounds[k]:
    # bounds[k + 1]], ascending.  Every point starts alone, so the first
    # level grids the points themselves (a one-row mean is the row).
    bounds = np.arange(len(members) + 1)
    group_lats, group_lons = latitudes[members], longitudes[members]
    for depth, level_km in enumerate(levels):
        if depth:
            group_lats = _run_means(latitudes[members], bounds)
            group_lons = _run_means(longitudes[members], bounds)
        cell = GridIndex(group_lats, group_lons, cell_km=level_km).cell_ranks()
        point_cell = np.repeat(cell, np.diff(bounds))
        order = np.lexsort((members, point_cell))
        members, point_cell = members[order], point_cell[order]
        starts = np.flatnonzero(np.diff(point_cell)) + 1
        bounds = np.concatenate(([0], starts, [len(members)]))

    lats, lons = _run_means(latitudes[members], bounds), _run_means(longitudes[members], bounds)
    member_values = values[members]
    markers: list[ClusterMarker] = []
    for k, (lo, hi) in enumerate(zip(bounds[:-1].tolist(), bounds[1:].tolist())):
        run = member_values[lo:hi]
        present = run[~np.isnan(run)]
        markers.append(
            ClusterMarker(
                latitude=float(lats[k]),
                longitude=float(lons[k]),
                count=hi - lo,
                mean_value=float(present.mean()) if len(present) else float("nan"),
                member_indices=members[lo:hi],
            )
        )
    return markers


def _run_means(values: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """``values[lo:hi].mean()`` of every run between consecutive *bounds*.

    Each run is summed by its own ``np.add.reduce``, the sum ``.mean()``
    takes, then divided by its length, as ``.mean()`` divides.  A
    ``bincount`` or ``reduceat`` would sum in another order, and the last
    bit of a marker's position would move.
    """
    sums = [np.add.reduce(values[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:])]
    return np.array(sums, dtype=np.float64) / np.diff(bounds)


def marker_radius(count, max_count: int, min_px: float = 9.0, max_px: float = 26.0):
    """Marker pixel radius from its cardinality (sqrt area scaling).

    Square-root scaling keeps marker *area* proportional to cardinality,
    the visual convention Leaflet.markercluster follows.  *count* may be
    an array of counts, which gives an array of radii.
    """
    counts = np.asarray(count)
    if (counts < 1).any():
        raise ValueError("count must be >= 1")
    if (counts > max_count).any():
        raise ValueError("max_count must be >= count")
    radius = min_px + (max_px - min_px) * np.sqrt(counts / max_count)
    return float(radius) if radius.ndim == 0 else radius
