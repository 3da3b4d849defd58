"""Differential oracle for the hierarchical marker clustering.

:func:`cluster_markers` groups the certificates level by level, finest
zoom first: each level buckets the previous level's marker centres into
a lat/lon grid and joins the groups that share a cell.  It must equal a
reference that does exactly that one point and one group at a time, with
``math.floor`` per centre and a plain ``.mean()`` per group.  Marker
coordinates, counts, means and members are compared exactly.

A nesting check holds the zoom pyramid together: every marker at a
coarser zoom is a union of whole markers of the next finer zoom.  The
per-analytic-cluster markers of :func:`cluster_marker_map` are checked
against the same reference run once per cluster label.

Coordinates sit on a lattice whose step divides the grid cells, so many
centres fall on (or a rounding error away from) a cell edge; negative
coordinates tell ``floor`` from truncation.  NaN and ±inf coordinates
are both unlocated: the reference skips any row that is not finite.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dashboard.maps import cluster_marker_map
from repro.dashboard.markercluster import CELL_KM_BY_GRANULARITY, cluster_markers
from repro.geo.distance import km_per_degree
from repro.geo.regions import Granularity

_ZOOMS = (Granularity.NEIGHBOURHOOD, Granularity.DISTRICT, Granularity.CITY)


def naive_markers(lats, lons, values, granularity, cell_km=None):
    """``(lat, lon, count, mean, members)`` per marker, one row at a time."""
    valid = [i for i in range(len(lats)) if np.isfinite(lats[i]) and np.isfinite(lons[i])]
    size = CELL_KM_BY_GRANULARITY[granularity] if cell_km is None else cell_km
    if size <= 0:
        return [(lats[i], lons[i], 1, values[i], [i]) for i in valid]
    levels = [cell_km] if cell_km is not None else [
        CELL_KM_BY_GRANULARITY[g] for g in _ZOOMS if g >= granularity
    ]
    groups = [[i] for i in valid]
    for level_km in levels:
        centres = [(lats[g].mean(), lons[g].mean()) for g in groups]
        reference_lat = np.mean([lat for lat, __ in centres]) if centres else 0.0
        per_lat, per_lon = km_per_degree(float(reference_lat))
        lat_step, lon_step = level_km / per_lat, level_km / max(per_lon, 1e-9)
        cells: dict = {}
        for group, (lat, lon) in zip(groups, centres):
            cell = (math.floor(lat / lat_step), math.floor(lon / lon_step))
            cells.setdefault(cell, []).extend(group)
        groups = [sorted(cells[cell]) for cell in sorted(cells)]
    out = []
    for g in groups:
        present = values[g][~np.isnan(values[g])]
        mean = present.mean() if len(present) else np.nan
        out.append((lats[g].mean(), lons[g].mean(), len(g), mean, g))
    return out


def _same(a: float, b: float) -> bool:
    return (np.isnan(a) and np.isnan(b)) or a == b


def _as_tuples(markers):
    return [
        (m.latitude, m.longitude, m.count, m.mean_value, list(m.member_indices))
        for m in markers
    ]


def _assert_equal(got, want):
    assert len(got) == len(want)
    for (glat, glon, gn, gmean, gmem), (wlat, wlon, wn, wmean, wmem) in zip(got, want):
        assert (glat, glon, gn, gmem) == (float(wlat), float(wlon), wn, list(wmem))
        assert _same(gmean, float(wmean))


#: Degrees per lattice step: a whole fraction of every default cell.
_STEP = 0.45 / km_per_degree(0.0)[0] / 3
_NAN = float("nan")
_INF = float("inf")


@st.composite
def certificates(draw, span: int = 30):
    """Aligned (lat, lon, value) columns with ties, NaN, ±inf and
    duplicates, mostly on lattice points at most *span* steps from a
    base point."""
    n = draw(st.integers(0, 40))
    base = draw(st.sampled_from([0.0, 45.07]))
    coord = st.one_of(
        st.integers(-span, span).map(lambda k: base + k * _STEP),
        st.just(_NAN),
        st.sampled_from([_INF, -_INF]),
        st.floats(base - 0.05, base + 0.05, allow_nan=False),
    )
    value = st.one_of(st.integers(0, 8).map(float), st.just(_NAN))
    row = st.tuples(coord, coord, value)
    if draw(st.booleans()):  # all-identical rows
        rows = [draw(row)] * n
    else:
        distinct = draw(st.lists(row, min_size=1, max_size=max(n, 1)))
        rows = [distinct[draw(st.integers(0, len(distinct) - 1))] for __ in range(n)]
    cols = np.array(rows, dtype=np.float64).reshape(n, 3)
    return cols[:, 0].copy(), cols[:, 1].copy(), cols[:, 2].copy()


_CELL_KM = st.one_of(
    st.none(),
    st.integers(1, 4).map(lambda k: k * _STEP * km_per_degree(0.0)[0]),
)


@settings(max_examples=300, deadline=None)
@given(certificates(), st.sampled_from(list(Granularity)), _CELL_KM)
@example((np.empty(0), np.empty(0), np.empty(0)), Granularity.CITY, None)
@example((np.array([45.0]), np.array([7.6]), np.array([_NAN])), Granularity.CITY, None)
# one infinite latitude among located rows: skipped, not a math domain error
@example(
    (np.array([45.0, _INF, 45.001]), np.array([7.6, 7.6, 7.601]), np.ones(3)),
    Granularity.CITY, None,
)
@example((np.array([-_INF]), np.array([_INF]), np.ones(1)), Granularity.UNIT, None)
@example(
    (np.array([-_STEP, 0.0, _STEP, -_STEP]), np.array([-_STEP, 0.0, 0.0, _STEP]),
     np.array([1.0, 2.0, _NAN, 4.0])),
    Granularity.NEIGHBOURHOOD, None,
)
def test_markers_equal_the_per_point_reference(cols, granularity, cell_km):
    lats, lons, values = cols
    got = cluster_markers(lats, lons, values, granularity, cell_km)
    _assert_equal(_as_tuples(got), naive_markers(lats, lons, values, granularity, cell_km))


@settings(max_examples=150, deadline=None)
@given(certificates(span=12))
# one district cell whose two rows straddle a city cell edge
@example((np.array([17 * _STEP, 22 * _STEP]), np.zeros(2), np.ones(2)))
def test_coarser_markers_are_unions_of_finer_markers(cols):
    lats, lons, values = cols
    zooms = (Granularity.UNIT,) + _ZOOMS
    members = [
        [frozenset(m.member_indices.tolist()) for m in cluster_markers(lats, lons, values, g)]
        for g in zooms
    ]
    for finer, coarser in zip(members, members[1:]):
        for marker in coarser:
            parts = [part for part in finer if part & marker]
            assert all(part <= marker for part in parts)
            assert frozenset().union(*parts) == marker


@settings(max_examples=150, deadline=None)
@given(
    certificates().filter(lambda cols: len(cols[0]) > 0),
    st.sampled_from(list(_ZOOMS) + [Granularity.UNIT]),
    st.data(),
)
def test_cluster_label_markers_equal_the_reference_per_label(cols, granularity, data):
    lats, lons, values = cols
    labels = np.array(
        data.draw(st.lists(st.integers(-1, 2), min_size=len(lats), max_size=len(lats)))
    )
    want = []
    for label in sorted(set(labels.tolist()) - {-1}):
        rows = np.flatnonzero(labels == label)
        for lat, lon, count, mean, __ in naive_markers(
            lats[rows], lons[rows], values[rows], granularity
        ):
            want.append((lat, lon, count, mean))
    want.sort(key=lambda marker: -marker[2])  # drawn largest first, stably
    if not want:
        return  # nothing to frame without a hierarchy
    render = cluster_marker_map(
        lats, lons, values, "value", granularity, cluster_labels=labels
    )
    features = render.geojson["features"]
    assert len(features) == len(want)
    for feature, (lat, lon, count, mean) in zip(features, want):
        assert feature["geometry"]["coordinates"] == [float(lon), float(lat)]
        assert feature["properties"]["count"] == count
        got_mean = feature["properties"]["mean_value"]
        assert _same(np.nan if got_mean is None else got_mean, float(mean))
