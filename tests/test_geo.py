"""Tests for the geospatial substrate: distances, grid index, regions, GeoJSON."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo.distance import (
    equirectangular_km,
    haversine_km,
    haversine_km_vec,
    km_per_degree,
)
from repro.geo.geojson import (
    dumps,
    feature_collection,
    point_feature,
    polygon_feature,
    region_feature,
)
from repro.geo.grid import GridIndex
from repro.geo.regions import Granularity, Region, RegionHierarchy, point_in_polygon

TURIN = (45.0703, 7.6869)
MILAN = (45.4642, 9.1900)

coords = st.tuples(
    st.floats(44.0, 46.0, allow_nan=False), st.floats(7.0, 9.5, allow_nan=False)
)


class TestDistance:
    def test_zero_distance(self):
        assert haversine_km(*TURIN, *TURIN) == 0.0

    def test_turin_milan(self):
        # published road-free geodesic distance is ~125 km
        d = haversine_km(*TURIN, *MILAN)
        assert 120 < d < 130

    def test_symmetry(self):
        assert haversine_km(*TURIN, *MILAN) == pytest.approx(
            haversine_km(*MILAN, *TURIN)
        )

    @given(coords, coords)
    @settings(max_examples=100, deadline=None)
    def test_equirectangular_close_to_haversine_locally(self, p, q):
        h = haversine_km(*p, *q)
        e = equirectangular_km(*p, *q)
        assert abs(h - e) <= 0.01 * max(h, 1.0)  # <1% error at city scale

    def test_vectorized_matches_scalar(self):
        lats = np.array([TURIN[0], MILAN[0]])
        lons = np.array([TURIN[1], MILAN[1]])
        d = haversine_km_vec(lats, lons, np.full(2, TURIN[0]), np.full(2, TURIN[1]))
        assert d[0] == pytest.approx(0.0)
        assert d[1] == pytest.approx(haversine_km(*MILAN, *TURIN))

    def test_km_per_degree_at_equator(self):
        per_lat, per_lon = km_per_degree(0.0)
        assert per_lat == pytest.approx(per_lon)
        assert 110 < per_lat < 112

    def test_km_per_degree_shrinks_north(self):
        _, per_lon_turin = km_per_degree(45.0)
        _, per_lon_eq = km_per_degree(0.0)
        assert per_lon_turin < per_lon_eq


class TestGridIndex:
    def setup_method(self):
        rng = np.random.default_rng(0)
        self.lats = 45.05 + rng.uniform(0, 0.05, 300)
        self.lons = 7.65 + rng.uniform(0, 0.07, 300)
        self.index = GridIndex(self.lats, self.lons, cell_km=0.5)

    def test_all_points_indexed(self):
        assert self.index.n_points == 300

    def test_radius_query_matches_bruteforce(self):
        for probe in range(0, 300, 37):
            lat, lon = float(self.lats[probe]), float(self.lons[probe])
            got = sorted(self.index.query_radius(lat, lon, 0.8))
            want = sorted(
                i
                for i in range(300)
                if equirectangular_km(lat, lon, self.lats[i], self.lons[i]) <= 0.8
            )
            assert got == want

    def test_neighbors_include_self(self):
        assert 0 in self.index.neighbors_within(0, 0.1)

    def test_nan_points_skipped(self):
        lats = np.array([45.0, np.nan])
        lons = np.array([7.6, 7.6])
        idx = GridIndex(lats, lons, cell_km=1.0)
        assert idx.n_points == 1
        assert idx.query_radius(45.0, 7.6, 1.0) == [0]

    def test_infinite_points_skipped(self):
        # an infinite latitude must not reach the reference-latitude mean
        lats = np.array([45.0, np.inf, 45.001])
        lons = np.array([7.6, 7.6, -np.inf])
        idx = GridIndex(lats, lons, cell_km=1.0)
        assert idx.n_points == 1
        assert idx.cell_ranks().tolist() == [0, -1, -1]
        assert idx.query_radius(45.0, 7.6, 1.0) == [0]

    def test_nan_probe_returns_empty(self):
        assert self.index.query_radius(float("nan"), 7.6, 1.0) == []
        assert self.index.query_radius(float("inf"), 7.6, 1.0) == []

    def test_invalid_cell_size(self):
        with pytest.raises(ValueError):
            GridIndex(np.array([45.0]), np.array([7.6]), cell_km=0.0)

    def test_misaligned_arrays(self):
        with pytest.raises(ValueError):
            GridIndex(np.array([45.0]), np.array([7.6, 7.7]), cell_km=1.0)

    def test_cells_cover_points(self):
        total = sum(len(v) for v in self.index.cells().values())
        assert total == 300


SQUARE = [(0.0, 0.0), (0.0, 10.0), (10.0, 10.0), (10.0, 0.0)]


class TestRegions:
    def test_point_in_polygon_inside(self):
        assert point_in_polygon(5.0, 5.0, SQUARE)

    def test_point_in_polygon_outside(self):
        assert not point_in_polygon(15.0, 5.0, SQUARE)

    def test_point_in_concave_polygon(self):
        # L-shape: the notch (7, 7) is outside
        ring = [(0, 0), (0, 10), (5, 10), (5, 5), (10, 5), (10, 0)]
        assert point_in_polygon(2.0, 2.0, ring)
        assert not point_in_polygon(7.0, 7.0, ring)

    def test_region_contains(self):
        r = Region("sq", Granularity.DISTRICT, SQUARE)
        assert r.contains(1.0, 1.0)
        assert not r.contains(-1.0, 1.0)

    def test_centroid(self):
        r = Region("sq", Granularity.DISTRICT, SQUARE)
        assert r.centroid() == (5.0, 5.0)

    def test_bounding_box(self):
        r = Region("sq", Granularity.DISTRICT, SQUARE)
        assert r.bounding_box() == (0.0, 0.0, 10.0, 10.0)

    def test_granularity_navigation(self):
        assert Granularity.CITY.finer() is Granularity.DISTRICT
        assert Granularity.UNIT.finer() is Granularity.UNIT
        assert Granularity.DISTRICT.coarser() is Granularity.CITY
        assert Granularity.CITY.coarser() is Granularity.CITY

    def make_hierarchy(self):
        city = Region("city", Granularity.CITY, SQUARE)
        west = Region(
            "west", Granularity.DISTRICT,
            [(0, 0), (0, 5), (10, 5), (10, 0)], parent="city",
        )
        east = Region(
            "east", Granularity.DISTRICT,
            [(0, 5), (0, 10), (10, 10), (10, 5)], parent="city",
        )
        nb = Region(
            "west-a", Granularity.NEIGHBOURHOOD,
            [(0, 0), (0, 5), (5, 5), (5, 0)], parent="west",
        )
        return RegionHierarchy(city=city, districts=[west, east], neighbourhoods=[nb])

    def test_region_of(self):
        h = self.make_hierarchy()
        assert h.region_of(2.0, 2.0, Granularity.DISTRICT).name == "west"
        assert h.region_of(2.0, 7.0, Granularity.DISTRICT).name == "east"
        assert h.region_of(20.0, 20.0, Granularity.DISTRICT) is None

    def test_assign_handles_nan(self):
        h = self.make_hierarchy()
        out = h.assign(np.array([2.0, np.nan]), np.array([2.0, 2.0]), Granularity.DISTRICT)
        assert out == ["west", None]

    def test_regions_at_unit_level_empty(self):
        h = self.make_hierarchy()
        assert h.regions_at(Granularity.UNIT) == []

    def test_children_of(self):
        h = self.make_hierarchy()
        assert [r.name for r in h.children_of("city")] == ["west", "east"]
        assert [r.name for r in h.children_of("west")] == ["west-a"]


class TestGeoJson:
    def test_point_feature_lonlat_order(self):
        f = point_feature(45.0, 7.6, {"v": 1})
        assert f["geometry"]["coordinates"] == [7.6, 45.0]

    def test_polygon_feature_closes_ring(self):
        f = polygon_feature(SQUARE)
        ring = f["geometry"]["coordinates"][0]
        assert ring[0] == ring[-1]
        assert len(ring) == len(SQUARE) + 1

    def test_region_feature_properties(self):
        r = Region("west", Granularity.DISTRICT, SQUARE)
        f = region_feature(r, {"mean": 2.5})
        assert f["properties"]["name"] == "west"
        assert f["properties"]["level"] == "district"
        assert f["properties"]["mean"] == 2.5

    def test_feature_collection_roundtrip(self):
        fc = feature_collection([point_feature(45.0, 7.6)])
        parsed = json.loads(dumps(fc))
        assert parsed["type"] == "FeatureCollection"
        assert len(parsed["features"]) == 1

    def test_dumps_rejects_nan(self):
        fc = feature_collection([point_feature(float("nan"), 7.6)])
        with pytest.raises(ValueError):
            dumps(fc)

    def test_loads_roundtrip(self):
        from repro.geo.geojson import loads

        fc = feature_collection([point_feature(45.0, 7.6, {"eph": 80.0})])
        parsed = loads(dumps(fc))
        assert parsed == fc

    def test_loads_validates_shape(self):
        from repro.geo.geojson import loads

        with pytest.raises(ValueError, match="type"):
            loads("{}")
        with pytest.raises(ValueError, match="features"):
            loads('{"type": "FeatureCollection"}')

    def test_points_from_collection(self):
        from repro.geo.geojson import points_from_collection

        fc = feature_collection(
            [
                point_feature(45.0, 7.6, {"eph": 80.0}),
                polygon_feature(SQUARE, {"name": "x"}),
                point_feature(45.1, 7.7),
            ]
        )
        points = points_from_collection(fc)
        assert len(points) == 2
        assert points[0] == (45.0, 7.6, {"eph": 80.0})

    def test_map_export_roundtrips_markers(self):
        """Certificate markers exported by a map come back intact."""
        from repro.dashboard.maps import scatter_map
        from repro.geo.geojson import loads, points_from_collection

        lats = np.array([45.05, 45.06])
        lons = np.array([7.65, 7.66])
        values = np.array([80.0, 120.0])
        render = scatter_map(lats, lons, values, "eph")
        parsed = loads(dumps(render.geojson))
        points = points_from_collection(parsed)
        assert len(points) == 2
        assert points[1][2]["eph"] == 120.0
