"""Tests for colors, SVG, marker clustering, maps, charts and dashboards."""

import json

import numpy as np
import pytest

from repro.analytics.correlation import correlation_matrix
from repro.analytics.rules import AssociationRule
from repro.analytics.apriori import Item
from repro.analytics.stats import grouped_histograms, histogram, summarize_table
from repro.dashboard.colors import (
    GrayScale,
    SequentialScale,
    categorical_color,
    hex_to_rgb,
    interpolate_hex,
    rgb_to_hex,
)
from repro.dashboard.charts import (
    bar_chart,
    boxplot_chart,
    correlation_matrix_chart,
    grouped_histogram_chart,
    histogram_chart,
    rules_table_html,
    summary_table_html,
)
from repro.dashboard.dashboard import Dashboard, DashboardBuilder, Panel
from repro.dashboard.markercluster import (
    ClusterMarker,
    cluster_markers,
    marker_radius,
)
from repro.dashboard.maps import (
    MapCanvas,
    choropleth_map,
    cluster_marker_map,
    scatter_map,
)
from repro.dashboard.svg import SvgDocument
from repro.dataset.streetmap import turin_like_hierarchy
from repro.dataset.table import Column, Table
from repro.geo.regions import Granularity
from repro.preprocessing.outliers import boxplot_outliers


class TestColors:
    def test_hex_roundtrip(self):
        assert rgb_to_hex(hex_to_rgb("#a1b2c3")) == "#a1b2c3"

    def test_hex_validation(self):
        with pytest.raises(ValueError):
            hex_to_rgb("#abc")

    def test_interpolation_endpoints(self):
        assert interpolate_hex("#000000", "#ffffff", 0.0) == "#000000"
        assert interpolate_hex("#000000", "#ffffff", 1.0) == "#ffffff"
        assert interpolate_hex("#000000", "#ffffff", 0.5) == "#808080"

    def test_scale_colors_span_ramp(self):
        scale = SequentialScale(0.0, 100.0)
        assert scale.color(0.0) == scale.stops[0]
        assert scale.color(100.0) == scale.stops[-1]

    def test_scale_clamps(self):
        scale = SequentialScale(0.0, 1.0)
        assert scale.color(-5.0) == scale.color(0.0)
        assert scale.color(99.0) == scale.color(1.0)

    def test_scale_missing(self):
        scale = SequentialScale(0.0, 1.0)
        assert scale.color(float("nan")) == scale.missing_color

    def test_scale_from_values_ignores_nan(self):
        scale = SequentialScale.from_values([1.0, float("nan"), 3.0])
        assert scale.vmin == 1.0
        assert scale.vmax == 3.0

    def test_scale_from_all_nan(self):
        scale = SequentialScale.from_values([float("nan")])
        assert scale.vmin == 0.0

    def test_degenerate_domain(self):
        scale = SequentialScale(5.0, 5.0)
        assert scale.normalized(5.0) == 0.5

    def test_legend_ticks(self):
        ticks = SequentialScale(0.0, 10.0).legend_ticks(3)
        assert [v for v, __ in ticks] == [0.0, 5.0, 10.0]

    def test_legend_needs_two(self):
        with pytest.raises(ValueError):
            SequentialScale(0.0, 1.0).legend_ticks(1)

    def test_gray_scale(self):
        gray = GrayScale()
        assert gray.color(0.0) == "#ffffff"
        assert gray.color(1.0) == "#000000"
        assert gray.color(-1.0) == "#000000"  # uses |rho|
        assert gray.color(float("nan")) == "#ffffff"

    def test_categorical_cycles(self):
        assert categorical_color(0) == categorical_color(10)


class TestSvg:
    def test_render_well_formed(self):
        doc = SvgDocument(100, 50)
        doc.circle(10, 10, 5, title="a point")
        doc.text(5, 40, "hello & <goodbye>")
        out = doc.render()
        assert out.startswith("<svg")
        assert out.endswith("</svg>")
        assert "&amp;" in out and "&lt;goodbye&gt;" in out
        assert "<title>a point</title>" in out

    def test_invalid_viewport(self):
        with pytest.raises(ValueError):
            SvgDocument(0, 10)

    def test_save(self, tmp_path):
        doc = SvgDocument(10, 10)
        path = tmp_path / "t.svg"
        doc.save(path)
        assert path.read_text().startswith("<svg")


class TestMarkerCluster:
    def make_points(self):
        # two tight packs ~5 km apart
        rng = np.random.default_rng(0)
        lats = np.concatenate([45.05 + rng.normal(0, 0.001, 40),
                               45.10 + rng.normal(0, 0.001, 60)])
        lons = np.concatenate([7.65 + rng.normal(0, 0.001, 40),
                               7.70 + rng.normal(0, 0.001, 60)])
        values = np.concatenate([np.full(40, 100.0), np.full(60, 200.0)])
        return lats, lons, values

    def test_two_packs_two_markers_at_coarse_zoom(self):
        lats, lons, values = self.make_points()
        markers = cluster_markers(lats, lons, values, Granularity.CITY)
        assert len(markers) == 2
        assert sorted(m.count for m in markers) == [40, 60]

    def test_cardinality_is_label(self):
        lats, lons, values = self.make_points()
        markers = cluster_markers(lats, lons, values, Granularity.CITY)
        assert {m.label for m in markers} == {"40", "60"}

    def test_mean_value_per_marker(self):
        lats, lons, values = self.make_points()
        markers = sorted(cluster_markers(lats, lons, values, Granularity.CITY),
                         key=lambda m: m.count)
        assert markers[0].mean_value == pytest.approx(100.0)
        assert markers[1].mean_value == pytest.approx(200.0)

    def test_unit_granularity_one_marker_per_point(self):
        lats, lons, values = self.make_points()
        markers = cluster_markers(lats, lons, values, Granularity.UNIT)
        assert len(markers) == 100
        assert all(m.count == 1 for m in markers)

    def test_drill_down_monotone(self):
        """Finer zoom never produces fewer markers (the paper's drill-down)."""
        lats, lons, values = self.make_points()
        counts = [
            len(cluster_markers(lats, lons, values, g))
            for g in (Granularity.CITY, Granularity.DISTRICT,
                      Granularity.NEIGHBOURHOOD, Granularity.UNIT)
        ]
        assert counts == sorted(counts)

    def test_counts_conserve_points(self):
        lats, lons, values = self.make_points()
        for g in (Granularity.CITY, Granularity.NEIGHBOURHOOD):
            markers = cluster_markers(lats, lons, values, g)
            assert sum(m.count for m in markers) == 100

    def test_nan_coordinates_skipped(self):
        lats = np.array([45.0, np.nan])
        lons = np.array([7.6, 7.6])
        markers = cluster_markers(lats, lons, np.array([1.0, 2.0]), Granularity.CITY)
        assert sum(m.count for m in markers) == 1

    def test_missing_values_count_but_dont_average(self):
        lats = np.full(3, 45.0)
        lons = np.full(3, 7.6)
        values = np.array([10.0, np.nan, 20.0])
        markers = cluster_markers(lats, lons, values, Granularity.CITY)
        assert len(markers) == 1
        assert markers[0].count == 3
        assert markers[0].mean_value == pytest.approx(15.0)

    def test_misaligned_rejected(self):
        with pytest.raises(ValueError):
            cluster_markers(np.zeros(2), np.zeros(3), np.zeros(2))

    def test_marker_radius_scales(self):
        small = marker_radius(1, 100)
        big = marker_radius(100, 100)
        assert small < big
        assert big == 26.0

    def test_marker_radius_validation(self):
        with pytest.raises(ValueError):
            marker_radius(0, 10)
        with pytest.raises(ValueError):
            marker_radius(20, 10)


@pytest.fixture(scope="module")
def hierarchy():
    return turin_like_hierarchy()


@pytest.fixture(scope="module")
def points():
    rng = np.random.default_rng(1)
    n = 300
    lats = 45.0703 + rng.uniform(-0.05, 0.05, n)
    lons = 7.6869 + rng.uniform(-0.08, 0.08, n)
    values = rng.uniform(30, 300, n)
    return lats, lons, values


class TestMaps:
    def test_choropleth_one_polygon_per_region(self, hierarchy):
        values = {d.name: float(i * 10) for i, d in enumerate(hierarchy.districts)}
        render = choropleth_map(hierarchy, Granularity.DISTRICT, values, "eph")
        assert render.svg.count("<polygon") == 8
        assert len(render.geojson["features"]) == 8

    def test_choropleth_missing_region_gray(self, hierarchy):
        values = {hierarchy.districts[0].name: 10.0}
        render = choropleth_map(hierarchy, Granularity.DISTRICT, values, "eph")
        assert "#cccccc" in render.svg
        assert "no data" in render.svg

    def test_choropleth_unit_level_rejected(self, hierarchy):
        with pytest.raises(ValueError):
            choropleth_map(hierarchy, Granularity.UNIT, {}, "eph")

    def test_scatter_point_per_certificate(self, hierarchy, points):
        lats, lons, values = points
        render = scatter_map(lats, lons, values, "eph", hierarchy=hierarchy)
        assert render.svg.count("<circle") == len(lats)
        assert len(render.geojson["features"]) == len(lats)

    def test_scatter_subsampling(self, hierarchy, points):
        lats, lons, values = points
        render = scatter_map(lats, lons, values, "eph", hierarchy=hierarchy,
                             max_points=50)
        assert render.svg.count("<circle") <= 50

    def test_scatter_without_hierarchy(self, points):
        lats, lons, values = points
        render = scatter_map(lats, lons, values, "eph")
        assert render.svg.count("<circle") == len(lats)

    def test_scatter_skips_infinite_coordinates(self, points):
        # ±inf is unlocated like NaN: the frame and the points stay finite
        lats, lons, values = (column.copy() for column in points)
        lats[0], lons[1] = np.inf, -np.inf
        render = scatter_map(lats, lons, values, "eph")
        assert render.svg.count("<circle") == len(lats) - 2
        assert "inf" not in render.svg and "nan" not in render.svg
        assert len(render.geojson["features"]) == len(lats) - 2

    def test_cluster_marker_map_labels(self, hierarchy, points):
        lats, lons, values = points
        render = cluster_marker_map(lats, lons, values, "eph",
                                    Granularity.CITY, hierarchy=hierarchy)
        assert "certificates; mean eph" in render.svg
        total = sum(f["properties"]["count"] for f in render.geojson["features"])
        assert total == len(lats)

    def test_cluster_marker_map_with_analytic_labels(self, hierarchy, points):
        lats, lons, values = points
        labels = np.array([0, 1] * 150)
        render = cluster_marker_map(lats, lons, values, "eph",
                                    Granularity.CITY, hierarchy=hierarchy,
                                    cluster_labels=labels)
        total = sum(f["properties"]["count"] for f in render.geojson["features"])
        assert total == len(lats)

    def test_cluster_marker_unassigned_excluded(self, hierarchy, points):
        lats, lons, values = points
        labels = np.full(len(lats), -1)
        labels[:10] = 0
        render = cluster_marker_map(lats, lons, values, "eph",
                                    Granularity.CITY, hierarchy=hierarchy,
                                    cluster_labels=labels)
        total = sum(f["properties"]["count"] for f in render.geojson["features"])
        assert total == 10

    def test_geojson_serializable(self, hierarchy, points):
        lats, lons, values = points
        render = scatter_map(lats, lons, values, "eph", hierarchy=hierarchy)
        text = json.dumps(render.geojson)
        assert "FeatureCollection" in text

    def test_canvas_projection_orientation(self, hierarchy):
        canvas = MapCanvas.for_regions(hierarchy.regions_at(Granularity.CITY))
        x_w, y_n = canvas.project(45.12, 7.60)
        x_e, y_s = canvas.project(45.02, 7.77)
        assert x_w < x_e  # east is right
        assert y_n < y_s  # north is up

    def test_canvas_degenerate_bounds(self):
        with pytest.raises(ValueError):
            MapCanvas((45.0, 7.0, 45.0, 8.0))

    def test_canvas_for_points_needs_located(self):
        with pytest.raises(ValueError):
            MapCanvas.for_points([np.nan], [np.nan])

    def test_map_save(self, hierarchy, points, tmp_path):
        lats, lons, values = points
        render = scatter_map(lats, lons, values, "eph", hierarchy=hierarchy)
        render.save_svg(tmp_path / "m.svg")
        render.save_geojson(tmp_path / "m.geojson")
        assert (tmp_path / "m.svg").exists()
        assert json.loads((tmp_path / "m.geojson").read_text())["type"] == "FeatureCollection"


class TestCharts:
    def test_histogram_chart(self):
        h = histogram(np.random.default_rng(0).normal(0, 1, 200), bins=10, attribute="eph")
        svg = histogram_chart(h)
        assert svg.count("<rect") >= 10

    def test_grouped_histogram_chart(self):
        t = Table(
            [
                Column.numeric("eph", list(np.arange(100.0))),
                Column.categorical("g", ["a"] * 50 + ["b"] * 50),
            ]
        )
        hists = grouped_histograms(t, "eph", by="g")
        svg = grouped_histogram_chart(hists, "eph")
        assert "a (n=50)" in svg
        assert "b (n=50)" in svg

    def test_grouped_histogram_empty(self):
        svg = grouped_histogram_chart({}, "eph")
        assert svg.startswith("<svg")

    def test_bar_chart(self):
        svg = bar_chart([("A", 10), ("B", 5)], "energy_class")
        assert "A: 10" in svg

    def test_boxplot_chart_marks_outliers(self):
        values = np.concatenate([np.random.default_rng(0).normal(10, 1, 200), [99.0]])
        result = boxplot_outliers(values)
        svg = boxplot_chart(result, values, "u_value")
        assert "outlier: 99" in svg

    def test_boxplot_chart_empty(self):
        values = np.array([np.nan])
        svg = boxplot_chart(boxplot_outliers(values), values, "x")
        assert svg.startswith("<svg")

    def test_correlation_chart_cells(self):
        t = Table(
            [
                Column.numeric("a", list(np.arange(50.0))),
                Column.numeric("b", list(np.arange(50.0) * 2)),
            ]
        )
        cm = correlation_matrix(t, ["a", "b"])
        svg = correlation_matrix_chart(cm)
        assert "rho(a, b) = 1.000" in svg

    def test_rules_table(self):
        rule = AssociationRule(
            (Item("u", "High"),), (Item("eph", "High"),), 0.3, 0.9, 1.4, float("inf")
        )
        html = rules_table_html([rule])
        assert "{u=High} -&gt; {eph=High}" in html or "{u=High} -> {eph=High}" in html
        assert "&infin;" in html

    def test_summary_table_both_kinds(self):
        t = Table(
            [Column.numeric("x", [1.0, 2.0]), Column.categorical("c", ["a", "a"])]
        )
        html = summary_table_html(summarize_table(t))
        assert "Median" in html
        assert "Mode" in html


class TestDashboard:
    def test_builder_assembles_panels(self):
        h = histogram(np.arange(50.0), bins=5, attribute="eph")
        builder = DashboardBuilder("Test", "subtitle")
        builder.add_histogram(h, caption="the response")
        builder.add_bar_chart([("A", 1)], "energy_class")
        dash = builder.build()
        assert len(dash.panels) == 2
        assert dash.panels_of_kind("frequency_distribution")

    def test_html_self_contained(self):
        dash = Dashboard("T", "S", [Panel("P", "c", "<svg></svg>", "map")])
        html = dash.to_html()
        assert html.startswith("<!DOCTYPE html>")
        assert "<svg></svg>" in html
        assert "http://" not in html.replace("http://www.w3.org", "")  # no external assets

    def test_save(self, tmp_path):
        dash = Dashboard("T", "S", [Panel("P", "c", "<p>x</p>")])
        path = dash.save(tmp_path / "out" / "dash.html")
        assert path.exists()
        assert "<p>x</p>" in path.read_text()

    def test_escaping(self):
        dash = Dashboard("A & B", "<subtitle>", [Panel("P<", "c&", "<p>x</p>")])
        html = dash.to_html()
        assert "A &amp; B" in html
        assert "&lt;subtitle&gt;" in html
