"""The three INDICE energy maps: choropleth, scatter and cluster-marker.

"In choropleth maps each area (at different zoom levels) is colored
according to the average value of the considered variable ... The scatter
maps report a point and its corresponding value for each EPC ...
Cluster-marker maps ... aggregate multiple certificates coloring the
dynamic markers according to the average of the values of the aggregated
points" (paper, Section 2.3).

Every map renders to (a) a standalone SVG with hover tooltips and a
legend, and (b) a GeoJSON FeatureCollection for GIS tools — together they
replace the folium/Leaflet layer of the original system.  The three map
builders share one :class:`MapCanvas` projection, so a dashboard can
overlay them (Figure 2 upper shows a choropleth with scatter markers on
top) and switch among them when the user changes the analysis zoom.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..geo import geojson
from ..geo.regions import Granularity, Region, RegionHierarchy
from .colors import SequentialScale, categorical_color
from .markercluster import cluster_markers, marker_radius
from .svg import SvgDocument

__all__ = [
    "MapRender",
    "MapCanvas",
    "choropleth_map",
    "categorical_choropleth_map",
    "scatter_map",
    "cluster_marker_map",
    "choropleth_with_scatter_map",
]


class MapRender:
    """A rendered energy map: SVG for humans, GeoJSON for tools.

    *geojson* is the FeatureCollection, or a function that builds it on
    the first read of :attr:`geojson`: dashboards embed only the SVG, so
    they never pay for one feature dict per point.
    """

    def __init__(
        self, title: str, svg: str, geojson: dict | Callable[[], dict] | None = None
    ):
        self.title = title
        self.svg = svg
        self._layer = {} if geojson is None else geojson

    @property
    def geojson(self) -> dict:
        """The map's GeoJSON FeatureCollection (built on first read)."""
        if callable(self._layer):
            self._layer = self._layer()
        return self._layer

    def save_svg(self, path) -> None:
        """Write the SVG document to *path*."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.svg)

    def save_geojson(self, path) -> None:
        """Write the GeoJSON layer to *path* (pretty-printed)."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(geojson.dumps(self.geojson, indent=2))


class MapCanvas:
    """Projects a geographic bounding box onto a pixel viewport.

    Equirectangular projection with the aspect ratio corrected by the
    cosine of the central latitude — visually faithful at city scale.
    """

    def __init__(
        self,
        bounds: tuple[float, float, float, float],
        width: int = 760,
        padding: int = 18,
        legend_height: int = 46,
    ):
        lo_lat, lo_lon, hi_lat, hi_lon = bounds
        if hi_lat <= lo_lat or hi_lon <= lo_lon:
            raise ValueError(f"degenerate bounds {bounds}")
        self.bounds = bounds
        self.padding = padding
        self.legend_height = legend_height
        mid_lat = (lo_lat + hi_lat) / 2
        lon_scale = np.cos(np.radians(mid_lat))
        geo_w = (hi_lon - lo_lon) * lon_scale
        geo_h = hi_lat - lo_lat
        draw_w = width - 2 * padding
        draw_h = int(draw_w * geo_h / geo_w)
        self.width = width
        self.height = draw_h + 2 * padding + legend_height
        self._draw_w = draw_w
        self._draw_h = draw_h
        self._lon_scale = lon_scale

    @classmethod
    def for_regions(cls, regions: list[Region], **kwargs) -> "MapCanvas":
        """A canvas framing the union of the regions' bounding boxes."""
        boxes = [r.bounding_box() for r in regions]
        return cls(
            (
                min(b[0] for b in boxes),
                min(b[1] for b in boxes),
                max(b[2] for b in boxes),
                max(b[3] for b in boxes),
            ),
            **kwargs,
        )

    @classmethod
    def for_points(cls, latitudes, longitudes, **kwargs) -> "MapCanvas":
        """A canvas framing the located points with a small margin."""
        lat = np.asarray(latitudes, dtype=np.float64)
        lon = np.asarray(longitudes, dtype=np.float64)
        keep = np.isfinite(lat) & np.isfinite(lon)
        lat, lon = lat[keep], lon[keep]
        if len(lat) == 0:
            raise ValueError("no located points to frame")
        pad_lat = max((lat.max() - lat.min()) * 0.05, 1e-4)
        pad_lon = max((lon.max() - lon.min()) * 0.05, 1e-4)
        return cls(
            (lat.min() - pad_lat, lon.min() - pad_lon, lat.max() + pad_lat, lon.max() + pad_lon),
            **kwargs,
        )

    def project(self, lat, lon) -> tuple:
        """(lat, lon) -> pixel (x, y); y grows downward.

        Scalars or aligned coordinate arrays: arrays project elementwise
        with the same float operations, so each pixel equals the scalar
        projection of its point.
        """
        lo_lat, lo_lon, hi_lat, hi_lon = self.bounds
        x = self.padding + (lon - lo_lon) / (hi_lon - lo_lon) * self._draw_w
        y = self.padding + (hi_lat - lat) / (hi_lat - lo_lat) * self._draw_h
        return x, y

    def new_document(self, title: str) -> SvgDocument:
        """A fresh SVG document titled *title* over this canvas."""
        doc = SvgDocument(self.width, self.height, background="#f7f9fb")
        doc.text(self.padding, self.padding - 4, title, size=13, weight="bold")
        return doc

    def draw_region_outline(self, doc: SvgDocument, region: Region,
                            fill: str = "none", title: str | None = None,
                            opacity: float = 1.0) -> None:
        """Draw *region* as an outlined polygon on *doc*."""
        points = [self.project(lat, lon) for lat, lon in region.ring]
        doc.polygon(points, fill=fill, stroke="#7a8a99", stroke_width=1.0,
                    opacity=opacity, title=title)

    def draw_legend(self, doc: SvgDocument, scale: SequentialScale, label: str) -> None:
        """A horizontal color-bar legend under the map."""
        y = self.height - self.legend_height + 14
        x0 = self.padding
        bar_w = min(260, self.width - 2 * self.padding)
        steps = 40
        for i in range(steps):
            t = i / (steps - 1)
            value = scale.vmin + t * (scale.vmax - scale.vmin)
            doc.rect(x0 + i * bar_w / steps, y, bar_w / steps + 0.5, 10,
                     fill=scale.color(value), stroke="none")
        doc.text(x0, y + 24, f"{scale.vmin:.3g}", size=10)
        doc.text(x0 + bar_w, y + 24, f"{scale.vmax:.3g}", size=10, anchor="end")
        doc.text(x0 + bar_w / 2, y + 24, label, size=10, anchor="middle")


def _value_tooltips(attribute: str, values: np.ndarray) -> list[str]:
    """The per-certificate tooltip of every value (NaN reads "missing")."""
    return [
        f"{attribute} = " + ("missing" if v != v else f"{v:.2f}")
        for v in values.tolist()
    ]


def _region_features(regions, region_values: dict, attribute: str) -> list[dict]:
    """One GeoJSON Polygon per region carrying its value (or ``null``)."""
    features = []
    for region in regions:
        value = region_values.get(region.name, float("nan"))
        features.append(geojson.region_feature(
            region, {attribute: None if np.isnan(value) else value}
        ))
    return features


def choropleth_map(
    hierarchy: RegionHierarchy,
    level: Granularity,
    region_values: dict[str, float],
    attribute: str,
    title: str | None = None,
    scale: SequentialScale | None = None,
) -> MapRender:
    """Color each region at *level* by its aggregated attribute value.

    ``region_values`` maps region name -> aggregate (typically the mean
    from :meth:`QueryEngine.aggregate`); regions with no entry (or NaN)
    render in the scale's missing color.
    """
    regions = hierarchy.regions_at(level)
    if not regions:
        raise ValueError(f"no polygonal regions at level {level.name}")
    title = title or f"Average {attribute} by {level.name.lower()}"
    canvas = MapCanvas.for_regions(regions)
    scale = scale or SequentialScale.from_values(list(region_values.values()))
    doc = canvas.new_document(title)
    for region in regions:
        value = region_values.get(region.name, float("nan"))
        color = scale.color(value)
        points = [canvas.project(lat, lon) for lat, lon in region.ring]
        tooltip = (
            f"{region.name}: {attribute} = "
            + (f"{value:.2f}" if not np.isnan(value) else "no data")
        )
        doc.polygon(points, fill=color, stroke="#51606e", stroke_width=1.0,
                    opacity=0.88, title=tooltip)
    canvas.draw_legend(doc, scale, attribute)
    return MapRender(title, doc.render(), geojson.feature_collection(
        _region_features(regions, region_values, attribute)
    ))


def categorical_choropleth_map(
    hierarchy: RegionHierarchy,
    level: Granularity,
    region_modes: dict[str, tuple[str, float]],
    attribute: str,
    title: str | None = None,
) -> MapRender:
    """Choropleth for a categorical attribute: each region takes the color
    of its dominant category, with opacity encoding the dominance share.

    ``region_modes`` maps region name -> ``(dominant_value, share)`` (e.g.
    the modal energy class per neighbourhood).  A swatch legend lists the
    categories in play.
    """
    regions = hierarchy.regions_at(level)
    if not regions:
        raise ValueError(f"no polygonal regions at level {level.name}")
    title = title or f"Dominant {attribute} by {level.name.lower()}"
    canvas = MapCanvas.for_regions(regions)
    categories = sorted({mode for mode, __ in region_modes.values()})
    color_of = {cat: categorical_color(i) for i, cat in enumerate(categories)}

    doc = canvas.new_document(title)
    features = []
    for region in regions:
        mode = region_modes.get(region.name)
        points = [canvas.project(lat, lon) for lat, lon in region.ring]
        if mode is None:
            doc.polygon(points, fill="#cccccc", stroke="#51606e",
                        title=f"{region.name}: no data")
            features.append(geojson.region_feature(region, {attribute: None}))
            continue
        value, share = mode
        doc.polygon(
            points, fill=color_of[value], stroke="#51606e", stroke_width=1.0,
            opacity=0.35 + 0.6 * min(max(share, 0.0), 1.0),
            title=f"{region.name}: {attribute} = {value} ({share:.0%})",
        )
        features.append(
            geojson.region_feature(region, {attribute: value, "share": share})
        )
    # swatch legend
    y = canvas.height - canvas.legend_height + 12
    x = canvas.padding
    for cat in categories:
        doc.rect(x, y, 12, 12, fill=color_of[cat], stroke="none")
        doc.text(x + 16, y + 10, str(cat)[:14], size=10)
        x += 22 + 7 * min(len(str(cat)), 14)
    return MapRender(title, doc.render(), geojson.feature_collection(features))


def scatter_map(
    latitudes: np.ndarray,
    longitudes: np.ndarray,
    values: np.ndarray,
    attribute: str,
    hierarchy: RegionHierarchy | None = None,
    outline_level: Granularity = Granularity.DISTRICT,
    title: str | None = None,
    scale: SequentialScale | None = None,
    point_radius: float = 2.6,
    max_points: int | None = None,
) -> MapRender:
    """One colored point per certificate (the paper's scatter map).

    When *hierarchy* is given, region outlines at *outline_level* are drawn
    under the points so the user keeps spatial orientation while drilled
    down.  ``max_points`` subsamples deterministically for huge selections.
    """
    latitudes = np.asarray(latitudes, dtype=np.float64)
    longitudes = np.asarray(longitudes, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    keep = np.flatnonzero(np.isfinite(latitudes) & np.isfinite(longitudes))
    if max_points is not None and len(keep) > max_points:
        stride = int(np.ceil(len(keep) / max_points))
        keep = keep[::stride]
    title = title or f"{attribute} per certificate"
    if hierarchy is not None:
        canvas = MapCanvas.for_regions(hierarchy.regions_at(Granularity.CITY))
    else:
        canvas = MapCanvas.for_points(latitudes[keep], longitudes[keep])
    scale = scale or SequentialScale.from_values(values[keep])
    doc = canvas.new_document(title)
    if hierarchy is not None:
        for region in hierarchy.regions_at(outline_level):
            canvas.draw_region_outline(doc, region, title=region.name)
    lats, lons, kept = latitudes[keep], longitudes[keep], values[keep]
    xs, ys = canvas.project(lats, lons)
    doc.circles(xs, ys, point_radius, scale.colors(kept), stroke="none",
                opacity=0.85, titles=_value_tooltips(attribute, kept))
    canvas.draw_legend(doc, scale, attribute)
    return MapRender(title, doc.render(), lambda: geojson.feature_collection(
        geojson.point_features(lats, lons, {attribute: kept})
    ))


def choropleth_with_scatter_map(
    hierarchy: RegionHierarchy,
    level: Granularity,
    region_values: dict[str, float],
    latitudes: np.ndarray,
    longitudes: np.ndarray,
    values: np.ndarray,
    attribute: str,
    title: str | None = None,
    max_points: int | None = 4000,
) -> MapRender:
    """Figure 2's upper view: area averages with per-certificate markers.

    "The choropleth map shows the average value of the attributes for the
    selected area together with the scatter marker of each single point"
    (paper, Section 3).  Both layers share one canvas and one color scale,
    so a marker brighter than its area reads immediately as an outlier
    within its neighbourhood.
    """
    regions = hierarchy.regions_at(level)
    if not regions:
        raise ValueError(f"no polygonal regions at level {level.name}")
    title = title or f"Average and per-certificate {attribute} ({level.name.lower()})"
    canvas = MapCanvas.for_regions(hierarchy.regions_at(Granularity.CITY))

    latitudes = np.asarray(latitudes, dtype=np.float64)
    longitudes = np.asarray(longitudes, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    keep = np.flatnonzero(np.isfinite(latitudes) & np.isfinite(longitudes))
    if max_points is not None and len(keep) > max_points:
        stride = int(np.ceil(len(keep) / max_points))
        keep = keep[::stride]

    # one scale across both layers
    pool = list(region_values.values()) + [float(v) for v in values[keep]]
    scale = SequentialScale.from_values(pool)

    doc = canvas.new_document(title)
    for region in regions:
        value = region_values.get(region.name, float("nan"))
        points = [canvas.project(lat, lon) for lat, lon in region.ring]
        tooltip = (
            f"{region.name}: mean {attribute} = "
            + (f"{value:.2f}" if not np.isnan(value) else "no data")
        )
        doc.polygon(points, fill=scale.color(value), stroke="#51606e",
                    stroke_width=1.0, opacity=0.55, title=tooltip)
    lats, lons, kept = latitudes[keep], longitudes[keep], values[keep]
    xs, ys = canvas.project(lats, lons)
    doc.circles(xs, ys, 2.4, scale.colors(kept), stroke="#2b3a48",
                stroke_width=0.4, opacity=0.95, titles=_value_tooltips(attribute, kept))
    canvas.draw_legend(doc, scale, attribute)
    return MapRender(title, doc.render(), lambda: geojson.feature_collection(
        _region_features(regions, region_values, attribute)
        + geojson.point_features(lats, lons, {attribute: kept})
    ))


def cluster_marker_map(
    latitudes: np.ndarray,
    longitudes: np.ndarray,
    values: np.ndarray,
    attribute: str,
    granularity: Granularity = Granularity.CITY,
    hierarchy: RegionHierarchy | None = None,
    title: str | None = None,
    scale: SequentialScale | None = None,
    cell_km: float | None = None,
    cluster_labels: np.ndarray | None = None,
) -> MapRender:
    """The paper's cluster-marker map at a given zoom level.

    Markers aggregate nearby certificates: size and inner label encode
    cardinality, fill encodes the mean of *values*.  When
    ``cluster_labels`` (e.g. K-means assignments) is given, markers are
    built per analytic cluster within each grid cell, and the marker
    stroke takes the cluster's categorical color — the bottom-of-Figure-2
    view that combines spatial and analytic grouping.
    """
    latitudes = np.asarray(latitudes, dtype=np.float64)
    longitudes = np.asarray(longitudes, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    title = title or f"Cluster markers of {attribute} ({granularity.name.lower()} zoom)"

    if cluster_labels is None:
        markers = cluster_markers(latitudes, longitudes, values, granularity, cell_km)
        strokes = ["#51606e"] * len(markers)
    else:
        cluster_labels = np.asarray(cluster_labels)
        markers = []
        strokes = []
        for cluster_id in np.unique(cluster_labels):
            if cluster_id < 0:
                continue  # unassigned rows stay off the map
            rows = np.flatnonzero(cluster_labels == cluster_id)
            for marker in cluster_markers(
                latitudes[rows], longitudes[rows], values[rows], granularity, cell_km
            ):
                marker.member_indices = rows[marker.member_indices]
                markers.append(marker)
                strokes.append(categorical_color(int(cluster_id)))

    if hierarchy is not None:
        canvas = MapCanvas.for_regions(hierarchy.regions_at(Granularity.CITY))
    elif markers:
        canvas = MapCanvas.for_points(
            [m.latitude for m in markers], [m.longitude for m in markers]
        )
    else:
        raise ValueError("no markers and no hierarchy to frame the map")

    mean_values = [m.mean_value for m in markers]
    scale = scale or SequentialScale.from_values(mean_values)
    doc = canvas.new_document(title)
    if hierarchy is not None:
        outline_level = (
            Granularity.DISTRICT if granularity <= Granularity.DISTRICT
            else Granularity.NEIGHBOURHOOD
        )
        for region in hierarchy.regions_at(outline_level):
            canvas.draw_region_outline(doc, region, title=region.name)

    # largest first (a stable sort), so small markers draw on top
    ranked = sorted(zip(markers, strokes), key=lambda pair: -pair[0].count)
    lats = np.array([m.latitude for m, __ in ranked], dtype=np.float64)
    lons = np.array([m.longitude for m, __ in ranked], dtype=np.float64)
    counts = np.array([m.count for m, __ in ranked], dtype=np.int64)
    means = np.array([m.mean_value for m, __ in ranked], dtype=np.float64)
    xs, ys = canvas.project(lats, lons)
    radii = marker_radius(counts, max(counts.tolist(), default=1))
    tooltips = [
        f"{count} certificates; mean {attribute} = "
        + ("n/a" if mean != mean else f"{mean:.2f}")
        for count, mean in zip(counts.tolist(), means.tolist())
    ]
    labels = SvgDocument.text_rows(
        xs, ys + 4, [m.label for m, __ in ranked], size=11, anchor="middle",
        fill="#1c2733", weight="bold", titles=tooltips,
    )
    doc.circles(
        xs, ys, radii, scale.colors(means), stroke=[s for __, s in ranked],
        stroke_width=2.0, opacity=0.92, titles=tooltips,
        labels=[row if r >= 8 else None for row, r in zip(labels, radii.tolist())],
    )
    canvas.draw_legend(doc, scale, f"mean {attribute}")
    return MapRender(title, doc.render(), lambda: geojson.feature_collection(
        geojson.point_features(lats, lons, {"count": counts, "mean_" + attribute: means})
    ))
