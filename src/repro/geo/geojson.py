"""Minimal GeoJSON emission for INDICE maps.

Dashboards export their geographic layers (region polygons, certificate
points, cluster markers) as GeoJSON FeatureCollections so they can be
inspected with any standard GIS tool.  Only the writer subset INDICE needs
is implemented; coordinates follow the GeoJSON convention (lon, lat).
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

from .regions import Region

__all__ = [
    "point_feature",
    "point_features",
    "polygon_feature",
    "region_feature",
    "feature_collection",
    "dumps",
    "loads",
    "points_from_collection",
]


def point_feature(lat: float, lon: float, properties: dict[str, Any] | None = None) -> dict:
    """A GeoJSON Point feature at (*lat*, *lon*)."""
    return {
        "type": "Feature",
        "geometry": {"type": "Point", "coordinates": [float(lon), float(lat)]},
        "properties": dict(properties or {}),
    }


def point_features(latitudes, longitudes, properties: dict[str, Any]) -> list[dict]:
    """One Point feature per row of aligned columns, a column at a time.

    *properties* maps each property name to a column; non-finite float
    entries (NaN, ±inf) become ``None`` (JSON ``null``), so the features
    always pass a strict ``allow_nan=False`` dump.  Each feature equals
    the one :func:`point_feature` builds from the row's Python values.

    >>> features = point_features([45.0], [7.5], {"eph": [float("nan")], "cluster": ["2"]})
    >>> features == [point_feature(45.0, 7.5, {"eph": None, "cluster": "2"})]
    True
    >>> [f["properties"]["eph"] for f in point_features(
    ...     [45.0, 45.1], [7.5, 7.6], {"eph": [float("inf"), -float("inf")]})]
    [None, None]
    """
    names = list(properties)
    columns = [
        [
            None if isinstance(v, float) and not math.isfinite(v) else v
            for v in np.asarray(column).tolist()
        ]
        for column in properties.values()
    ]
    return [
        point_feature(lat, lon, dict(zip(names, row)))
        for lat, lon, *row in zip(
            np.asarray(latitudes, dtype=np.float64).tolist(),
            np.asarray(longitudes, dtype=np.float64).tolist(),
            *columns,
        )
    ]


def polygon_feature(
    ring: list[tuple[float, float]], properties: dict[str, Any] | None = None
) -> dict:
    """A GeoJSON Polygon feature from a (lat, lon) ring (closed automatically)."""
    coords = [[float(lon), float(lat)] for lat, lon in ring]
    if coords and coords[0] != coords[-1]:
        coords.append(coords[0])
    return {
        "type": "Feature",
        "geometry": {"type": "Polygon", "coordinates": [coords]},
        "properties": dict(properties or {}),
    }


def region_feature(region: Region, properties: dict[str, Any] | None = None) -> dict:
    """A Polygon feature for an administrative :class:`Region`."""
    props = {"name": region.name, "level": region.level.name.lower()}
    props.update(properties or {})
    return polygon_feature(region.ring, props)


def feature_collection(features: list[dict]) -> dict:
    """Wrap *features* into a FeatureCollection."""
    return {"type": "FeatureCollection", "features": list(features)}


def dumps(collection: dict, indent: int | None = None) -> str:
    """Serialize a GeoJSON object, rejecting NaN coordinates up front."""
    return json.dumps(collection, indent=indent, allow_nan=False)


def loads(text: str) -> dict:
    """Parse a GeoJSON document, validating the top-level shape."""
    obj = json.loads(text)
    if not isinstance(obj, dict) or "type" not in obj:
        raise ValueError("not a GeoJSON object (missing 'type')")
    if obj["type"] == "FeatureCollection" and not isinstance(obj.get("features"), list):
        raise ValueError("FeatureCollection without a 'features' list")
    return obj


def points_from_collection(collection: dict) -> list[tuple[float, float, dict]]:
    """Extract ``(lat, lon, properties)`` for every Point feature.

    Non-point features are skipped — use this to pull certificate markers
    back out of an exported map layer.
    """
    out: list[tuple[float, float, dict]] = []
    for feature in collection.get("features", []):
        geometry = feature.get("geometry") or {}
        if geometry.get("type") != "Point":
            continue
        lon, lat = geometry["coordinates"]
        out.append((float(lat), float(lon), dict(feature.get("properties") or {})))
    return out
