"""Color scales for the INDICE energy maps and charts.

Choropleth and cluster-marker maps color regions/markers "according to the
average value of the considered variable" (paper, Section 2.3); the
correlation matrix uses "a gray level in the black-and-white scale".  This
module provides those scales without any plotting dependency:

* :class:`SequentialScale` — multi-stop linear interpolation in RGB, with
  an energy-map default ramp (green = efficient, red = demanding);
* :class:`GrayScale` — |rho| -> gray, Figure 3's encoding;
* :data:`CATEGORICAL_PALETTE` — distinguishable hues for cluster ids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "hex_to_rgb",
    "rgb_to_hex",
    "interpolate_hex",
    "SequentialScale",
    "GrayScale",
    "CATEGORICAL_PALETTE",
    "categorical_color",
    "ENERGY_RAMP",
]


def hex_to_rgb(color: str) -> tuple[int, int, int]:
    """``'#a1b2c3' -> (161, 178, 195)``."""
    color = color.lstrip("#")
    if len(color) != 6:
        raise ValueError(f"expected #rrggbb, got {color!r}")
    return tuple(int(color[i : i + 2], 16) for i in (0, 2, 4))


def rgb_to_hex(rgb: tuple[int, int, int]) -> str:
    """``(161, 178, 195) -> '#a1b2c3'``."""
    return "#" + "".join(f"{max(0, min(255, int(round(c)))):02x}" for c in rgb)


def interpolate_hex(a: str, b: str, t: float) -> str:
    """Linear interpolation between two hex colors, t in [0, 1]."""
    t = min(max(t, 0.0), 1.0)
    ra, ga, ba = hex_to_rgb(a)
    rb, gb, bb = hex_to_rgb(b)
    return rgb_to_hex((ra + (rb - ra) * t, ga + (gb - ga) * t, ba + (bb - ba) * t))


#: Green -> yellow -> red ramp: low energy demand reads as good.
ENERGY_RAMP = ("#1a9850", "#fee08b", "#d73027")


@dataclass
class SequentialScale:
    """A piecewise-linear color ramp over a numeric domain.

    ``missing_color`` is returned for NaN input (areas with no data are
    drawn hollow, not misleadingly colored).
    """

    vmin: float
    vmax: float
    stops: tuple[str, ...] = ENERGY_RAMP
    missing_color: str = "#cccccc"

    def __post_init__(self):
        if len(self.stops) < 2:
            raise ValueError("a scale needs at least 2 color stops")
        if self.vmax < self.vmin:
            raise ValueError("vmax must be >= vmin")

    @classmethod
    def from_values(
        cls, values, stops: tuple[str, ...] = ENERGY_RAMP, missing_color: str = "#cccccc"
    ) -> "SequentialScale":
        """Fit the domain to the data's non-missing min/max."""
        arr = np.asarray(values, dtype=np.float64)
        present = arr[~np.isnan(arr)]
        if len(present) == 0:
            return cls(0.0, 1.0, stops, missing_color)
        return cls(float(present.min()), float(present.max()), stops, missing_color)

    def normalized(self, value: float) -> float:
        """Value mapped into [0, 1] over the domain (clamped)."""
        if self.vmax == self.vmin:
            return 0.5
        return min(max((value - self.vmin) / (self.vmax - self.vmin), 0.0), 1.0)

    def color(self, value: float) -> str:
        """The hex color of *value*; NaN maps to ``missing_color``."""
        if value is None or np.isnan(value):
            return self.missing_color
        t = self.normalized(value) * (len(self.stops) - 1)
        i = min(int(t), len(self.stops) - 2)
        return interpolate_hex(self.stops[i], self.stops[i + 1], t - i)

    def colors(self, values) -> list[str]:
        """``[self.color(v) for v in values]``, a column at a time.

        The same float operations run on arrays (``np.rint`` rounds half
        to even, like ``round``), so every colour is the one :meth:`color`
        returns.

        >>> scale = SequentialScale(10.0, 30.0)
        >>> values = [10.0, 12.5, 20.0, 27.3, 30.0, -5.0, 99.0, float("nan"), None]
        >>> scale.colors(values) == [scale.color(v) for v in values]
        True
        >>> flat = SequentialScale(4.0, 4.0)
        >>> flat.colors([4.0, 1.0, float("nan")]) == [flat.color(4.0), flat.color(1.0), "#cccccc"]
        True
        """
        arr = np.asarray(values, dtype=np.float64)
        missing = np.isnan(arr)
        n_segments = len(self.stops) - 1
        if self.vmax == self.vmin:
            t = np.full(arr.shape, 0.5 * n_segments)
        else:
            scaled = (np.where(missing, self.vmin, arr) - self.vmin) / (self.vmax - self.vmin)
            t = np.minimum(np.maximum(scaled, 0.0), 1.0) * n_segments
        segment = np.minimum(t.astype(np.intp), n_segments - 1)
        frac = np.minimum(np.maximum(t - segment, 0.0), 1.0)[:, None]
        rgb = np.array([hex_to_rgb(stop) for stop in self.stops], dtype=np.float64)
        low, high = rgb[segment], rgb[segment + 1]
        channels = np.clip(np.rint(low + (high - low) * frac), 0, 255).astype(np.int64)
        codes = (channels[:, 0] << 16 | channels[:, 1] << 8 | channels[:, 2]).tolist()
        return [
            self.missing_color if gap else f"#{code:06x}"
            for code, gap in zip(codes, missing.tolist())
        ]

    def legend_ticks(self, n: int = 5) -> list[tuple[float, str]]:
        """(value, color) pairs evenly spanning the domain."""
        if n < 2:
            raise ValueError("a legend needs at least 2 ticks")
        values = np.linspace(self.vmin, self.vmax, n)
        return [(float(v), self.color(float(v))) for v in values]


@dataclass
class GrayScale:
    """|value| in [0, 1] -> gray level; 1 is black (Figure 3's encoding)."""

    def color(self, value: float) -> str:
        """The hex color encoding *value*."""
        if value is None or np.isnan(value):
            return "#ffffff"
        level = min(max(abs(value), 0.0), 1.0)
        channel = int(round(255 * (1.0 - level)))
        return rgb_to_hex((channel, channel, channel))


#: Qualitative palette for cluster identities (colorblind-safe base hues).
CATEGORICAL_PALETTE = (
    "#4477aa", "#ee6677", "#228833", "#ccbb44",
    "#66ccee", "#aa3377", "#bbbbbb", "#995522",
    "#004488", "#997700",
)


def categorical_color(index: int) -> str:
    """A stable color for cluster / category *index* (cycles past 10)."""
    return CATEGORICAL_PALETTE[index % len(CATEGORICAL_PALETTE)]
