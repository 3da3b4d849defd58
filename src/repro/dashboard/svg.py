"""A minimal SVG document builder.

All INDICE visualizations render to standalone SVG (folium/Leaflet are
substituted dependencies, see DESIGN.md): maps, charts and matrices are
vector documents a browser opens directly and dashboards embed inline.
Only the elements the framework draws are implemented; every element
supports a ``<title>`` child, which browsers show as a hover tooltip —
that is how "the users can ... check the attribute values for each
certificate by clicking on the markers" degrades gracefully without
JavaScript.
"""

from __future__ import annotations

from xml.sax.saxutils import escape

import numpy as np

__all__ = ["SvgDocument"]


def _fmt(value: float) -> str:
    """Compact numeric formatting for attribute values."""
    text = f"{value:.2f}"
    return text.rstrip("0").rstrip(".") if "." in text else text


def _fmt_column(values) -> list[str]:
    """``[_fmt(v) for v in values]``, formatting the whole column at once."""
    floats = np.asarray(values, dtype=np.float64).ravel().tolist()
    if not floats:
        return []
    texts = ("%.2f," * len(floats) % tuple(floats))[:-1].split(",")
    return [t.rstrip("0").rstrip(".") if "." in t else t for t in texts]


def _per_row(value, n: int) -> list:
    """*value* repeated for *n* rows, or *value* itself if it is a column."""
    return [value] * n if value is None or isinstance(value, str) else list(value)


def _escaped(values: list) -> list:
    """Each string of *values* escaped, every distinct string only once."""
    table = {v: escape(v) for v in dict.fromkeys(values) if v is not None}
    return [None if v is None else table[v] for v in values]


def _attr(name: str, value) -> str:
    """`` name="value"`` with the value escaped, or nothing for ``None``."""
    return "" if value is None else f' {name}="{escape(str(value))}"'


class SvgDocument:
    """An append-only SVG document with a fixed pixel viewport."""

    def __init__(self, width: int, height: int, background: str | None = "#ffffff"):
        if width <= 0 or height <= 0:
            raise ValueError("viewport must be positive")
        self.width = width
        self.height = height
        self._parts: list[str] = []
        if background:
            self.rect(0, 0, width, height, fill=background, stroke="none")

    # -- primitives ------------------------------------------------------

    def _element(self, tag: str, attrs: dict, title: str | None = None, text: str | None = None) -> None:
        rendered = "".join(_attr(k.replace("_", "-"), v) for k, v in attrs.items())
        if title is None and text is None:
            self._parts.append(f"<{tag}{rendered}/>")
            return
        inner = ""
        if title is not None:
            inner += f"<title>{escape(title)}</title>"
        if text is not None:
            inner += escape(text)
        self._parts.append(f"<{tag}{rendered}>{inner}</{tag}>")

    def rect(
        self, x: float, y: float, w: float, h: float,
        fill: str = "#000000", stroke: str | None = "#333333",
        stroke_width: float = 0.5, opacity: float = 1.0, title: str | None = None,
    ) -> None:
        """Append a rectangle."""
        self._element(
            "rect",
            {
                "x": _fmt(x), "y": _fmt(y), "width": _fmt(w), "height": _fmt(h),
                "fill": fill, "stroke": stroke, "stroke_width": stroke_width,
                "opacity": opacity if opacity < 1.0 else None,
            },
            title,
        )

    def circle(
        self, cx: float, cy: float, r: float,
        fill: str = "#000000", stroke: str | None = "#333333",
        stroke_width: float = 0.5, opacity: float = 1.0, title: str | None = None,
    ) -> None:
        """Append a circle."""
        self._element(
            "circle",
            {
                "cx": _fmt(cx), "cy": _fmt(cy), "r": _fmt(r),
                "fill": fill, "stroke": stroke, "stroke_width": stroke_width,
                "opacity": opacity if opacity < 1.0 else None,
            },
            title,
        )

    def circles(
        self, cx, cy, r, fill,
        stroke: str | None = "#333333", stroke_width: float = 0.5,
        opacity: float = 1.0, titles=None, labels=None,
    ) -> None:
        """Append one circle per row of the coordinate and radius columns.

        The same bytes as one :meth:`circle` call per row: numbers go
        through ``_fmt`` and strings through ``escape``, a column at a time.
        *r*, *fill* and *stroke* take one value for every row or a column;
        *titles* is a column of tooltips or ``None``.  *labels*, from
        :meth:`text_rows`, puts each row's ``<text>`` (or nothing, for
        ``None``) right after its circle.

        >>> columns = ([12.345, 0.0], [7.0, -0.004], [2.6, 9.999])
        >>> fills, titles = ["#1a9850", "#d73027"], ["a < b", "x & y"]
        >>> batch = SvgDocument(40, 40, background=None)
        >>> batch.circles(*columns, fills, stroke=None, opacity=0.85, titles=titles)
        >>> single = SvgDocument(40, 40, background=None)
        >>> for x, y, r, fill, title in zip(*columns, fills, titles):
        ...     single.circle(x, y, r, fill=fill, stroke=None, opacity=0.85, title=title)
        >>> batch.render() == single.render()
        True
        >>> print(batch._parts[1])  # doctest: +NORMALIZE_WHITESPACE
        <circle cx="0" cy="-0" r="10" fill="#d73027" stroke-width="0.5"
            opacity="0.85"><title>x &amp; y</title></circle>
        """
        xs, ys = _fmt_column(cx), _fmt_column(cy)
        n = len(xs)
        rs = [_fmt(r)] * n if np.ndim(r) == 0 else _fmt_column(r)
        fills = _escaped(_per_row(fill, n))
        strokes = _escaped(_per_row(stroke, n))
        tail = _attr("stroke-width", stroke_width) + _attr(
            "opacity", opacity if opacity < 1.0 else None
        )
        heads = [
            f'<circle cx="{x}" cy="{y}" r="{rr}"'
            + ("" if f is None else f' fill="{f}"')
            + ("" if s is None else f' stroke="{s}"')
            + tail
            for x, y, rr, f, s in zip(xs, ys, rs, fills, strokes)
        ]
        rows = [
            f"{head}/>" if title is None
            else f"{head}><title>{escape(title)}</title></circle>"
            for head, title in zip(heads, _per_row(titles, n))
        ]
        if labels is None:
            self._parts.extend(rows)
            return
        for row, label in zip(rows, labels):
            self._parts.append(row)
            if label is not None:
                self._parts.append(label)

    def polygon(
        self, points: list[tuple[float, float]],
        fill: str = "#000000", stroke: str | None = "#333333",
        stroke_width: float = 0.8, opacity: float = 1.0, title: str | None = None,
    ) -> None:
        """Append a polygon from (x, y) vertex pairs."""
        rendered = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points)
        self._element(
            "polygon",
            {
                "points": rendered, "fill": fill, "stroke": stroke,
                "stroke_width": stroke_width,
                "opacity": opacity if opacity < 1.0 else None,
            },
            title,
        )

    def line(
        self, x1: float, y1: float, x2: float, y2: float,
        stroke: str = "#333333", stroke_width: float = 1.0, dash: str | None = None,
    ) -> None:
        """Append a line segment."""
        self._element(
            "line",
            {
                "x1": _fmt(x1), "y1": _fmt(y1), "x2": _fmt(x2), "y2": _fmt(y2),
                "stroke": stroke, "stroke_width": stroke_width,
                "stroke_dasharray": dash,
            },
        )

    def text(
        self, x: float, y: float, content: str,
        size: int = 12, fill: str = "#222222", anchor: str = "start",
        weight: str | None = None, title: str | None = None,
    ) -> None:
        """Append a text element (sans-serif)."""
        self._element(
            "text",
            {
                "x": _fmt(x), "y": _fmt(y), "font_size": size, "fill": fill,
                "text_anchor": anchor, "font_weight": weight,
                "font_family": "sans-serif",
            },
            title,
            content,
        )

    @staticmethod
    def text_rows(
        x, y, contents, size: int = 12, fill: str = "#222222",
        anchor: str = "start", weight: str | None = None, titles=None,
    ) -> list[str]:
        """The ``<text>`` elements :meth:`text` would append, one per row.

        Rows are returned, not appended, so they can ride along with
        another element (see ``labels`` in :meth:`circles`).

        >>> doc = SvgDocument(40, 40, background=None)
        >>> doc.text(1.5, 2.0, "7 < 8", size=11, weight="bold", title="t & u")
        >>> SvgDocument.text_rows([1.5], [2.0], ["7 < 8"], size=11, weight="bold",
        ...                       titles=["t & u"]) == doc._parts
        True
        """
        xs, ys = _fmt_column(x), _fmt_column(y)
        style = (
            _attr("font-size", size) + _attr("fill", fill)
            + _attr("text-anchor", anchor) + _attr("font-weight", weight)
            + _attr("font-family", "sans-serif")
        )
        return [
            f'<text x="{tx}" y="{ty}"{style}>'
            + ("" if title is None else f"<title>{escape(title)}</title>")
            + f"{escape(content)}</text>"
            for tx, ty, content, title in zip(
                xs, ys, contents, _per_row(titles, len(xs))
            )
        ]

    # -- output ------------------------------------------------------------

    def render(self) -> str:
        """The complete SVG document as a string."""
        body = "\n".join(self._parts)
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'width="{self.width}" height="{self.height}" '
            f'viewBox="0 0 {self.width} {self.height}">\n{body}\n</svg>'
        )

    def save(self, path) -> None:
        """Write the document to *path*."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.render())
