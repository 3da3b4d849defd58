"""Differential oracles for the column-at-a-time map primitives.

The map builders draw their points through three batch kernels, and
each must give exactly what its per-row original gives:

* :meth:`SequentialScale.colors` against ``[scale.color(v) for v in values]``;
* :meth:`SvgDocument.circles` against one :meth:`SvgDocument.circle` per row,
  with labels against a :meth:`SvgDocument.text` after their circle;
* :meth:`SvgDocument.text_rows` against :meth:`SvgDocument.text`.

Values sit on lattices that hit the exact stop boundaries, channel values
ending in .5 (where ``round`` goes to the even neighbour) and the
two-decimal rounding edges of ``_fmt``; strings carry the characters
``escape`` rewrites.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dashboard.colors import ENERGY_RAMP, SequentialScale
from repro.dashboard.svg import SvgDocument

_NAN = float("nan")

#: Stops one or two channel steps apart put many channels on a .5 tie.
_STOPS = st.one_of(
    st.just(ENERGY_RAMP),
    st.just(("#000000", "#010101", "#030303")),
    st.lists(
        st.integers(0, 0xFFFFFF).map(lambda c: f"#{c:06x}"), min_size=2, max_size=4
    ).map(tuple),
)


@st.composite
def scales_and_values(draw):
    vmin = draw(st.integers(-4, 4).map(float))
    vmax = vmin + draw(st.sampled_from([0.0, 1.0, 3.0, 8.0]))
    lattice = st.integers(-40, 120).map(lambda k: vmin + (vmax - vmin + 1) * k / 80)
    value = st.one_of(
        lattice,
        st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from([_NAN, None, vmin, vmax]),
    )
    scale = SequentialScale(vmin, vmax, draw(_STOPS))
    return scale, draw(st.lists(value, max_size=40))


@settings(max_examples=400, deadline=None)
@given(scales_and_values())
@example((SequentialScale(0.0, 2.0, ("#000000", "#010101")), [0.0, 1.0, 2.0]))
@example((SequentialScale(5.0, 5.0), [5.0, -1.0, _NAN, None]))
@example((SequentialScale(0.0, 1.0), []))
def test_colors_equal_per_value_color(case):
    scale, values = case
    assert scale.colors(values) == [scale.color(v) for v in values]


_NUMBER = st.one_of(
    st.integers(-2000, 2000).map(lambda k: k / 1000),  # .xx5 rounding edges
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 0.005, 1.005, 2.675, -0.004, 1e20]),
)
_TEXT = st.text(alphabet="ab <>&\"'é7", max_size=6)
_COLOR = st.one_of(st.sampled_from(["#1a9850", "none", "red&<>"]), _TEXT)


@st.composite
def circle_columns(draw):
    n = draw(st.integers(0, 12))

    def column(values):
        return draw(st.lists(values, min_size=n, max_size=n))

    def scalar_or_column(values):
        return draw(st.one_of(values, st.lists(values, min_size=n, max_size=n)))

    return dict(
        cx=column(_NUMBER),
        cy=column(_NUMBER),
        r=scalar_or_column(_NUMBER),
        fill=scalar_or_column(_COLOR),
        stroke=scalar_or_column(st.one_of(st.none(), _COLOR)),
        stroke_width=draw(st.sampled_from([0.5, 2.0, 0.4, None])),
        opacity=draw(st.sampled_from([1.0, 0.92, 0.85, 1.5])),
        titles=draw(st.one_of(st.none(), st.just(column(st.one_of(st.none(), _TEXT))))),
        labels=draw(st.one_of(st.none(), st.just(column(st.one_of(st.none(), _TEXT))))),
    )


def _row(value, i):
    return value if value is None or isinstance(value, (str, float)) else value[i]


@settings(max_examples=400, deadline=None)
@given(circle_columns())
@example(dict(cx=[0.005, -0.004], cy=[1.0, _NAN], r=2.6, fill=["a&b", "#fff"],
              stroke=None, stroke_width=0.5, opacity=0.85, titles=["<", None],
              labels=["7", None]))
def test_circles_equal_per_row_circles(columns):
    labels = columns.pop("labels")
    titles = columns["titles"]
    style = dict(size=11, anchor="middle", fill="#1c2733", weight="bold")
    label_rows = None
    if labels is not None:
        texts = SvgDocument.text_rows(
            columns["cx"], columns["cy"], [label or "" for label in labels],
            titles=titles, **style,
        )
        label_rows = [row if label is not None else None for label, row in zip(labels, texts)]
    batch = SvgDocument(50, 50, background=None)
    batch.circles(**columns, labels=label_rows)

    single = SvgDocument(50, 50, background=None)
    for i, (x, y) in enumerate(zip(columns["cx"], columns["cy"])):
        title = None if titles is None else titles[i]
        single.circle(
            x, y, _row(columns["r"], i), fill=_row(columns["fill"], i),
            stroke=_row(columns["stroke"], i), stroke_width=columns["stroke_width"],
            opacity=columns["opacity"], title=title,
        )
        if labels is not None and labels[i] is not None:
            single.text(x, y, labels[i], title=title, **style)
    assert batch.render() == single.render()


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(_NUMBER, _NUMBER, _TEXT, st.one_of(st.none(), _TEXT)), max_size=10
    ),
    st.sampled_from([10, 11, 12]),
    st.one_of(st.none(), st.just("bold")),
)
def test_text_rows_equal_per_row_text(rows, size, weight):
    doc = SvgDocument(50, 50, background=None)
    for x, y, content, title in rows:
        doc.text(x, y, content, size=size, anchor="end", weight=weight, title=title)
    xs, ys, contents, titles = map(list, zip(*rows)) if rows else ([],) * 4
    got = SvgDocument.text_rows(
        np.array(xs, dtype=np.float64), np.array(ys, dtype=np.float64), contents,
        size=size, anchor="end", weight=weight, titles=titles,
    )
    assert got == doc._parts
