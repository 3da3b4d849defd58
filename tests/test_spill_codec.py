"""Round-trip oracle for the columnar spill codec.

``write_spill`` encodes a :class:`~repro.dataset.table.Table` column by
column (``repro.perf.spill.encode_table``) and ``SpillFile`` decodes it;
the sharded pipeline's merge trusts that the two are exact inverses.
Three layers pin that:

* **cases** — mixed kinds, ``NaN``, ``None`` vs ``""``, categorical
  vocabulary order and the empty table, each read back whole and as a
  column projection;
* **seeded sweep** — random sizes, missingness and alphabets, plus the
  empty, all-missing and non-ASCII shapes;
* **property** — hypothesis tables over ``NaN``, ``±inf`` and ``-0.0``,
  ``None`` vs ``""``, non-ASCII text and lone surrogates, repeated
  categories, and empty, single-row and all-missing tables.  Numeric
  columns are compared bit for bit, since ``Column.__eq__`` cannot tell
  ``-0.0`` from ``0.0``.

``TestLayout`` pins the payload bytes themselves, so a layout change
cannot hide behind a codec that still round-trips.
"""

import hashlib
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataset.table import Column, ColumnKind, Table
from repro.perf.spill import SpillFile, encode_table, write_spill


def _round_trip(table: Table, directory: Path, names=None) -> tuple[Table, Table]:
    """``(whole, projection)`` read back from a spill of *table*."""
    path = Path(directory) / "table.spill"
    write_spill(table, path)
    with SpillFile.open(path) as spill:
        whole = spill.to_table()
        part = spill.to_table(names if names is not None else table.column_names)
    return whole, part


def _assert_identical(back: Table, table: Table) -> None:
    """``Table.__eq__`` plus bitwise numeric equality (sign of zero, NaN
    payloads)."""
    assert back == table
    for name in table.numeric_columns():
        assert back[name].tobytes() == table[name].tobytes(), name


def _mixed_table() -> Table:
    return Table(
        [
            Column.numeric("x", [1.5, float("nan"), -0.0, None, 1e300]),
            Column.categorical("c", ["A", None, "B", "A", "B"]),
            Column.text(
                "s", ["via Pietro Giuria", "", None, "caffè", "niño 日本"]
            ),
        ]
    )


_SWEEP_CASES = [*range(5), "empty", "all-missing", "non-ascii"]


def _sweep_table(case, rng) -> Table:
    """A random table of one sweep case: random sizes, missingness and
    alphabets, or the empty, all-missing and non-ASCII shapes."""
    n = 0 if case == "empty" else int(rng.integers(0, 200))
    missing = 1.0 if case == "all-missing" else 0.25
    numeric = rng.normal(size=n)
    numeric[rng.random(n) < (1.0 if case == "all-missing" else 0.2)] = np.nan
    alphabet = (
        ["日本橋", "niño Ørsted", "caffè ☕", "e\u0301", "𝔘𝔫𝔦"]
        if case == "non-ascii"
        else ["corso Dante", "via Pò", "strada häuser", "", "B&B"]
    )
    cat = [
        None if rng.random() < missing else alphabet[rng.integers(0, 3)]
        for _ in range(n)
    ]
    text = [
        None if rng.random() < missing else alphabet[rng.integers(0, 5)]
        for _ in range(n)
    ]
    return Table(
        [
            Column.numeric("x", numeric),
            Column.categorical("c", cat),
            Column.text("s", text),
        ]
    )


class TestRoundTrip:
    def test_mixed_table_identical(self, tmp_path):
        table = _mixed_table()
        back, part = _round_trip(table, tmp_path, ["s", "x"])
        _assert_identical(back, table)
        assert part == table.select(["s", "x"])

    def test_numeric_nan_preserved(self, tmp_path):
        table = Table([Column.numeric("x", [float("nan")] * 3 + [2.0])])
        back, _ = _round_trip(table, tmp_path)
        assert np.isnan(back["x"][:3]).all()
        assert back["x"][3] == 2.0

    def test_text_none_distinct_from_empty_string(self, tmp_path):
        table = Table([Column.text("s", ["", None, "", None])])
        back, _ = _round_trip(table, tmp_path)
        assert list(back["s"]) == ["", None, "", None]

    def test_categorical_none_and_vocab_order(self, tmp_path):
        table = Table([Column.categorical("c", [None, "B", "A", "B", None])])
        back, _ = _round_trip(table, tmp_path)
        assert list(back["c"]) == [None, "B", "A", "B", None]

    def test_empty_table(self, tmp_path):
        table = Table(
            [
                Column.numeric("x", []),
                Column.categorical("c", []),
                Column.text("s", []),
            ]
        )
        back, _ = _round_trip(table, tmp_path)
        assert back == table
        assert back.n_rows == 0
        assert back.column_names == ["x", "c", "s"]

    @pytest.mark.parametrize("case", _SWEEP_CASES, ids=str)
    def test_randomized_tables_round_trip(self, case, tmp_path):
        # seeded sweep: a whole read, and a projection in another order
        rng = np.random.default_rng(case if isinstance(case, int) else 0)
        table = _sweep_table(case, rng)
        back, part = _round_trip(table, tmp_path, ["s", "x"])
        assert back == table
        assert part == table.select(["s", "x"])


# ---------------------------------------------------------------------------
# Property: every table the codec can meet
# ---------------------------------------------------------------------------

_FLOATS = st.one_of(
    st.sampled_from(
        [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, None]
    ),
    st.floats(allow_nan=True, allow_infinity=True),
)

#: Any code point, lone surrogates included (``st.text`` leaves them out).
_STRINGS = st.text(
    alphabet=st.one_of(
        st.characters(),
        st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF),
    ),
    max_size=8,
)


@st.composite
def _tables(draw) -> Table:
    """A table of 0–4 columns of any kind; 0–12 rows (often 0 or 1),
    sometimes every cell missing, categories drawn from a small pool so
    they repeat."""
    n_rows = draw(st.one_of(st.sampled_from([0, 1]), st.integers(0, 12)))
    all_missing = draw(st.booleans())
    columns = []
    for i, kind in enumerate(draw(st.lists(st.sampled_from(ColumnKind), max_size=4))):
        if kind is ColumnKind.NUMERIC:
            cell = _FLOATS
        elif kind is ColumnKind.CATEGORICAL:
            cell = st.sampled_from(draw(st.lists(_STRINGS, min_size=1, max_size=3)))
        else:
            cell = _STRINGS
        cell = st.none() if all_missing else st.one_of(st.none(), cell)
        values = draw(st.lists(cell, min_size=n_rows, max_size=n_rows))
        columns.append(Column.from_kind(f"c{i}", kind, values))
    return Table(columns)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), table=_tables())
def test_spill_round_trip_property(data, table):
    names = data.draw(st.permutations(table.column_names))
    names = names[: data.draw(st.integers(0, len(names)))]
    with tempfile.TemporaryDirectory() as directory:
        back, part = _round_trip(table, directory, names)
    _assert_identical(back, table)
    _assert_identical(part, table.select(names))


class TestLayout:
    """The payload bytes of a fixed table: a layout change fails here even
    when the codec still round-trips."""

    def test_payload_digest_is_pinned(self):
        specs, buffers, total = encode_table(_mixed_table())
        payload = b"".join(buffers)
        assert total == len(payload) == 174
        assert [(s.name, s.kind) for s in specs] == [
            ("x", ColumnKind.NUMERIC),
            ("c", ColumnKind.CATEGORICAL),
            ("s", ColumnKind.TEXT),
        ]
        assert hashlib.sha256(payload).hexdigest() == (
            "a2cefd80e355a635a0bfcf4df25499c34bdb3ffbf0a4552a4345cdca2a657156"
        )

    def test_vocabulary_is_in_first_appearance_order(self):
        specs, buffers, _ = encode_table(
            Table([Column.categorical("c", ["B", None, "A", "B"])])
        )
        codes, offsets, blob = buffers
        assert np.frombuffer(codes, dtype=np.int32).tolist() == [0, -1, 1, 0]
        assert np.frombuffer(offsets, dtype=np.int64).tolist() == [0, 1, 2]
        assert blob == b"BA"
