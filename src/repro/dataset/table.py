"""A lightweight typed columnar table.

INDICE processes collections of Energy Performance Certificates that mix
quantitative, categorical and free-text attributes.  The original system was
built on top of a dataframe library; this module provides the minimal
columnar substrate the rest of the framework needs, implemented on NumPy:

* three column kinds (:class:`ColumnKind`): ``NUMERIC`` (float64, ``NaN`` for
  missing), ``CATEGORICAL`` (small closed vocabularies) and ``TEXT`` (free
  strings such as addresses),
* immutable-style operations (every transformation returns a new
  :class:`Table` sharing column buffers where safe),
* selection, boolean filtering, row take, group-by, sort, and a hash join.

The table is deliberately small: it implements exactly the operations INDICE
uses, with predictable semantics, rather than a general dataframe.
"""

from __future__ import annotations

import enum
import operator
from collections.abc import Iterable, Mapping, Sequence
from typing import Any, Callable

import numpy as np

__all__ = ["ColumnKind", "Column", "Table", "TableError"]


class TableError(Exception):
    """Raised for malformed table operations (unknown column, shape mismatch)."""


class ColumnKind(enum.Enum):
    """The three attribute kinds found in an EPC collection."""

    NUMERIC = "numeric"
    CATEGORICAL = "categorical"
    TEXT = "text"


#: Sentinel used for a missing categorical / text value.
MISSING = None


def _shared_strings(values: Iterable[Any]) -> np.ndarray:
    """An ``object`` array of ``str(v)`` per value (``None`` stays ``None``)
    holding **one** ``str`` object per distinct value.

    A 5-value categorical column of 8000 rows then holds 5 strings and
    8000 references to them, not 8000 strings.  The memo is local to the
    call: nothing outlives the column, and a cell's identity carries no
    meaning beyond its value.
    """
    shared = {}.setdefault  # first occurrence of each value is kept
    return np.asarray(
        [None if v is None else shared(s := str(v), s) for v in values],
        dtype=object,
    )


class Column:
    """A single named, typed column.

    Numeric columns are stored as ``float64`` arrays where ``NaN`` marks a
    missing value.  Categorical and text columns are stored as ``object``
    arrays of ``str`` where ``None`` marks a missing value; the
    :meth:`categorical` / :meth:`text` constructors store each distinct
    value once and share it between its cells.  Cells are immutable, so
    sharing is invisible: compare cells by value, never by identity.
    """

    __slots__ = ("name", "kind", "values")

    def __init__(self, name: str, kind: ColumnKind, values: np.ndarray):
        self.name = name
        self.kind = kind
        self.values = values

    # -- constructors -----------------------------------------------------

    @classmethod
    def numeric(cls, name: str, values: Iterable[Any]) -> "Column":
        """Build a numeric column; ``None`` becomes ``NaN``."""
        arr = np.asarray(
            [np.nan if v is None else float(v) for v in values], dtype=np.float64
        )
        return cls(name, ColumnKind.NUMERIC, arr)

    @classmethod
    def categorical(cls, name: str, values: Iterable[Any]) -> "Column":
        """Build a categorical column of strings; ``None`` stays missing.

        Equal cells share one ``str`` object (see :func:`_shared_strings`).
        """
        return cls(name, ColumnKind.CATEGORICAL, _shared_strings(values))

    @classmethod
    def text(cls, name: str, values: Iterable[Any]) -> "Column":
        """Build a free-text column of strings; ``None`` stays missing.

        Equal cells share one ``str`` object (see :func:`_shared_strings`).
        """
        return cls(name, ColumnKind.TEXT, _shared_strings(values))

    @classmethod
    def from_kind(cls, name: str, kind: ColumnKind, values: Iterable[Any]) -> "Column":
        """Build a column of the given *kind* from raw values."""
        if kind is ColumnKind.NUMERIC:
            return cls.numeric(name, values)
        if kind is ColumnKind.CATEGORICAL:
            return cls.categorical(name, values)
        return cls.text(name, values)

    # -- basic protocol ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Column):
            return NotImplemented
        if self.name != other.name or self.kind != other.kind:
            return False
        if self.kind is ColumnKind.NUMERIC:
            a, b = self.values, other.values
            if a.shape != b.shape:
                return False
            both_nan = np.isnan(a) & np.isnan(b)
            return bool(np.all(both_nan | (a == b)))
        return bool(np.array_equal(self.values, other.values))

    def __hash__(self):  # columns are mutable containers
        raise TypeError("Column is unhashable")

    def is_missing(self) -> np.ndarray:
        """Boolean mask of missing entries."""
        if self.kind is ColumnKind.NUMERIC:
            return np.isnan(self.values)
        # element-wise identity against the None singleton; NumPy broadcasts
        # this over object arrays without a per-row Python comprehension
        return np.asarray(self.values == None, dtype=bool)  # noqa: E711

    def non_missing(self) -> np.ndarray:
        """The values with missing entries removed.

        When nothing is missing this returns the column's own buffer
        (treat it as read-only); otherwise a boolean-masked copy.
        """
        mask = self.is_missing()
        if not mask.any():
            return self.values
        return self.values[~mask]

    def take(self, indices: np.ndarray) -> "Column":
        """A new column with rows reordered / subset by *indices*."""
        return Column(self.name, self.kind, self.values[indices])

    def renamed(self, name: str) -> "Column":
        """The same column under a different *name* (shares the buffer)."""
        return Column(name, self.kind, self.values)

    def unique(self) -> list:
        """Sorted distinct non-missing values."""
        vals = self.non_missing()
        if self.kind is ColumnKind.NUMERIC:
            return sorted(set(float(v) for v in vals))
        return sorted(set(vals))


class Table:
    """An ordered collection of equally-long named :class:`Column` objects."""

    def __init__(self, columns: Sequence[Column]):
        names = [c.name for c in columns]
        if len(set(names)) != len(names):
            raise TableError(f"duplicate column names: {names}")
        lengths = {len(c) for c in columns}
        if len(lengths) > 1:
            raise TableError(f"columns have differing lengths: {sorted(lengths)}")
        self._columns: dict[str, Column] = {c.name: c for c in columns}
        self._n_rows = lengths.pop() if lengths else 0

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_columns(
        cls, data: Mapping[str, Iterable[Any]], kinds: Mapping[str, ColumnKind]
    ) -> "Table":
        """Build a table from ``{name: values}`` plus ``{name: kind}``."""
        missing_kinds = set(data) - set(kinds)
        if missing_kinds:
            raise TableError(f"no kind given for columns: {sorted(missing_kinds)}")
        cols = [Column.from_kind(name, kinds[name], vals) for name, vals in data.items()]
        return cls(cols)

    @classmethod
    def from_rows(
        cls,
        rows: Sequence[Mapping[str, Any]],
        kinds: Mapping[str, ColumnKind],
        column_order: Sequence[str] | None = None,
    ) -> "Table":
        """Build a table from a list of row dictionaries.

        Missing keys become missing values.  ``column_order`` fixes the
        column order; by default the order of ``kinds`` is used.
        """
        order = list(column_order) if column_order is not None else list(kinds)
        if not order:
            return cls.from_columns({}, kinds)
        try:
            # fast path: one itemgetter pass per row transposes all columns
            # at once instead of one full `row.get` scan per column
            getter = operator.itemgetter(*order)
            if len(order) == 1:
                columns = ([getter(row) for row in rows],)
            else:
                columns = tuple(zip(*(getter(row) for row in rows)))
                if not columns:
                    columns = tuple([] for __ in order)
        except KeyError:
            # some row lacks a key: fall back to get() so it becomes missing
            columns = tuple(
                [row.get(name) for row in rows] for name in order
            )
        data = dict(zip(order, columns))
        return cls.from_columns(data, kinds)

    @classmethod
    def empty(cls) -> "Table":
        """A table with no columns and no rows."""
        return cls([])

    # -- introspection -----------------------------------------------------

    @property
    def n_rows(self) -> int:
        """Number of rows."""
        return self._n_rows

    @property
    def n_columns(self) -> int:
        """Number of columns."""
        return len(self._columns)

    @property
    def column_names(self) -> list[str]:
        """Column names in table order."""
        return list(self._columns)

    def __len__(self) -> int:
        return self._n_rows

    def __eq__(self, other: object) -> bool:
        """Structural equality: same columns in the same order, same values
        (NaN-aware for numeric columns, via :meth:`Column.__eq__`)."""
        if not isinstance(other, Table):
            return NotImplemented
        if self.column_names != other.column_names:
            return False
        return all(
            self._columns[name] == other._columns[name]
            for name in self._columns
        )

    __hash__ = None  # tables are mutable containers

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    def __repr__(self) -> str:
        return f"Table({self.n_rows} rows x {self.n_columns} columns)"

    def column(self, name: str) -> Column:
        """The column object named *name*."""
        try:
            return self._columns[name]
        except KeyError:
            raise TableError(f"unknown column {name!r}") from None

    def __getitem__(self, name: str) -> np.ndarray:
        """The raw value array of column *name*."""
        return self.column(name).values

    def kind(self, name: str) -> ColumnKind:
        """The :class:`ColumnKind` of column *name*."""
        return self.column(name).kind

    def numeric_columns(self) -> list[str]:
        """Names of all numeric columns, in table order."""
        return [n for n, c in self._columns.items() if c.kind is ColumnKind.NUMERIC]

    def categorical_columns(self) -> list[str]:
        """Names of all categorical columns, in table order."""
        return [n for n, c in self._columns.items() if c.kind is ColumnKind.CATEGORICAL]

    def text_columns(self) -> list[str]:
        """Names of all text columns, in table order."""
        return [n for n, c in self._columns.items() if c.kind is ColumnKind.TEXT]

    def row(self, index: int) -> dict[str, Any]:
        """Row *index* as a plain dict (NaN / None for missing)."""
        if not -self._n_rows <= index < self._n_rows:
            raise TableError(f"row index {index} out of range for {self._n_rows} rows")
        return {name: col.values[index] for name, col in self._columns.items()}

    def to_rows(self) -> list[dict[str, Any]]:
        """All rows as dicts (useful for small results and tests)."""
        return [self.row(i) for i in range(self._n_rows)]

    # -- column-level transformations ---------------------------------------

    def select(self, names: Sequence[str]) -> "Table":
        """A table with only *names*, in the given order."""
        return Table([self.column(n) for n in names])

    def drop(self, names: Sequence[str]) -> "Table":
        """A table without the columns in *names*."""
        doomed = set(names)
        unknown = doomed - set(self._columns)
        if unknown:
            raise TableError(f"unknown columns {sorted(unknown)}")
        return Table([c for n, c in self._columns.items() if n not in doomed])

    def with_column(self, column: Column) -> "Table":
        """A table with *column* appended (or replaced, if the name exists)."""
        if len(column) != self._n_rows and self.n_columns > 0:
            raise TableError(
                f"column {column.name!r} has {len(column)} rows, table has {self._n_rows}"
            )
        cols = [c for n, c in self._columns.items() if n != column.name]
        cols.append(column)
        return Table(cols)

    def rename(self, mapping: Mapping[str, str]) -> "Table":
        """A table with columns renamed via ``{old: new}``."""
        cols = [
            c.renamed(mapping.get(n, n)) for n, c in self._columns.items()
        ]
        return Table(cols)

    # -- row-level transformations ------------------------------------------

    def where(self, mask: np.ndarray) -> "Table":
        """Rows where the boolean *mask* holds."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self._n_rows,):
            raise TableError(
                f"mask has shape {mask.shape}, expected ({self._n_rows},)"
            )
        return self.take(np.flatnonzero(mask))

    def take(self, indices: np.ndarray) -> "Table":
        """Rows reordered / subset by integer *indices*."""
        indices = np.asarray(indices, dtype=np.intp)
        return Table([c.take(indices) for c in self._columns.values()])

    def head(self, n: int) -> "Table":
        """The first *n* rows."""
        return self.take(np.arange(min(n, self._n_rows)))

    def sort_by(self, name: str, descending: bool = False) -> "Table":
        """Rows sorted by column *name* (missing values last)."""
        col = self.column(name)
        missing = col.is_missing()
        if col.kind is ColumnKind.NUMERIC:
            keys = col.values.copy()
            keys[missing] = np.inf if not descending else -np.inf
            order = np.argsort(keys, kind="stable")
        else:
            decorated = [
                (v is None, "" if v is None else v) for v in col.values
            ]
            order = np.asarray(
                sorted(range(self._n_rows), key=lambda i: decorated[i]), dtype=np.intp
            )
        if descending:
            # keep missing-last even when descending
            present = order[~missing[order]][::-1]
            absent = order[missing[order]]
            order = np.concatenate([present, absent])
        return self.take(order)

    def drop_missing(self, names: Sequence[str] | None = None) -> "Table":
        """Rows that are fully present in *names* (default: all columns)."""
        names = list(names) if names is not None else self.column_names
        keep = np.ones(self._n_rows, dtype=bool)
        for n in names:
            keep &= ~self.column(n).is_missing()
        return self.where(keep)

    # -- grouping and joining -----------------------------------------------

    def group_by(self, name: str) -> dict[Any, "Table"]:
        """Partition rows by the value of column *name*.

        Missing values are grouped under ``None``.  Group keys preserve the
        column's value type (float for numeric, str otherwise).
        """
        col = self.column(name)
        groups: dict[Any, list[int]] = {}
        if col.kind is ColumnKind.NUMERIC:
            keys = [None if np.isnan(v) else float(v) for v in col.values]
        else:
            keys = list(col.values)
        for i, key in enumerate(keys):
            groups.setdefault(key, []).append(i)
        return {
            key: self.take(np.asarray(idx, dtype=np.intp))
            for key, idx in groups.items()
        }

    def group_indices(self, name: str) -> dict[Any, np.ndarray]:
        """Like :meth:`group_by` but returning row indices per key."""
        col = self.column(name)
        groups: dict[Any, list[int]] = {}
        if col.kind is ColumnKind.NUMERIC:
            keys = [None if np.isnan(v) else float(v) for v in col.values]
        else:
            keys = list(col.values)
        for i, key in enumerate(keys):
            groups.setdefault(key, []).append(i)
        return {k: np.asarray(v, dtype=np.intp) for k, v in groups.items()}

    def join(self, other: "Table", on: str, how: str = "inner") -> "Table":
        """Hash join with *other* on the shared key column *on*.

        Supports ``how='inner'`` and ``how='left'``.  Columns of *other*
        (except the key) that clash with this table's names get a ``_right``
        suffix.  For a left join, unmatched right columns are missing.
        """
        if how not in ("inner", "left"):
            raise TableError(f"unsupported join type {how!r}")
        right_key = other.column(on)
        index: dict[Any, list[int]] = {}
        for j, v in enumerate(right_key.values):
            if v is None or (right_key.kind is ColumnKind.NUMERIC and np.isnan(v)):
                continue
            index.setdefault(v, []).append(j)

        left_key = self.column(on)
        left_rows: list[int] = []
        right_rows: list[int | None] = []
        for i, v in enumerate(left_key.values):
            matches = index.get(v, [])
            if matches:
                for j in matches:
                    left_rows.append(i)
                    right_rows.append(j)
            elif how == "left":
                left_rows.append(i)
                right_rows.append(None)

        left_idx = np.asarray(left_rows, dtype=np.intp)
        out_cols = [c.take(left_idx) for c in self._columns.values()]
        taken_names = {c.name for c in out_cols}
        for name, col in other._columns.items():
            if name == on:
                continue
            out_name = name if name not in taken_names else f"{name}_right"
            values = [
                None if j is None else col.values[j] for j in right_rows
            ]
            out_cols.append(Column.from_kind(out_name, col.kind, values))
        return Table(out_cols)

    # -- aggregation helpers --------------------------------------------------

    def aggregate(
        self, by: str, name: str, func: Callable[[np.ndarray], float]
    ) -> dict[Any, float]:
        """Apply *func* to the non-missing values of *name* within each
        group of *by*.  Empty groups map to ``nan``."""
        col = self.column(name)
        if col.kind is not ColumnKind.NUMERIC:
            raise TableError(f"aggregate expects a numeric column, got {name!r}")
        out: dict[Any, float] = {}
        for key, idx in self.group_indices(by).items():
            vals = col.values[idx]
            vals = vals[~np.isnan(vals)]
            out[key] = float(func(vals)) if len(vals) else float("nan")
        return out

    def vstack(self, other: "Table") -> "Table":
        """Concatenate rows of two tables with identical schemas."""
        if self.column_names != other.column_names:
            raise TableError("vstack requires identical column names and order")
        cols = []
        for name in self.column_names:
            a, b = self.column(name), other.column(name)
            if a.kind is not b.kind:
                raise TableError(f"column {name!r} kind mismatch in vstack")
            cols.append(Column(name, a.kind, np.concatenate([a.values, b.values])))
        return Table(cols)

    # -- numeric matrix view ----------------------------------------------------

    def to_matrix(self, names: Sequence[str]) -> np.ndarray:
        """The numeric columns *names* stacked into an ``(n_rows, k)`` float
        matrix (missing values stay ``NaN``)."""
        arrays = []
        for n in names:
            col = self.column(n)
            if col.kind is not ColumnKind.NUMERIC:
                raise TableError(f"to_matrix expects numeric columns, got {n!r}")
            arrays.append(col.values)
        if not arrays:
            return np.empty((self._n_rows, 0), dtype=np.float64)
        return np.column_stack(arrays)
