"""Columnar shared-memory interchange for the parallel tier.

``ParallelMap.map`` ships every chunk as pickled Python objects: for an
8000-certificate cleaning pass that is megabytes of per-row strings
serialized in the parent, copied through a pipe, and deserialized in each
worker — the serialization tax behind the 2-worker scaling plateau that
A9 measured.  This module replaces the pickle payload with **one**
shared-memory block holding the table in columnar form; workers receive
only a bytes-sized :class:`TableSlice` descriptor ``(shm_name, col_specs,
row_range)`` and decode their row range straight out of the block.

Buffer layout (all parts packed back to back in one block):

* ``NUMERIC`` — the raw little-endian ``float64`` buffer (``NaN`` is
  preserved bit-for-bit, so missing values survive the round trip);
* ``CATEGORICAL`` — dictionary encoding: an ``int32`` code per row
  (``-1`` = missing) plus the vocabulary as ``int64`` offsets into one
  UTF-8 blob.  EPC vocabularies are tiny (energy classes, yes/no flags),
  so the dictionary collapses thousands of repeated strings into a
  4-byte code each — the reason categorical columns ship ~10x smaller
  than their pickled form;
* ``TEXT`` — ``int64`` offsets into a UTF-8 blob plus a ``uint8``
  validity byte per row (``0`` = missing), which keeps ``None``
  distinguishable from the empty string.

Lifecycle (structural): the **creator** owns the segment and can use
it only inside ``with SharedTable.create(table) as shared:`` —
:meth:`SharedTable.descriptor` raises before the block is entered and
after it exits, and ``__exit__`` is the only release (close + unlink).
An **attacher** copies its slice out and closes immediately
(:func:`attach_slice` does both).  Workers never unlink: the parent's
``with`` is the single point that releases the name, so a crashed
worker can never orphan a segment.

Round trip is deterministic and exact: ``decode(encode(column)) ==
column`` under :meth:`Column.__eq__` for every kind, including ``NaN``,
``None`` and non-ASCII street names.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from ..dataset.table import Column, ColumnKind, Table

__all__ = [
    "ColumnSpec",
    "TableSlice",
    "SharedTable",
    "attach_slice",
    "encode_table",
]

#: Part labels used in :class:`ColumnSpec.parts`.
_F8 = "f8"                # raw float64 values
_CODES = "codes"          # int32 dictionary codes (-1 = missing)
_VOCAB_OFFSETS = "vocab_offsets"  # int64 offsets into the vocab blob
_VOCAB_BLOB = "vocab_blob"        # UTF-8 vocabulary strings
_OFFSETS = "offsets"      # int64 offsets into the text blob (n_rows + 1)
_BLOB = "blob"            # UTF-8 text bytes
_VALIDITY = "validity"    # uint8 per row (0 = missing)


@dataclass(frozen=True)
class ColumnSpec:
    """Where one encoded column lives inside the shared block.

    ``parts`` maps a part label to its ``(byte_offset, byte_length)``
    window; the spec itself is a few dozen bytes when pickled, which is
    the whole point — it replaces the pickled column as IPC payload.
    """

    name: str
    kind: ColumnKind
    parts: tuple[tuple[str, int, int], ...]

    def window(self, label: str) -> tuple[int, int]:
        """The ``(offset, length)`` of part *label*."""
        for part, offset, length in self.parts:
            if part == label:
                return offset, length
        raise KeyError(f"column {self.name!r} has no part {label!r}")


@dataclass(frozen=True)
class TableSlice:
    """A picklable descriptor of a row range inside a shared block."""

    shm_name: str
    col_specs: tuple[ColumnSpec, ...]
    n_rows: int
    row_range: tuple[int, int]


def _encode_utf8(values) -> list[bytes]:
    """UTF-8 bytes per value (missing encodes as empty; validity is
    tracked separately so ``None`` and ``""`` stay distinct)."""
    return [
        b"" if v is None else str(v).encode("utf-8", "surrogatepass")
        for v in values
    ]


def _pack_offsets(encoded: list[bytes]) -> np.ndarray:
    """Cumulative ``int64`` offsets (length ``len(encoded) + 1``)."""
    offsets = np.zeros(len(encoded) + 1, dtype=np.int64)
    np.cumsum([len(b) for b in encoded], out=offsets[1:])
    return offsets


def _column_parts(column: Column) -> list[tuple[str, bytes]]:
    """The raw buffer parts of one column, in spec order."""
    if column.kind is ColumnKind.NUMERIC:
        arr = np.ascontiguousarray(column.values, dtype="<f8")
        return [(_F8, arr.tobytes())]
    values = column.values
    if column.kind is ColumnKind.CATEGORICAL:
        # first-appearance order keeps the dictionary deterministic
        vocab = list(dict.fromkeys(v for v in values if v is not None))
        code_of = {v: i for i, v in enumerate(vocab)}
        codes = np.fromiter(
            (-1 if v is None else code_of[v] for v in values),
            dtype=np.int32, count=len(values),
        )
        vocab_bytes = _encode_utf8(vocab)
        return [
            (_CODES, codes.tobytes()),
            (_VOCAB_OFFSETS, _pack_offsets(vocab_bytes).tobytes()),
            (_VOCAB_BLOB, b"".join(vocab_bytes)),
        ]
    encoded = _encode_utf8(values)
    validity = np.fromiter(
        (0 if v is None else 1 for v in values), dtype=np.uint8, count=len(values)
    )
    return [
        (_OFFSETS, _pack_offsets(encoded).tobytes()),
        (_BLOB, b"".join(encoded)),
        (_VALIDITY, validity.tobytes()),
    ]


def _decode_column(
    spec: ColumnSpec, buf: memoryview, lo: int, hi: int
) -> Column:
    """Decode rows ``[lo, hi)`` of one column, copying out of *buf*."""

    def part(label: str, dtype) -> np.ndarray:
        offset, length = spec.window(label)
        return np.frombuffer(buf, dtype=dtype, offset=offset,
                             count=length // np.dtype(dtype).itemsize)

    if spec.kind is ColumnKind.NUMERIC:
        return Column(spec.name, spec.kind, part(_F8, "<f8")[lo:hi].copy())
    if spec.kind is ColumnKind.CATEGORICAL:
        codes = part(_CODES, np.int32)[lo:hi]
        vocab_offsets = part(_VOCAB_OFFSETS, np.int64)
        blob_lo, blob_len = spec.window(_VOCAB_BLOB)
        blob = bytes(buf[blob_lo : blob_lo + blob_len])
        vocab = [
            blob[vocab_offsets[i] : vocab_offsets[i + 1]].decode(
                "utf-8", "surrogatepass"
            )
            for i in range(len(vocab_offsets) - 1)
        ]
        lookup = np.array([*vocab, None], dtype=object)  # code -1 -> None
        out = lookup[codes] if len(codes) else np.array([], dtype=object)
        return Column(spec.name, spec.kind, out)
    offsets = part(_OFFSETS, np.int64)
    validity = part(_VALIDITY, np.uint8)
    blob_lo, blob_len = spec.window(_BLOB)
    blob = bytes(buf[blob_lo : blob_lo + blob_len])
    # through the constructor, so equal cells decode to one shared string
    return Column.text(
        spec.name,
        (
            blob[offsets[i] : offsets[i + 1]].decode("utf-8", "surrogatepass")
            if validity[i]
            else None
            for i in range(lo, hi)
        ),
    )


def encode_table(
    table: Table,
) -> tuple[tuple[ColumnSpec, ...], list[bytes], int]:
    """Encode *table* into its columnar wire form.

    Returns ``(specs, buffers, total_bytes)``: one :class:`ColumnSpec` per
    column, the raw part buffers in offset order (concatenating them
    yields the payload the specs' windows index into), and the payload
    size.  This is the single layout used by both transports — the
    shared-memory block (:class:`SharedTable`) and the on-disk spill file
    (:mod:`repro.perf.spill`) — so a table spilled by one and decoded by
    the other round-trips exactly.
    """
    buffers: list[bytes] = []
    spec_parts: list[list[tuple[str, int, int]]] = []
    cursor = 0
    for name in table.column_names:
        column = table.column(name)
        windows: list[tuple[str, int, int]] = []
        for label, raw in _column_parts(column):
            windows.append((label, cursor, len(raw)))
            buffers.append(raw)
            cursor += len(raw)
        spec_parts.append(windows)
    specs = tuple(
        ColumnSpec(name, table.kind(name), tuple(windows))
        for name, windows in zip(table.column_names, spec_parts)
    )
    return specs, buffers, cursor


class SharedTable:
    """A :class:`Table` encoded into one owned shared-memory block.

    :meth:`create` allocates and fills the segment; the instance is then
    usable only inside a ``with`` block.  :meth:`descriptor` and
    :attr:`name` raise :class:`RuntimeError` before ``__enter__`` and
    after ``__exit__``, and ``__exit__`` — the only release — closes and
    unlinks the segment, after every worker holding a descriptor has
    finished.
    """

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        specs: tuple[ColumnSpec, ...],
        n_rows: int,
        nbytes: int,
    ):
        self._shm: shared_memory.SharedMemory | None = shm
        self._entered = False
        self.specs = specs
        self.n_rows = n_rows
        #: Total encoded payload size (the block may be 1 byte larger for
        #: an empty table: shared memory cannot be zero-sized).
        self.nbytes = nbytes

    def _segment(self) -> shared_memory.SharedMemory:
        """The live segment; raises outside the ``with`` block."""
        if not self._entered or self._shm is None:
            raise RuntimeError(
                "SharedTable is usable only inside its `with` block"
            )
        return self._shm

    @property
    def name(self) -> str:
        """The segment name workers attach to."""
        return self._segment().name

    @classmethod
    def create(cls, table: Table) -> "SharedTable":
        """Encode *table* into a fresh shared-memory block."""
        specs, buffers, cursor = encode_table(table)
        shm = shared_memory.SharedMemory(create=True, size=max(cursor, 1))
        try:
            offset = 0
            for raw in buffers:
                shm.buf[offset : offset + len(raw)] = raw
                offset += len(raw)
            return cls(shm, specs, table.n_rows, cursor)
        except BaseException:
            shm.close()
            shm.unlink()
            raise

    def descriptor(self, row_range: tuple[int, int] | None = None) -> TableSlice:
        """A picklable slice descriptor (default: every row)."""
        name = self.name
        lo, hi = row_range if row_range is not None else (0, self.n_rows)
        if not 0 <= lo <= hi <= self.n_rows:
            raise ValueError(
                f"row range {(lo, hi)} outside [0, {self.n_rows}]"
            )
        return TableSlice(name, self.specs, self.n_rows, (lo, hi))

    def __enter__(self) -> "SharedTable":
        if self._entered or self._shm is None:
            raise RuntimeError("a SharedTable can be entered only once")
        self._entered = True
        return self

    def __exit__(self, *exc) -> None:
        shm, self._shm = self._segment(), None
        shm.close()
        shm.unlink()


def attach_slice(table_slice: TableSlice) -> Table:
    """Decode the descriptor's row range into a regular :class:`Table`.

    Attaches to the named segment, copies the slice out, and closes the
    mapping before returning — the returned table owns plain arrays, so
    the caller never holds shared-memory references.
    """
    shm = shared_memory.SharedMemory(name=table_slice.shm_name)
    try:
        lo, hi = table_slice.row_range
        return Table(
            [
                _decode_column(spec, shm.buf, lo, hi)
                for spec in table_slice.col_specs
            ]
        )
    finally:
        shm.close()
