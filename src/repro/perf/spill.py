"""On-disk columnar spill files for the out-of-core sharded pipeline.

A :class:`~repro.perf.shards.ShardRunner` keeps peak RSS bounded by the
working set of a single shard: every cleaned shard is *spilled* to disk
and only re-materialized (whole, or one column at a time) when the merge
or the post-merge analytics needs it.  The file payload is the exact
columnar wire form of :func:`repro.perf.shm.encode_table` — the same
NUMERIC/CATEGORICAL/TEXT part layout the shared-memory transport uses —
so a table round-trips bit-identically through either transport.

File layout::

    b"RSPILL1\\n"               magic (8 bytes)
    uint64 little-endian        header length H
    H bytes of UTF-8 JSON       {n_rows, payload_bytes, sha256, columns}
    payload                     the concatenated column parts

``columns`` lists ``[name, kind, [[part, offset, length], ...]]`` per
column with offsets relative to the payload start, which is what makes
column-projection reads possible: decoding one column touches only that
column's byte windows of the memory-mapped payload.

Lifecycle (structural): :meth:`SpillFile.open` hands back an open file
handle plus a memory map that can be read only inside
``with SpillFile.open(path) as spill:`` — every read raises
:class:`SpillError` before the block is entered and after it exits, and
``__exit__`` is the only release, so no caller can keep a map pinned
past its block.  Writes are atomic (unique temp file + ``os.replace``),
so a crashed writer can never leave a half-written spill under the final
name.

Failure story: truncated or corrupted files raise :class:`SpillError` at
open or decode time — never silently wrong data — and the sharded runner
treats that exactly like a cache miss: the shard is recomputed and
re-spilled.  The ``dataset.read`` / ``dataset.write`` fault sites make
both paths chaos-testable.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import struct
import tempfile
from pathlib import Path

from ..dataset.table import ColumnKind, Table
from ..faults.plan import DATASET_READ, DATASET_WRITE, FaultInjector, FaultKind
from .shm import ColumnSpec, _decode_column, encode_table

__all__ = ["SpillError", "SpillFile", "write_spill"]

#: File magic: spill format, version 1.
_MAGIC = b"RSPILL1\n"

#: ``<Q``: the uint64 little-endian header-length field after the magic.
_LEN_STRUCT = struct.Struct("<Q")


class SpillError(RuntimeError):
    """A spill file is missing, truncated, corrupted, or mis-versioned."""


def write_spill(
    table: Table, path: str | Path, injector: FaultInjector | None = None
) -> int:
    """Spill *table* to *path* atomically; returns the file size in bytes.

    The write goes to a unique temp file in the target directory first and
    is published with ``os.replace``, so readers can never observe a
    partial spill.  *injector* (when armed at ``dataset.write``) can raise
    an injected I/O failure before any byte is written — the caller's
    retry then re-runs a still-consistent world.
    """
    if injector is not None:
        injector.fire(DATASET_WRITE)
    specs, buffers, payload_bytes = encode_table(table)
    digest = hashlib.sha256()
    for raw in buffers:
        digest.update(raw)
    header = json.dumps(
        {
            "n_rows": table.n_rows,
            "payload_bytes": payload_bytes,
            "sha256": digest.hexdigest(),
            "columns": [
                [spec.name, spec.kind.value, [list(p) for p in spec.parts]]
                for spec in specs
            ],
        },
        sort_keys=True,
    ).encode("utf-8")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=f"{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(_MAGIC)
            handle.write(_LEN_STRUCT.pack(len(header)))
            handle.write(header)
            for raw in buffers:
                handle.write(raw)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return len(_MAGIC) + _LEN_STRUCT.size + len(header) + payload_bytes


class SpillFile:
    """A spilled table, memory-mapped for column-projection reads.

    The instance returned by :meth:`open` owns an open file descriptor and
    a read-only memory map, readable only inside a ``with`` block:
    :meth:`column`, :meth:`to_table` and :meth:`verify` raise
    :class:`SpillError` before ``__enter__`` and after ``__exit__``, which
    is the only release.  Decoding copies the requested rows out of the
    map, so returned tables stay valid after the block exits.
    """

    def __init__(
        self,
        path: Path,
        handle,
        mapped: mmap.mmap,
        payload: memoryview,
        specs: tuple[ColumnSpec, ...],
        n_rows: int,
        sha256: str,
    ):
        self.path = path
        self._handle = handle
        self._mapped = mapped
        self._payload: memoryview | None = payload
        self._entered = False
        self.specs = specs
        self.n_rows = n_rows
        self.sha256 = sha256

    @classmethod
    def open(
        cls, path: str | Path, injector: FaultInjector | None = None
    ) -> "SpillFile":
        """Map the spill at *path*, validating magic, header and size.

        Raises :class:`SpillError` on any structural problem (missing,
        truncated, corrupted, wrong version) so callers can treat a bad
        spill exactly like a cache miss.  *injector* (armed at
        ``dataset.read``) can turn the open into an injected I/O error or
        hand the parser deterministically mangled header bytes.
        """
        path = Path(path)
        try:
            handle = path.open("rb")
        except OSError as exc:
            raise SpillError(f"spill {path} unreadable: {exc}") from exc
        try:
            prefix = handle.read(len(_MAGIC) + _LEN_STRUCT.size)
            if injector is not None:
                kind = injector.arrive(DATASET_READ)
                if kind is FaultKind.IO_ERROR:
                    raise SpillError(
                        f"spill {path}: injected I/O failure on read"
                    )
                if kind is not None:
                    prefix = FaultInjector.mangle(prefix, kind)
            if len(prefix) < len(_MAGIC) + _LEN_STRUCT.size:
                raise SpillError(f"spill {path} truncated before header")
            if prefix[: len(_MAGIC)] != _MAGIC:
                raise SpillError(f"spill {path} has wrong magic/version")
            (header_len,) = _LEN_STRUCT.unpack(prefix[len(_MAGIC) :])
            header_raw = handle.read(header_len)
            if len(header_raw) < header_len:
                raise SpillError(f"spill {path} truncated inside header")
            try:
                header = json.loads(header_raw.decode("utf-8"))
                specs = tuple(
                    ColumnSpec(
                        name,
                        ColumnKind(kind),
                        tuple((label, off, length) for label, off, length in parts),
                    )
                    for name, kind, parts in header["columns"]
                )
                n_rows = int(header["n_rows"])
                payload_bytes = int(header["payload_bytes"])
                sha256 = str(header["sha256"])
            except (ValueError, KeyError, TypeError, UnicodeDecodeError) as exc:
                raise SpillError(f"spill {path} header corrupt: {exc}") from exc
            payload_start = len(_MAGIC) + _LEN_STRUCT.size + header_len
            expected = payload_start + payload_bytes
            actual = path.stat().st_size
            if actual != expected:
                raise SpillError(
                    f"spill {path} is {actual} bytes, expected {expected}"
                )
            mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
            payload = memoryview(mapped)[payload_start:]
            return cls(path, handle, mapped, payload, specs, n_rows, sha256)
        except BaseException:
            handle.close()
            raise

    @property
    def column_names(self) -> list[str]:
        """Column names in spill (= original table) order."""
        return [spec.name for spec in self.specs]

    def _payload_view(self) -> memoryview:
        if self._payload is None:
            raise SpillError(f"spill {self.path} is closed")
        if not self._entered:
            raise SpillError(
                f"spill {self.path} is readable only inside its `with` block"
            )
        return self._payload

    def column(self, name: str):
        """Decode one full column (copied out of the map)."""
        buf = self._payload_view()
        for spec in self.specs:
            if spec.name == name:
                try:
                    return _decode_column(spec, buf, 0, self.n_rows)
                except (ValueError, IndexError, UnicodeDecodeError) as exc:
                    raise SpillError(
                        f"spill {self.path} column {name!r} corrupt: {exc}"
                    ) from exc
        raise KeyError(f"spill {self.path} has no column {name!r}")

    def to_table(self, columns: list[str] | None = None) -> Table:
        """Materialize the spilled table (optionally a column projection).

        ``columns=None`` decodes every column in spill order; a list
        decodes only those, in the requested order — the out-of-core merge
        reads just the analysis columns this way.
        """
        names = self.column_names if columns is None else list(columns)
        return Table([self.column(name) for name in names])

    def verify(self) -> None:
        """Hash the payload and compare with the stored checksum.

        Raises :class:`SpillError` on mismatch.  Cheap relative to a
        shard recompute, so the runner calls this before trusting a
        warm-cache spill.
        """
        digest = hashlib.sha256(self._payload_view()).hexdigest()
        if digest != self.sha256:
            raise SpillError(
                f"spill {self.path} payload checksum mismatch "
                f"({digest[:12]} != {self.sha256[:12]})"
            )

    def __enter__(self) -> "SpillFile":
        if self._entered or self._payload is None:
            raise SpillError(f"spill {self.path} can be entered only once")
        self._entered = True
        return self

    def __exit__(self, *exc) -> None:
        payload = self._payload_view()
        self._payload = None
        payload.release()
        self._mapped.close()
        self._handle.close()
