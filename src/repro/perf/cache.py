"""Content-hash stage cache for pipeline outcomes.

Rebuilding a dashboard, switching stakeholders, or drilling through the
navigable tabs re-runs the same ``preprocess()`` / ``analyze()`` on the
same input — by far the most expensive part of an interactive session.
:class:`StageCache` memoizes whole stage outcomes keyed on *content*
fingerprints (SHA-256 over the table's cells and the analytic config
fields), so a hit is returned only when every input byte that can affect
the result is identical.  Perf-only knobs (``n_jobs``, cache settings)
are excluded from the config fingerprint (their fields declare no stage
in :mod:`repro.core.config`): they change how fast a stage runs, never
what it returns.

The cache is in-memory by default; give it a directory and entries are
also pickled to disk, surviving across processes (e.g. repeated CLI runs
with ``--cache-dir``).
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import pickle
import tempfile
import threading
from pathlib import Path
from typing import Any

import numpy as np

from ..dataset.table import ColumnKind, Table
from ..faults.plan import CACHE_READ, CACHE_WRITE, FaultInjector, FaultKind

__all__ = [
    "StageCache",
    "fingerprint_table",
    "fingerprint_value",
]

def _canonical(obj: Any) -> Any:
    """A JSON-serializable canonical form of *obj* (stable across runs)."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            "__dataclass__": type(obj).__name__,
            **{
                f.name: _canonical(getattr(obj, f.name))
                for f in dataclasses.fields(obj)
            },
        }
    if isinstance(obj, enum.Enum):
        return f"{type(obj).__name__}.{obj.name}"
    if isinstance(obj, dict):
        return {
            str(k): _canonical(v)
            for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))
        }
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if obj is None or isinstance(obj, (str, int, float, bool)):
        return obj
    return repr(obj)


def fingerprint_value(obj: Any) -> str:
    """SHA-256 hex digest of the canonical form of any config-like value."""
    payload = json.dumps(_canonical(obj), sort_keys=True, ensure_ascii=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def fingerprint_table(table: Table) -> str:
    """SHA-256 over a table's schema and every cell.

    Numeric columns hash their raw float64 buffers; categorical / text
    columns hash their values joined on the ``\\x1f`` unit separator with
    ``\\x00`` marking missing (EPC attributes never contain control
    characters, so the separator cannot be forged by data).  One digest
    update per column keeps fingerprinting a ~130-attribute collection
    in the low milliseconds.
    """
    h = hashlib.sha256()
    h.update(str(table.n_rows).encode("ascii"))
    for name in table.column_names:
        col = table.column(name)
        h.update(b"\x1d")
        h.update(name.encode("utf-8"))
        h.update(col.kind.value.encode("ascii"))
        if col.kind is ColumnKind.NUMERIC:
            h.update(np.ascontiguousarray(col.values, dtype="<f8").tobytes())
        else:
            joined = "\x1f".join(
                "\x00" if v is None else str(v) for v in col.values
            )
            h.update(joined.encode("utf-8", "surrogatepass"))
    return h.hexdigest()


class StageCache:
    """Memoize stage outcomes under content-hash keys.

    Entries live in an in-process dictionary; when *directory* is given
    they are additionally pickled under ``<directory>/<key>.pkl`` and
    looked up there on a memory miss, which makes warm starts work across
    processes.  The cache never validates beyond the key — callers must
    build keys from fingerprints of *every* input that can change the
    outcome (that is what :func:`fingerprint_table` and
    :func:`fingerprint_value` are for).

    Disk entries are written atomically (unique temp file + ``os.replace``)
    so a crashed writer can never leave a half-written ``.pkl`` behind,
    and *every* disk failure is absorbed: an unreadable, truncated or
    corrupted entry counts as a miss (``read_errors``), a failed write
    keeps the value in memory only (``write_errors``).  A cache must never
    be able to abort the stage it accelerates.  The optional *injector*
    simulates exactly those failures at the ``cache.read`` /
    ``cache.write`` fault sites.
    """

    def __init__(
        self,
        directory: str | Path | None = None,
        injector: FaultInjector | None = None,
    ):
        self._memory: dict[str, Any] = {}
        # Guards the memory dict and the hit/miss counters now that the
        # serving tier renders from worker threads; disk IO (and the
        # injector) stay outside the lock so a slow or faulted read never
        # serializes sibling stages.
        self._lock = threading.Lock()
        self.directory = Path(directory) if directory else None
        if self.directory is not None:
            if self.directory.exists() and not self.directory.is_dir():
                raise NotADirectoryError(
                    f"cache directory {self.directory} exists and is not a directory"
                )
            self.directory.mkdir(parents=True, exist_ok=True)
        self._injector = injector
        self.hits = 0
        self.misses = 0
        self.read_errors = 0
        self.write_errors = 0
        #: Shard-granular traffic, counted by the sharded runner apart
        #: from the whole-stage hits/misses so a provenance log can show
        #: "1 shard recomputed, 16 reused" after a single-district edit; a
        #: found record whose spill fails validation counts as a miss.
        self.shard_hits = 0
        self.shard_misses = 0

    @staticmethod
    def key(stage: str, *fingerprints: str) -> str:
        """A stable cache key combining a stage name and fingerprints."""
        h = hashlib.sha256(stage.encode("utf-8"))
        for fp in fingerprints:
            h.update(b"\x1f")
            h.update(fp.encode("utf-8"))
        return f"{stage}-{h.hexdigest()[:32]}"

    @staticmethod
    def shard_key(
        stage: str,
        config_fingerprint: str,
        shard: str,
        content_fingerprint: str,
    ) -> str:
        """The shard-granular cache key of one shard of a sharded stage.

        The triple ``(config_fingerprint, shard_key, shard_content_hash)``
        is the whole invalidation story: editing one district changes only
        that shard's content hash, so every sibling shard still hits —
        the fix for "one dirty row invalidates the world".
        """
        return StageCache.key(
            f"{stage}.shard", config_fingerprint, shard, content_fingerprint
        )

    def __len__(self) -> int:
        return len(self._memory)

    def __contains__(self, key: str) -> bool:
        return key in self._memory or self._disk_path(key) is not None

    def _disk_path(self, key: str) -> Path | None:
        if self.directory is None:
            return None
        path = self.directory / f"{key}.pkl"
        return path if path.exists() else None

    def _disk_read(self, key: str) -> tuple[bool, Any]:
        """``(found, value)`` from disk; every failure is a counted miss."""
        if self.directory is None:
            return False, None
        path = self.directory / f"{key}.pkl"
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            return False, None
        except OSError:  # unreadable entry (permissions, disk error)
            self.read_errors += 1
            return False, None
        if self._injector is not None:
            kind = self._injector.arrive(CACHE_READ)
            if kind is FaultKind.IO_ERROR:
                self.read_errors += 1
                return False, None
            if kind is not None:
                data = FaultInjector.mangle(data, kind)
        try:
            return True, pickle.loads(data)
        # By contract a cache can never abort the stage it accelerates: any
        # unpickling failure is a counted miss (read_errors) and
        # Indice._cache_get records the provenance degradation.
        except Exception:  # repro: noqa[EXC001] — corrupt/truncated entry is a counted miss
            self.read_errors += 1
            return False, None

    def get(self, key: str) -> tuple[bool, Any]:
        """``(found, value)`` for *key*; counts a hit or a miss."""
        with self._lock:
            if key in self._memory:
                self.hits += 1
                return True, self._memory[key]
        found, value = self._disk_read(key)
        with self._lock:
            if found:
                self._memory[key] = value
                self.hits += 1
                return True, value
            self.misses += 1
            return False, None

    def count_shard_hit(self) -> None:
        """Count one reused shard."""
        with self._lock:
            self.shard_hits += 1

    def count_shard_miss(self) -> None:
        """Count one recomputed shard."""
        with self._lock:
            self.shard_misses += 1

    def put(self, key: str, value: Any) -> None:
        """Store *value* under *key* (memory, plus disk when configured).

        The disk write is atomic — a unique temp file in the cache
        directory, then ``os.replace`` — so readers (and crashed writers)
        can never observe a partial entry under the final name.  Disk
        failures are swallowed into ``write_errors``: the entry stays
        served from memory and the stage carries on.
        """
        with self._lock:
            self._memory[key] = value
        if self.directory is None:
            return
        data = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        if self._injector is not None:
            kind = self._injector.arrive(CACHE_WRITE)
            if kind is FaultKind.IO_ERROR:
                self.write_errors += 1
                return
            if kind is not None:  # silently-corrupting write: caught on read
                data = FaultInjector.mangle(data, kind)
        tmp_name = None
        try:
            fd, tmp_name = tempfile.mkstemp(
                dir=self.directory, prefix=f"{key}.", suffix=".tmp"
            )
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp_name, self.directory / f"{key}.pkl")
        except OSError:
            self.write_errors += 1
            if tmp_name is not None:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass

    def clear(self) -> None:
        """Drop every in-memory entry (disk entries are left alone)."""
        with self._lock:
            self._memory.clear()
