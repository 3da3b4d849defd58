"""Performance layer: parallel execution and stage-level artifact caching.

The INDICE pipeline must serve interactive dashboards over regional EPC
collections, so the hot tiers get two generic accelerators:

* :class:`~repro.perf.parallel.ParallelMap` — a process-pool executor with
  chunked sharding, per-worker initialized state and a serial fallback, used
  to fan the Levenshtein-heavy address resolution out across cores (its
  ``map_table`` path, which ships whole tables through one columnar
  shared-memory block, :mod:`repro.perf.shm`, instead of pickled row
  chunks) and to run coarse tasks: the K-means sweep's fits and the
  sharded run's shard transforms.  Cheap column work, such as
  :func:`~repro.perf.parallel.feature_matrix`, runs serially;
* :class:`~repro.perf.cache.StageCache` — a content-hash memo for whole
  pipeline stages, keyed on (table fingerprint, config fingerprint), so
  repeated dashboard builds and the navigable drill-down never re-run
  cleaning or clustering.

Both are dependency-free (stdlib + NumPy) and deterministic: parallel and
cached paths return bit-identical results to the serial, uncached ones.
"""

from .cache import (
    StageCache,
    fingerprint_table,
    fingerprint_value,
)
from .parallel import ParallelMap
from .shm import ColumnSpec, SharedTable, TableSlice, attach_slice

__all__ = [
    "ColumnSpec",
    "ParallelMap",
    "SharedTable",
    "StageCache",
    "TableSlice",
    "attach_slice",
    "fingerprint_table",
    "fingerprint_value",
]
