"""A chunked process-pool executor with a serial fallback.

:class:`ParallelMap` is the one place in the codebase that decides *how* a
row-wise computation is spread across cores.  Callers hand it a picklable
per-item function plus an optional worker initializer (for expensive
per-worker state such as a gazetteer index, built once per process instead
of once per item), and get the results back in input order.

Design points:

* **chunked sharding** — items are split into contiguous chunks so the
  pickling overhead is paid per chunk, not per item, and the output order
  is trivially the input order;
* **serial fallback** — with ``n_jobs <= 1`` or fewer items than
  ``min_parallel_items`` the map runs inline (after calling the
  initializer locally), so small inputs never pay process start-up costs
  and single-job configurations stay exactly as debuggable as before;
* **crash resilience** — a worker process dying (a broken pool, or an
  injected :class:`~repro.faults.plan.WorkerCrashError`) does not fail the
  map: the whole input is recomputed serially and the degradation is
  counted in ``fallbacks`` for the caller to log.  Exceptions raised by
  the *mapped function itself* still propagate unchanged — a crash of the
  infrastructure is recoverable, a bug in the computation is not;
* **determinism** — the parallel path computes the same function on the
  same items; only scheduling changes, never results.  The serial
  fallback therefore returns bit-identical output;
* **columnar dispatch** — :meth:`ParallelMap.map_table` ships a whole
  :class:`~repro.dataset.table.Table` through one shared-memory block
  (see :mod:`repro.perf.shm`) and sends workers only ``(shm_name,
  col_specs, row_range)`` descriptors, so the per-chunk IPC payload is a
  few hundred bytes regardless of row count — the fix for the pickle
  serialization tax that capped ``map`` at 2 useful workers.  Address
  resolution is its one caller: work that takes milliseconds serially
  (the feature matrix, group means) stays inline, because a pool
  round-trip costs tens of milliseconds;
* **coarse tasks** — :meth:`ParallelMap.map_tasks` runs a handful of
  expensive independent units (a shard transform, one K of the elbow
  sweep) one per chunk, through the same pool routine, so all three maps
  share one fallback, one fault site and one fork-safety check.
"""

from __future__ import annotations

import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from ..dataset.table import Table
from ..faults.plan import PARALLEL_WORKER, FaultInjector, FaultKind, WorkerCrashError
from .shm import SharedTable, TableSlice, attach_slice

__all__ = ["ParallelMap", "feature_matrix"]

#: Below this many items the process pool costs more than it saves.
DEFAULT_MIN_PARALLEL_ITEMS = 512

#: Chunks per worker: >1 so uneven chunks still balance across the pool.
_CHUNKS_PER_JOB = 4

#: Seconds an injected straggler chunk sleeps before doing its work.
_INJECTED_STRAGGLER_S = 0.05


def _run_chunk(payload: tuple[Callable[[Any], Any], list, str | None]) -> list:
    """Apply ``func`` to every item of one chunk (runs inside a worker).

    *fault* is the injected behaviour decided (deterministically) in the
    parent before dispatch: ``"crash"`` kills the chunk, ``"delay"`` makes
    it a straggler.  Keeping the decision in the parent means the injector
    never has to cross the process boundary.
    """
    func, chunk, fault = payload
    if fault == "crash":
        raise WorkerCrashError("injected worker crash")
    if fault == "delay":
        time.sleep(_INJECTED_STRAGGLER_S)
    return [func(item) for item in chunk]


def feature_matrix(table: Table, names: Sequence[str]) -> np.ndarray:
    """``table.to_matrix(names)``: the feature matrix DBSCAN and K-means read.

    Serial on purpose.  Copying a few float columns takes well under a
    millisecond at 8k rows, while a pool round-trip (shared-memory encode,
    worker start, result pickling) costs tens of milliseconds for the
    same bit-identical matrix.
    """
    return table.to_matrix(list(names))


def _run_table_chunk(
    payload: tuple[Callable[[Any], Iterable[Any]], TableSlice, str | None]
) -> list:
    """Decode one shared-memory slice and apply ``chunk_func`` to it.

    Injected crashes fire *before* the worker attaches, so a crashed
    worker never holds a mapping — segment cleanup stays entirely with
    the creating parent.
    """
    chunk_func, table_slice, fault = payload
    if fault == "crash":
        raise WorkerCrashError("injected worker crash")
    if fault == "delay":
        time.sleep(_INJECTED_STRAGGLER_S)
    return list(chunk_func(attach_slice(table_slice)))


@dataclass
class ParallelMap:
    """Map a function over items with an optional process pool.

    Parameters
    ----------
    n_jobs:
        Worker processes.  ``1`` (the default) runs serially; ``0`` or a
        negative value resolves to ``os.cpu_count()``.
    chunk_size:
        Items per shard; ``None`` sizes chunks so each worker receives
        about ``_CHUNKS_PER_JOB`` of them.
    min_parallel_items:
        Inputs smaller than this run serially even when ``n_jobs > 1``.
    injector:
        Optional fault injector watching the ``parallel.worker`` site
        (one arrival per dispatched chunk).
    """

    n_jobs: int = 1
    chunk_size: int | None = None
    min_parallel_items: int = DEFAULT_MIN_PARALLEL_ITEMS
    injector: FaultInjector | None = None

    def __post_init__(self):
        #: Times the parallel path crashed and was recomputed serially.
        self.fallbacks = 0
        #: Human-readable reason of the most recent fallback (or None).
        self.last_fallback_reason: str | None = None
        #: Seconds spent encoding tables into shared memory (map_table).
        self.encode_seconds = 0.0
        #: Bytes placed in shared-memory blocks (map_table).
        self.shm_bytes = 0
        #: Pickled bytes actually shipped to workers as descriptors.
        self.descriptor_bytes = 0

    def resolve_jobs(self) -> int:
        """The effective worker count (``0``/negative -> all cores)."""
        if self.n_jobs <= 0:
            return os.cpu_count() or 1
        return self.n_jobs

    def should_parallelize(self, n_items: int) -> bool:
        """Whether *n_items* would actually be fanned out to a pool."""
        return self.resolve_jobs() > 1 and n_items >= self.min_parallel_items

    def should_parallelize_tasks(self, n_tasks: int) -> bool:
        """Whether :meth:`map_tasks` would run *n_tasks* on a pool."""
        return self.resolve_jobs() > 1 and n_tasks >= 2

    def shard(self, items: Sequence[Any]) -> list[list[Any]]:
        """Split *items* into contiguous, order-preserving chunks."""
        n = len(items)
        if n == 0:
            return []
        jobs = self.resolve_jobs()
        size = self.chunk_size or max(1, -(-n // (jobs * _CHUNKS_PER_JOB)))
        return [list(items[i : i + size]) for i in range(0, n, size)]

    def shard_ranges(self, n_rows: int) -> list[tuple[int, int]]:
        """Contiguous ``[lo, hi)`` row ranges, mirroring :meth:`shard`.

        Uses the exact same chunk-size arithmetic so a table map dispatches
        the same number of chunks as an item map over the same rows — which
        keeps ``parallel.worker`` fault arrival counts identical across the
        two code paths.
        """
        if n_rows == 0:
            return []
        jobs = self.resolve_jobs()
        size = self.chunk_size or max(
            1, -(-n_rows // (jobs * _CHUNKS_PER_JOB))
        )
        return [
            (lo, min(lo + size, n_rows)) for lo in range(0, n_rows, size)
        ]

    def _chunk_fault(self) -> str | None:
        """The injected behaviour of the next dispatched chunk, if any."""
        if self.injector is None:
            return None
        kind = self.injector.arrive(PARALLEL_WORKER)
        if kind is FaultKind.CRASH:
            return "crash"
        if kind is FaultKind.DELAY:
            return "delay"
        return None

    def _fall_back(self, exc: BaseException) -> None:
        """Count one pool failure; the caller recomputes inline."""
        self.fallbacks += 1
        self.last_fallback_reason = f"{type(exc).__name__}: {exc}"

    def _run_pool(
        self,
        worker: Callable[[Any], list],
        payloads: list,
        initializer: Callable[..., None] | None,
        initargs: tuple,
    ) -> list | None:
        """``[worker(p) for p in payloads]`` on a fresh pool, in order.

        The one place a pool is started.  A broken pool or an injected
        crash returns ``None`` after counting the fallback, so every map
        recomputes the same way: inline and bit-identical.
        """
        try:
            with ProcessPoolExecutor(
                max_workers=min(self.resolve_jobs(), len(payloads)),
                initializer=initializer,
                initargs=initargs,
            ) as pool:
                return list(pool.map(worker, payloads))
        except (WorkerCrashError, BrokenProcessPool, OSError) as exc:
            self._fall_back(exc)
            return None

    @staticmethod
    def _serial(func, items: list, initializer, initargs) -> list:
        """The inline path: the initializer once, then every item."""
        if initializer is not None:
            initializer(*initargs)
        return [func(item) for item in items]

    def map(
        self,
        func: Callable[[Any], Any],
        items: Iterable[Any],
        initializer: Callable[..., None] | None = None,
        initargs: tuple = (),
    ) -> list:
        """``[func(x) for x in items]``, possibly across worker processes.

        *func* (and every item) must be picklable when the parallel path
        is taken; *initializer* runs once per worker before any chunk (and
        once inline on the serial path), so it is the place to build
        expensive shared state.  Results always come back in input order.

        If the pool itself fails — a worker process dies, the pool breaks —
        the whole map is recomputed serially (bit-identical results) and
        ``fallbacks`` is incremented so the caller can record the
        degradation.  Exceptions raised by *func* propagate unchanged.
        """
        items = list(items)
        if not items or not self.should_parallelize(len(items)):
            return self._serial(func, items, initializer, initargs)
        payloads = [
            (func, chunk, self._chunk_fault()) for chunk in self.shard(items)
        ]
        results = self._run_pool(_run_chunk, payloads, initializer, initargs)
        if results is None:
            return self._serial(func, items, initializer, initargs)
        return [item for chunk in results for item in chunk]

    def map_tasks(
        self,
        func: Callable[[Any], Any],
        tasks: Iterable[Any],
        initializer: Callable[..., None] | None = None,
        initargs: tuple = (),
    ) -> list:
        """``[func(t) for t in tasks]`` with one coarse task per chunk.

        For a few expensive, independent units (a shard transform, one K
        of the elbow sweep) rather than many cheap rows: the map goes
        parallel whenever there are two workers and two tasks, ignoring
        ``min_parallel_items``, and never batches tasks into a chunk, so
        the pool balances them in dispatch order — put the longest first.
        Serial path, crash fallback, fault site and ordering are those of
        :meth:`map`: each task is one ``parallel.worker`` arrival.
        """
        tasks = list(tasks)
        if not self.should_parallelize_tasks(len(tasks)):
            return self._serial(func, tasks, initializer, initargs)
        payloads = [(func, [task], self._chunk_fault()) for task in tasks]
        results = self._run_pool(_run_chunk, payloads, initializer, initargs)
        if results is None:
            return self._serial(func, tasks, initializer, initargs)
        return [result for (result,) in results]

    def _serial_table(self, chunk_func, table, initializer, initargs) -> list:
        """The inline path: one call over the whole table."""
        return self._serial(chunk_func, [table], initializer, initargs)[0]

    def map_table(
        self,
        chunk_func: Callable[[Any], Iterable[Any]],
        table,
        initializer: Callable[..., None] | None = None,
        initargs: tuple = (),
    ) -> list:
        """Fan *table* rows out through shared memory, one slice per chunk.

        *chunk_func* receives a :class:`~repro.dataset.table.Table` holding
        a contiguous row slice and must return one result per row, in row
        order; ``map_table`` returns the concatenation across slices — for
        a row-wise *chunk_func* this is exactly ``list(chunk_func(table))``.

        Callers ship only the columns *chunk_func* reads: every column of
        *table* is encoded into shared memory, so pass a ``select`` of the
        read columns, not a full-width collection table.

        Unlike :meth:`map`, the rows are never pickled: the whole table is
        encoded once into a shared-memory block and workers receive only
        slice descriptors.  The serial path, fallback semantics, fault
        sites and ordering guarantees are identical to :meth:`map` — a pool
        failure recomputes the whole table inline (bit-identical) and
        counts in ``fallbacks``; the shared block is released by the
        ``with`` around the pool run, so no segment outlives the call even
        when workers crash.
        """
        n = table.n_rows
        if n == 0 or not self.should_parallelize(n):
            return self._serial_table(chunk_func, table, initializer, initargs)
        started = time.perf_counter()
        try:
            shared = SharedTable.create(table)
        except (OSError, ValueError) as exc:
            # /dev/shm full or unavailable: degrade to the serial path
            self._fall_back(exc)
            return self._serial_table(chunk_func, table, initializer, initargs)
        with shared:
            self.encode_seconds += time.perf_counter() - started
            self.shm_bytes += shared.nbytes
            payloads = [
                (chunk_func, shared.descriptor(rng), self._chunk_fault())
                for rng in self.shard_ranges(n)
            ]
            self.descriptor_bytes += sum(
                len(pickle.dumps(slice_)) for __, slice_, __unused in payloads
            )
            results = self._run_pool(
                _run_table_chunk, payloads, initializer, initargs
            )
        if results is None:
            return self._serial_table(chunk_func, table, initializer, initargs)
        return [item for chunk in results for item in chunk]
