"""A chunked process-pool executor with a serial fallback.

:class:`ParallelMap` is the one place in the codebase that decides *how* a
row-wise computation is spread across cores.  Callers hand it a
module-level function ``func(state, item)`` plus, optionally, a
module-level ``setup(*args)`` that builds expensive per-worker state (such
as a gazetteer index: once per process instead of once per item), and get
the results back in input order.

Design points:

* **owned worker state** — the map builds ``setup(*args)`` once per pool
  worker into this module's one private slot, or once as a local on the
  serial path, and passes it to every call of *func*; without *setup*
  the state is *args* itself.  No caller keeps module globals for its
  workers, so none can read a stale fork-time copy or write one that
  dies with its worker;
* **module-level callables only** — a lambda or a function defined
  inside another one does not pickle, so *func* and *setup* must be
  module-level (looking through :func:`functools.partial`).  Both paths
  raise :class:`TypeError` otherwise, so a map that works serially
  cannot fail on a pool;
* **chunked sharding** — items are split into contiguous chunks so the
  pickling overhead is paid per chunk, not per item, and the output order
  is trivially the input order;
* **serial fallback** — with ``n_jobs <= 1`` or fewer items than
  ``min_parallel_items`` the map runs inline, so small inputs never pay
  process start-up costs and single-job configurations stay exactly as
  debuggable as before;
* **crash resilience** — a worker process dying (a broken pool, or an
  injected :class:`~repro.faults.plan.WorkerCrashError`) does not fail the
  map: the whole input is recomputed serially and the degradation is
  counted in ``fallbacks`` for the caller to log.  Exceptions raised by
  the *mapped function itself* still propagate unchanged — a crash of the
  infrastructure is recoverable, a bug in the computation is not;
* **determinism** — the parallel path computes the same function on the
  same items; only scheduling changes, never results.  The serial
  fallback therefore returns bit-identical output;
* **one row dispatch** — address resolution is the one caller of
  :meth:`ParallelMap.map`: its distinct addresses are pickled per chunk,
  which costs well under a millisecond at thousands of strings, while
  pool start-up and the per-worker gazetteer index dominate.  Work that
  takes milliseconds serially (the feature matrix, group means) stays
  inline, because a pool round-trip costs tens of milliseconds;
* **coarse tasks** — :meth:`ParallelMap.map_tasks` runs a handful of
  expensive independent units (a shard transform, one K of the elbow
  sweep) one per chunk, through the same dispatch, so both maps share
  one state slot, one fallback and one fault site.
"""

from __future__ import annotations

import functools
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from ..dataset.table import Table
from ..faults.plan import PARALLEL_WORKER, FaultInjector, FaultKind, WorkerCrashError

__all__ = ["ParallelMap", "feature_matrix"]

#: Below this many items the process pool costs more than it saves.
DEFAULT_MIN_PARALLEL_ITEMS = 512

#: Chunks per worker: >1 so uneven chunks still balance across the pool.
_CHUNKS_PER_JOB = 4

#: Seconds an injected straggler chunk sleeps before doing its work.
_INJECTED_STRAGGLER_S = 0.05


#: The per-worker state of the pool this process serves, built once by
#: :func:`_install_state`.  Only pool workers set it: the parent's serial
#: path keeps its state in a local.
_WORKER_STATE: Any = None


def _build_state(setup: Callable[..., Any] | None, args: tuple) -> Any:
    """``setup(*args)``, or *args* itself when there is no *setup*."""
    return args if setup is None else setup(*args)


def _install_state(setup: Callable[..., Any] | None, args: tuple) -> None:
    """Build this worker's state once (the pool's initializer)."""
    global _WORKER_STATE
    _WORKER_STATE = _build_state(setup, args)


def _require_module_level(func: Callable[..., Any]) -> None:
    """Raise :class:`TypeError` unless *func* (through any
    :func:`functools.partial`) pickles by reference: a lambda or a
    ``<locals>`` function fails on a pool, so it fails on both paths."""
    target = func
    while isinstance(target, functools.partial):
        target = target.func
    qualname = getattr(target, "__qualname__", "")
    if "<lambda>" in qualname or "<locals>" in qualname:
        raise TypeError(
            f"{qualname} cannot cross a process boundary; pass a "
            "module-level function to ParallelMap"
        )


def _run_chunk(payload: tuple[Callable[[Any, Any], Any], list, str | None]) -> list:
    """Apply ``func(state, item)`` to every item of one chunk (runs inside
    a worker, whose state :func:`_install_state` built).

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
    return [func(_WORKER_STATE, item) for item in chunk]


def feature_matrix(table: Table, names: Sequence[str]) -> np.ndarray:
    """``table.to_matrix(names)``: the feature matrix DBSCAN and K-means read.

    Serial on purpose.  Copying a few float columns takes well under a
    millisecond at 8k rows, while a pool round-trip (worker start, row
    and result pickling) costs tens of milliseconds for the same
    bit-identical matrix.
    """
    return table.to_matrix(list(names))


@dataclass
class ParallelMap:
    """Map a function over items with an optional process pool.

    Parameters
    ----------
    n_jobs:
        Worker processes.  ``1`` (the default) runs serially; ``0`` or a
        negative value resolves to ``os.cpu_count()``.
    min_parallel_items:
        Inputs smaller than this run serially even when ``n_jobs > 1``.
    injector:
        Optional fault injector watching the ``parallel.worker`` site
        (one arrival per dispatched chunk).
    """

    n_jobs: int = 1
    min_parallel_items: int = DEFAULT_MIN_PARALLEL_ITEMS
    injector: FaultInjector | None = None

    #: Always 0: no shared memory is used; read by benchmarks/e2e/child.py.
    shm_bytes = 0

    def __post_init__(self):
        #: Times the parallel path crashed and was recomputed serially.
        self.fallbacks = 0
        #: Human-readable reason of the most recent fallback (or None).
        self.last_fallback_reason: str | None = None

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
        """Split *items* into contiguous, order-preserving chunks of
        ``ceil(n / (jobs * _CHUNKS_PER_JOB))`` items each."""
        n = len(items)
        if n == 0:
            return []
        size = -(-n // (self.resolve_jobs() * _CHUNKS_PER_JOB))
        return [list(items[i : i + size]) for i in range(0, n, size)]

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

    def _dispatch(
        self,
        func: Callable[[Any, Any], Any],
        items: list,
        chunks: list[list] | None,
        setup: Callable[..., Any] | None,
        args: tuple,
    ) -> list:
        """``[func(state, x) for x in items]``: on a fresh pool, one
        payload per chunk, or inline when there are no *chunks*.

        The one place a pool is started.  A broken pool or an injected
        crash counts the fallback and recomputes inline, so every map
        degrades the same way: bit-identically.
        """
        _require_module_level(func)
        if setup is not None:
            _require_module_level(setup)
        if chunks:
            payloads = [(func, chunk, self._chunk_fault()) for chunk in chunks]
            try:
                with ProcessPoolExecutor(
                    max_workers=min(self.resolve_jobs(), len(payloads)),
                    initializer=_install_state,
                    initargs=(setup, args),
                ) as pool:
                    results = list(pool.map(_run_chunk, payloads))
                return [item for chunk in results for item in chunk]
            except (WorkerCrashError, BrokenProcessPool, OSError) as exc:
                self.fallbacks += 1
                self.last_fallback_reason = f"{type(exc).__name__}: {exc}"
        state = _build_state(setup, args)
        return [func(state, item) for item in items]

    def map(
        self,
        func: Callable[[Any, Any], Any],
        items: Iterable[Any],
        setup: Callable[..., Any] | None = None,
        args: tuple = (),
    ) -> list:
        """``[func(state, x) for x in items]``, possibly across worker processes.

        *state* is ``setup(*args)``, built once per worker (and once
        inline on the serial path), or *args* itself without *setup*: the
        place for expensive shared state.  *func* and *setup* must be
        module-level functions (:class:`TypeError` otherwise), and *args*
        and every item picklable when the parallel path is taken.
        Results always come back in input order.

        If the pool itself fails — a worker process dies, the pool breaks —
        the whole map is recomputed serially (bit-identical results) and
        ``fallbacks`` is incremented so the caller can record the
        degradation.  Exceptions raised by *func* propagate unchanged.
        """
        items = list(items)
        chunks = self.shard(items) if self.should_parallelize(len(items)) else None
        return self._dispatch(func, items, chunks, setup, args)

    def map_tasks(
        self,
        func: Callable[[Any, Any], Any],
        tasks: Iterable[Any],
        setup: Callable[..., Any] | None = None,
        args: tuple = (),
    ) -> list:
        """``[func(state, t) for t in tasks]`` with one coarse task per chunk.

        For a few expensive, independent units (a shard transform, one K
        of the elbow sweep) rather than many cheap rows: the map goes
        parallel whenever there are two workers and two tasks, ignoring
        ``min_parallel_items``, and never batches tasks into a chunk, so
        the pool balances them in dispatch order.  State, serial path,
        crash fallback, fault site and ordering are those of :meth:`map`:
        each task is one ``parallel.worker`` arrival.
        """
        tasks = list(tasks)
        chunks = (
            [[task] for task in tasks]
            if self.should_parallelize_tasks(len(tasks))
            else None
        )
        return self._dispatch(func, tasks, chunks, setup, args)
