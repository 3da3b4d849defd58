"""Tests for the columnar shared-memory codec and ``map_table``.

Four concerns, mirroring the codec's contract:

* **round trip** — ``attach_slice(create(t).descriptor())`` must be
  ``Column.__eq__``-identical for every column kind, including NaN,
  ``None`` in categorical/text, the empty table, the empty string (which
  must stay distinct from ``None``) and non-ASCII street names; a seeded
  randomized sweep covers the combinatorial cases through both
  transports (shared memory and the on-disk spill);
* **scope** — a segment is reachable only inside its ``with`` block;
* **lifecycle** — no shared-memory segment may survive a ``map_table``
  call: not after success, not after a genuine worker crash (broken
  pool), not under injected ``parallel.worker`` faults;
* **semantics** — ``map_table`` returns the serial result in row order,
  falls back serially on pool failure (counted in ``fallbacks``), and
  ships descriptors that are orders of magnitude smaller than the
  pickled rows they replace.
"""

import functools
import os
import pickle

import numpy as np
import pytest

from repro.dataset.table import Column, Table
from repro.faults import FaultInjector, FaultPlan
from repro.perf import ParallelMap, SharedTable, TableSlice, attach_slice
from repro.perf.parallel import feature_matrix
from repro.perf.shm import encode_table
from repro.perf.spill import SpillFile, write_spill

_SHM_DIR = "/dev/shm"

_PARENT_PID = os.getpid()


def _segments() -> set[str]:
    """The shared-memory segments currently visible to this process."""
    if not os.path.isdir(_SHM_DIR):  # non-Linux: skip leak accounting
        pytest.skip("no /dev/shm to observe segment lifecycle")
    return {name for name in os.listdir(_SHM_DIR) if name.startswith("psm_")}


def _double_x(chunk: Table) -> list:
    return [v * 2.0 for v in chunk["x"]]


def _upper_s(chunk: Table) -> list:
    return [None if v is None else v.upper() for v in chunk["s"]]


def _die_in_worker(chunk: Table) -> list:
    """Hard-crash the worker process (never the parent's serial path)."""
    if os.getpid() != _PARENT_PID:
        os._exit(1)
    return [v * 2.0 for v in chunk["x"]]


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
    def test_mixed_table_identical(self):
        table = _mixed_table()
        with SharedTable.create(table) as shared:
            back = attach_slice(shared.descriptor())
        assert back == table

    def test_numeric_nan_preserved(self):
        table = Table([Column.numeric("x", [float("nan")] * 3 + [2.0])])
        with SharedTable.create(table) as shared:
            back = attach_slice(shared.descriptor())
        assert np.isnan(back["x"][:3]).all()
        assert back["x"][3] == 2.0

    def test_text_none_distinct_from_empty_string(self):
        table = Table([Column.text("s", ["", None, "", None])])
        with SharedTable.create(table) as shared:
            back = attach_slice(shared.descriptor())
        assert list(back["s"]) == ["", None, "", None]

    def test_categorical_none_and_vocab_order(self):
        table = Table([Column.categorical("c", [None, "B", "A", "B", None])])
        with SharedTable.create(table) as shared:
            back = attach_slice(shared.descriptor())
        assert list(back["c"]) == [None, "B", "A", "B", None]

    def test_empty_table(self):
        table = Table(
            [
                Column.numeric("x", []),
                Column.categorical("c", []),
                Column.text("s", []),
            ]
        )
        with SharedTable.create(table) as shared:
            back = attach_slice(shared.descriptor())
        assert back == table
        assert back.n_rows == 0
        assert back.column_names == ["x", "c", "s"]

    def test_row_range_slices(self):
        table = _mixed_table()
        with SharedTable.create(table) as shared:
            lo_hi = attach_slice(shared.descriptor((1, 4)))
        assert lo_hi.n_rows == 3
        assert np.isnan(lo_hi["x"][0])
        assert list(lo_hi["c"]) == [None, "B", "A"]
        assert list(lo_hi["s"]) == ["", None, "caffè"]

    def test_descriptor_rejects_bad_range(self):
        with SharedTable.create(_mixed_table()) as shared:
            with pytest.raises(ValueError):
                shared.descriptor((2, 99))
            with pytest.raises(ValueError):
                shared.descriptor((-1, 2))

    @pytest.mark.parametrize(
        "case, transport",
        [pytest.param(case, "shm", id=str(case)) for case in _SWEEP_CASES]
        + [
            pytest.param(case, "spill", id=f"spill-{case}")
            for case in _SWEEP_CASES
        ],
    )
    def test_randomized_tables_round_trip(self, case, transport, tmp_path):
        # seeded property sweep through either transport's wire form
        rng = np.random.default_rng(case if isinstance(case, int) else 0)
        table = _sweep_table(case, rng)
        n = table.n_rows
        if transport == "shm":
            with SharedTable.create(table) as shared:
                back = attach_slice(shared.descriptor())
                # and an arbitrary interior slice
                lo = int(rng.integers(0, n + 1))
                hi = int(rng.integers(lo, n + 1))
                part = attach_slice(shared.descriptor((lo, hi)))
            assert list(part["s"]) == list(table["s"][lo:hi])
        else:
            path = tmp_path / "sweep.spill"
            write_spill(table, path)
            with SpillFile.open(path) as spill:
                back = spill.to_table()
                # and a projected read, in a different column order
                part = spill.to_table(["s", "x"])
            assert part == table.select(["s", "x"])
        assert back == table


class TestScopedAccess:
    """A segment is reachable only inside its ``with`` block, so no
    descriptor of an unlinked segment reaches a worker (the spill map's
    twin tests live in ``tests/test_shards.py``)."""

    def test_descriptor_before_entry_raises(self):
        before = _segments()
        shared = SharedTable.create(_mixed_table())
        with pytest.raises(RuntimeError):
            shared.descriptor()
        with pytest.raises(RuntimeError):
            shared.name
        with shared:  # entering later still works, and releases the segment
            assert attach_slice(shared.descriptor()) == _mixed_table()
        assert _segments() == before

    def test_descriptor_after_exit_raises(self):
        with SharedTable.create(_mixed_table()) as shared:
            pass
        with pytest.raises(RuntimeError):
            shared.descriptor()
        with pytest.raises(RuntimeError):  # a released table cannot re-enter
            shared.__enter__()

    def test_with_is_the_only_release(self):
        assert not hasattr(SharedTable, "close")
        assert not hasattr(SharedTable, "unlink")
        assert not hasattr(SpillFile, "close")


class TestLifecycle:
    def test_context_manager_unlinks(self):
        before = _segments()
        with SharedTable.create(_mixed_table()) as shared:
            assert shared.name.lstrip("/") in _segments()
        assert _segments() == before

    def test_map_table_success_leaves_no_segment(self):
        before = _segments()
        executor = ParallelMap(n_jobs=2, min_parallel_items=4)
        table = Table([Column.numeric("x", np.arange(64.0))])
        out = executor.map_table(_double_x, table)
        assert out == list(np.arange(64.0) * 2.0)
        assert _segments() == before

    def test_map_table_worker_crash_leaves_no_segment(self):
        before = _segments()
        executor = ParallelMap(n_jobs=2, min_parallel_items=4)
        table = Table([Column.numeric("x", np.arange(64.0))])
        out = executor.map_table(_die_in_worker, table)
        # broken pool -> serial fallback, still the right answer
        assert out == list(np.arange(64.0) * 2.0)
        assert executor.fallbacks == 1
        assert "BrokenProcessPool" in executor.last_fallback_reason
        assert _segments() == before

    def test_map_table_injected_faults_leave_no_segment(self):
        before = _segments()
        injector = FaultInjector(FaultPlan.parse("parallel.worker:crash"))
        executor = ParallelMap(
            n_jobs=2, min_parallel_items=4, injector=injector
        )
        table = Table([Column.numeric("x", np.arange(64.0))])
        out = executor.map_table(_double_x, table)
        assert out == list(np.arange(64.0) * 2.0)
        assert executor.fallbacks == 1
        assert injector.injections("parallel.worker") >= 1
        assert _segments() == before

    def test_create_failure_cleans_up(self, monkeypatch):
        # force the buffer copy to explode after the segment exists: the
        # factory must close+unlink before re-raising
        before = _segments()
        import repro.perf.shm as shm_mod

        real_cls = shm_mod.shared_memory.SharedMemory
        proxies = []

        class ExplodingSegment:
            def __init__(self, create=False, size=0):
                self._real = real_cls(create=create, size=size)
                self.closed = False
                self.unlinked = False
                proxies.append(self)

            @property
            def buf(self):
                raise ValueError("injected write failure")

            @property
            def name(self):
                return self._real.name

            def close(self):
                self.closed = True
                self._real.close()

            def unlink(self):
                self.unlinked = True
                self._real.unlink()

        monkeypatch.setattr(
            shm_mod.shared_memory, "SharedMemory", ExplodingSegment
        )
        with pytest.raises(ValueError, match="injected write failure"):
            SharedTable.create(_mixed_table())
        assert len(proxies) == 1
        assert proxies[0].closed and proxies[0].unlinked
        assert _segments() == before


class TestMapTable:
    def test_matches_serial_in_order(self):
        values = [f"via {i}" if i % 3 else None for i in range(100)]
        table = Table([Column.text("s", values)])
        serial = list(_upper_s(table))
        executor = ParallelMap(n_jobs=2, min_parallel_items=8)
        assert executor.map_table(_upper_s, table) == serial

    def test_small_input_stays_serial(self):
        executor = ParallelMap(n_jobs=4, min_parallel_items=512)
        table = Table([Column.numeric("x", np.arange(10.0))])
        out = executor.map_table(_double_x, table)
        assert out == list(np.arange(10.0) * 2.0)
        assert executor.shm_bytes == 0  # never touched shared memory

    def test_empty_table_returns_empty(self):
        executor = ParallelMap(n_jobs=2, min_parallel_items=0)
        table = Table([Column.numeric("x", [])])
        assert executor.map_table(_double_x, table) == []

    def test_initializer_runs_on_fallback(self):
        injector = FaultInjector(FaultPlan.parse("parallel.worker:crash"))
        executor = ParallelMap(
            n_jobs=2, min_parallel_items=4, injector=injector
        )
        table = Table([Column.numeric("x", np.arange(32.0))])
        ran = []
        out = executor.map_table(
            _double_x, table, initializer=ran.append, initargs=("init",)
        )
        assert out == list(np.arange(32.0) * 2.0)
        assert ran == ["init"]  # fallback initialized inline exactly once

    def test_shard_ranges_mirror_shard(self):
        executor = ParallelMap(n_jobs=3, min_parallel_items=1)
        for n in (1, 5, 97, 512, 1000):
            items = list(range(n))
            chunks = executor.shard(items)
            ranges = executor.shard_ranges(n)
            assert len(chunks) == len(ranges)
            assert [len(c) for c in chunks] == [hi - lo for lo, hi in ranges]
            assert ranges[0][0] == 0 and ranges[-1][1] == n

    def test_descriptor_payload_is_tiny(self):
        values = [f"via Pietro Giuria {i}" for i in range(4096)]
        table = Table([Column.text("s", values)])
        with SharedTable.create(table) as shared:
            descriptor_bytes = len(pickle.dumps(shared.descriptor()))
        pickled_rows = len(pickle.dumps(values))
        # the descriptor replaces the pickled rows as the IPC payload
        assert descriptor_bytes < pickled_rows / 100
        assert descriptor_bytes < 2000

    def test_counters_track_shm_traffic(self):
        executor = ParallelMap(n_jobs=2, min_parallel_items=4)
        table = Table([Column.numeric("x", np.arange(256.0))])
        executor.map_table(_double_x, table)
        assert executor.shm_bytes == 256 * 8
        assert executor.descriptor_bytes > 0
        assert executor.encode_seconds >= 0.0

    def test_slice_descriptor_is_plain_data(self):
        with SharedTable.create(_mixed_table()) as shared:
            descriptor = shared.descriptor((1, 3))
            clone = pickle.loads(pickle.dumps(descriptor))
            assert isinstance(clone, TableSlice)
            assert clone == descriptor
            back = attach_slice(clone)
        assert back.n_rows == 2


def _wide_table(n: int = 600) -> Table:
    """A table wider than any chunk function reads, with NaN and None."""
    rng = np.random.default_rng(7)
    a = rng.normal(size=n)
    a[rng.random(n) < 0.1] = np.nan
    group = rng.integers(0, 4, n).astype(float)
    group[rng.random(n) < 0.05] = np.nan
    return Table(
        [
            Column.numeric("a", a),
            Column.numeric("b", rng.normal(size=n)),
            Column.numeric("g", group),
            Column.categorical(
                "district", [None if i % 13 == 0 else f"D{i % 5}" for i in range(n)]
            ),
            Column.text("note", [f"unread note {i}" for i in range(n)]),
            Column.numeric("unused", rng.normal(size=n)),
        ]
    )


def _matrix_rows(names: tuple, chunk: Table) -> list:
    return list(chunk.to_matrix(list(names)))


def _key_value_pairs(by: str, name: str, chunk: Table) -> list:
    """The ``(group key, value)`` rows a grouped mean reads."""
    return list(zip(chunk[by].tolist(), chunk[name].tolist()))


class TestColumnProjection:
    """``map_table`` encodes exactly the columns of the table it is handed,
    so a caller that passes a ``select`` of the columns its chunk function
    reads (as address resolution does) ships only those; the per-row
    results over the projection equal the serial ones."""

    @staticmethod
    def _encoded_size(table: Table, names: list[str]) -> int:
        return encode_table(table.select(names))[2]

    @pytest.mark.parametrize(
        "names", [["a", "b"], ["b", "a", "b"], ["a", "a", "a"], ["g"]]
    )
    def test_feature_matrix_ships_projected_columns(self, names):
        table = _wide_table()
        read = list(dict.fromkeys(names))
        executor = ParallelMap(n_jobs=2, min_parallel_items=8)
        rows = executor.map_table(
            functools.partial(_matrix_rows, tuple(names)), table.select(read)
        )
        assert executor.fallbacks == 0
        np.testing.assert_array_equal(np.vstack(rows), feature_matrix(table, names))
        assert executor.shm_bytes == self._encoded_size(table, read)

    @pytest.mark.parametrize(
        "by, name", [("district", "a"), ("g", "b"), ("a", "a"), ("g", "g")]
    )
    def test_grouped_mean_ships_projected_columns(self, by, name):
        table = _wide_table()
        read = list(dict.fromkeys([by, name]))
        executor = ParallelMap(n_jobs=2, min_parallel_items=8)
        pairs = executor.map_table(
            functools.partial(_key_value_pairs, by, name), table.select(read)
        )
        assert executor.fallbacks == 0
        # repr: NaN keys and values compare equal as text
        assert repr(pairs) == repr(_key_value_pairs(by, name, table))
        assert executor.shm_bytes == self._encoded_size(table, read)
