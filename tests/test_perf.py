"""Tests for the performance layer: executor, stage cache, parallel cleaning."""

import dataclasses
import functools
import os
from types import SimpleNamespace

import numpy as np
import pytest

from repro import Indice, IndiceConfig
from repro.dataset import (
    NoiseConfig,
    SyntheticConfig,
    apply_noise,
    generate_epc_collection,
)
from repro.dataset.table import Column, ColumnKind, Table
from repro.perf import parallel as parallel_module
from repro.perf import (
    ParallelMap,
    StageCache,
    fingerprint_table,
    fingerprint_value,
)
from repro.analytics.rules import RuleConstraints, RuleTemplate
from repro.core.config import (
    ANALYZE_FIELDS,
    PREPROCESS_FIELDS,
    knob,
    stage_tagged,
)
from repro.faults.policy import ResiliencePolicy
from repro.preprocessing.address_cleaner import AddressCleaner, CleaningConfig
from repro.preprocessing.outliers import OutlierMethod


def _square(state, x):
    return x * x


def _tag_worker(state, x):
    return ("tagged", x)


_PARENT_PID = os.getpid()


def _die_in_worker(state, x):
    """Hard-crash a worker process (never the parent's serial path)."""
    if os.getpid() != _PARENT_PID:
        os._exit(1)
    return x * x


def _raise_on_three(state, x):
    if x == 3:
        raise ValueError(f"bad item {x}")
    return x


def _offset_state(value):
    return {"offset": value, "pid": os.getpid()}


def _add_offset(state, x):
    return x + state["offset"]


def _state_pid(state, x):
    return state["pid"]


def _scale(state, x):
    factor, shift = state
    return x * factor + shift


def _shifted(shift, state, x):
    return x + shift


def _nested_function():
    def inner(state, x):
        return x

    return inner


@pytest.fixture(scope="module")
def small_collection():
    collection = generate_epc_collection(
        SyntheticConfig(n_certificates=600, seed=11)
    )
    noisy = apply_noise(collection, NoiseConfig(seed=12))
    collection.table = noisy.table
    return collection


def _small_config(**overrides):
    base = dict(
        kmeans_n_init=2, k_range=(2, 4), run_multivariate_outliers=False
    )
    base.update(overrides)
    return IndiceConfig(**base)


class TestParallelMap:
    def test_serial_fallback_small_input(self):
        ex = ParallelMap(n_jobs=4, min_parallel_items=100)
        assert not ex.should_parallelize(10)
        assert ex.map(_square, range(10)) == [x * x for x in range(10)]

    def test_serial_when_one_job(self):
        ex = ParallelMap(n_jobs=1, min_parallel_items=0)
        assert not ex.should_parallelize(10_000)
        assert ex.map(_square, range(5)) == [0, 1, 4, 9, 16]

    def test_parallel_preserves_order(self):
        ex = ParallelMap(n_jobs=2, min_parallel_items=1)
        assert ex.should_parallelize(50)
        assert ex.map(_square, range(50)) == [x * x for x in range(50)]

    def test_zero_jobs_resolves_to_cores(self):
        assert ParallelMap(n_jobs=0).resolve_jobs() >= 1
        assert ParallelMap(n_jobs=-1).resolve_jobs() >= 1

    def test_shard_covers_all_items_in_order(self):
        # chunk size is ceil(n / (jobs * 4)): 3 jobs -> at most 12 chunks
        ex = ParallelMap(n_jobs=3)
        for n, sizes in [
            (10, [1] * 10),            # ceil(10 / 12) = 1
            (12, [1] * 12),
            (13, [2] * 6 + [1]),       # ceil(13 / 12) = 2
            (100, [9] * 11 + [1]),     # ceil(100 / 12) = 9
        ]:
            chunks = ex.shard(list(range(n)))
            assert [len(c) for c in chunks] == sizes
            assert [x for c in chunks for x in c] == list(range(n))

    def test_empty_input(self):
        assert ParallelMap(n_jobs=2, min_parallel_items=0).map(_square, []) == []

    def test_parallel_map_with_function_results(self):
        ex = ParallelMap(n_jobs=2, min_parallel_items=1)
        out = ex.map(_tag_worker, ["a", "b", "c"])
        assert out == [("tagged", "a"), ("tagged", "b"), ("tagged", "c")]


class TestParallelMapRejectsUnpicklableCallables:
    """A lambda or a ``<locals>`` function cannot reach a pool worker, so
    the serial path rejects it too: a map never works only at one job."""

    CALLABLES = {
        "lambda": lambda state, x: x,
        "nested": _nested_function(),
        "partial-of-lambda": functools.partial(lambda a, state, x: x, 1),
        "partial-of-nested": functools.partial(_nested_function()),
    }

    @pytest.mark.parametrize("n_jobs", [1, 2])
    @pytest.mark.parametrize("name", sorted(CALLABLES))
    def test_map_and_map_tasks_reject(self, name, n_jobs):
        ex = ParallelMap(n_jobs=n_jobs, min_parallel_items=1)
        func = self.CALLABLES[name]
        with pytest.raises(TypeError, match="module-level"):
            ex.map(func, range(8))
        with pytest.raises(TypeError, match="module-level"):
            ex.map_tasks(func, range(3))
        with pytest.raises(TypeError, match="module-level"):
            ex.map(_square, range(8), setup=func)
        assert ex.fallbacks == 0

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_partial_of_a_module_level_function_is_accepted(self, n_jobs):
        ex = ParallelMap(n_jobs=n_jobs, min_parallel_items=1)
        func = functools.partial(_shifted, 10)
        assert ex.map(func, range(4)) == [10, 11, 12, 13]


class TestParallelMapFailureModes:
    """A crash of the *infrastructure* is recoverable (serial fallback);
    a bug in the *mapped function* is not — it propagates unchanged."""

    def test_mapped_function_exception_propagates_parallel(self):
        ex = ParallelMap(n_jobs=2, min_parallel_items=1)
        with pytest.raises(ValueError, match="bad item 3"):
            ex.map(_raise_on_three, range(10))
        assert ex.fallbacks == 0  # a bug must never be retried serially

    def test_mapped_function_exception_propagates_serial(self):
        ex = ParallelMap(n_jobs=1)
        with pytest.raises(ValueError, match="bad item 3"):
            ex.map(_raise_on_three, range(10))

    def test_n_jobs_one_equivalent_with_initializer(self):
        # the setup builds the state each call of the mapped function sees
        serial = ParallelMap(n_jobs=1)
        parallel = ParallelMap(n_jobs=2, min_parallel_items=1)
        setup = dict(setup=_offset_state, args=(7,))
        a = serial.map(_add_offset, range(30), **setup)
        b = parallel.map(_add_offset, range(30), **setup)
        assert a == b == [x + 7 for x in range(30)]
        # without a setup the state is the args themselves
        assert serial.map_tasks(_scale, range(5), args=(3, 1)) == (
            parallel.map_tasks(_scale, range(5), args=(3, 1))
        ) == [3 * x + 1 for x in range(5)]

    def test_state_is_built_in_each_worker_and_never_in_the_parent(self):
        ex = ParallelMap(n_jobs=2, min_parallel_items=1)
        pids = ex.map(_state_pid, range(40), setup=_offset_state, args=(0,))
        assert os.getpid() not in pids
        assert parallel_module._WORKER_STATE is None
        serial = ParallelMap(n_jobs=1)
        assert set(
            serial.map(_state_pid, range(3), setup=_offset_state, args=(0,))
        ) == {os.getpid()}
        assert parallel_module._WORKER_STATE is None

    def test_worker_death_falls_back_serially(self):
        # a genuinely dead worker breaks the pool: the map is recomputed
        # inline, bit-identical, and the fallback is counted
        ex = ParallelMap(n_jobs=2, min_parallel_items=1)
        assert ex.map(_die_in_worker, range(20)) == [x * x for x in range(20)]
        assert ex.fallbacks == 1
        assert "BrokenProcessPool" in ex.last_fallback_reason

    def test_fallback_reruns_initializer(self):
        from repro.faults import FaultInjector

        ex = ParallelMap(
            n_jobs=2, min_parallel_items=1,
            injector=FaultInjector("parallel.worker:crash*1"),
        )
        out = ex.map(_add_offset, range(20), setup=_offset_state, args=(5,))
        assert out == [x + 5 for x in range(20)]
        assert ex.fallbacks == 1

    def test_empty_input_parallel_with_initializer(self):
        ex = ParallelMap(n_jobs=2, min_parallel_items=0)
        assert ex.map(_add_offset, [], setup=_offset_state, args=(3,)) == []

    def test_empty_input_never_spawns_pool(self):
        # an empty map must not pay process start-up nor touch fault sites
        from repro.faults import FaultInjector

        injector = FaultInjector("parallel.worker:crash")
        ex = ParallelMap(n_jobs=4, min_parallel_items=0, injector=injector)
        assert ex.map(_square, []) == []
        assert injector.events == []


class TestFingerprints:
    def _table(self, v="x"):
        return Table(
            [
                Column.numeric("n", [1.0, 2.0, None]),
                Column.text("t", ["a", v, None]),
                Column.categorical("c", ["p", "q", "p"]),
            ]
        )

    def test_identical_tables_same_fingerprint(self):
        assert fingerprint_table(self._table()) == fingerprint_table(self._table())

    def test_cell_change_changes_fingerprint(self):
        assert fingerprint_table(self._table("x")) != fingerprint_table(
            self._table("y")
        )

    def test_missing_vs_empty_string_distinct(self):
        a = Table([Column.text("t", [None])])
        b = Table([Column.text("t", [""])])
        assert fingerprint_table(a) != fingerprint_table(b)

    def test_numeric_nan_stable(self):
        a = Table([Column.numeric("n", [None, 1.5])])
        b = Table([Column.numeric("n", [None, 1.5])])
        assert fingerprint_table(a) == fingerprint_table(b)

    def test_fingerprint_value_canonicalizes_dict_order(self):
        assert fingerprint_value({"a": 1, "b": 2}) == fingerprint_value(
            {"b": 2, "a": 1}
        )


#: One non-default value per IndiceConfig field, with the stage keys that
#: flipping it must move.  These sets are the stage-cache key contract:
#: moving a field between them invalidates (or wrongly reuses) entries.
_PRE, _ANA = "preprocess", "analyze"
FIELD_FLIPS = {
    "city": ("Milan", {_PRE, _ANA}),
    "building_type": ("E.1.2", {_ANA}),
    "features": (("aspect_ratio", "eta_h"), {_PRE, _ANA}),
    "response": ("energy_class", {_PRE, _ANA}),
    "cleaning": (CleaningConfig(phi=0.9), {_PRE}),
    "geocoder_quota": (10, {_PRE}),
    "outlier_method": (OutlierMethod.GESD, {_PRE}),
    "outlier_params": ({"threshold": 3.0}, {_PRE}),
    "outlier_overrides": ({"eta_h": (OutlierMethod.GESD, {"alpha": 0.01})}, {_PRE}),
    "run_multivariate_outliers": (False, {_PRE}),
    "k_range": ((2, 6), {_ANA}),
    "kmeans_n_init": (3, {_ANA}),
    "seed": (1, {_ANA}),
    "discretization_plan": ({"eta_h": 2}, {_ANA}),
    "rule_constraints": (RuleConstraints(min_support=0.1), {_ANA}),
    "rule_template": (RuleTemplate(max_antecedent=2), {_ANA}),
    "correlation_threshold": (0.7, {_ANA}),
    "n_jobs": (8, set()),
    "stage_cache": (False, set()),
    "cache_dir": ("cache", set()),
    "spill_dir": ("spill", set()),
    "resilience": (ResiliencePolicy(geocoder_retries=0), set()),
}


class TestStageKeys:
    """The engine's per-stage config fingerprints follow the field tags."""

    @staticmethod
    def _keys(config):
        stub = SimpleNamespace(config=config)
        return {
            _PRE: Indice._config_fingerprint(stub, PREPROCESS_FIELDS),
            _ANA: Indice._config_fingerprint(stub, ANALYZE_FIELDS),
        }

    def test_table_covers_every_field(self):
        assert set(FIELD_FLIPS) == {f.name for f in dataclasses.fields(IndiceConfig)}

    @pytest.mark.parametrize("name", sorted(FIELD_FLIPS))
    def test_flipping_a_field_moves_exactly_its_stage_keys(self, name):
        value, stages = FIELD_FLIPS[name]
        assert getattr(IndiceConfig(), name) != value
        base = self._keys(IndiceConfig())
        flipped = self._keys(IndiceConfig(**{name: value}))
        assert {stage for stage in base if base[stage] != flipped[stage]} == stages

    def test_untagged_field_raises_at_class_creation(self):
        with pytest.raises(TypeError, match="untagged declare no stages"):
            @stage_tagged
            @dataclasses.dataclass
            class Config:
                tagged: int = knob(0, stages=())
                untagged: int = 0


class TestStageCache:
    def test_memory_roundtrip(self):
        cache = StageCache()
        key = StageCache.key("stage", "abc")
        assert cache.get(key) == (False, None)
        cache.put(key, {"v": 1})
        assert cache.get(key) == (True, {"v": 1})
        assert cache.hits == 1 and cache.misses == 1

    def test_distinct_fingerprints_distinct_keys(self):
        assert StageCache.key("s", "a", "b") != StageCache.key("s", "a", "c")
        assert StageCache.key("s1", "a") != StageCache.key("s2", "a")

    def test_disk_persistence_across_instances(self, tmp_path):
        key = StageCache.key("stage", "fp")
        first = StageCache(tmp_path)
        first.put(key, [1, 2, 3])
        second = StageCache(tmp_path)  # fresh memory, same directory
        assert second.get(key) == (True, [1, 2, 3])

    def test_clear_keeps_disk(self, tmp_path):
        cache = StageCache(tmp_path)
        key = StageCache.key("stage", "fp")
        cache.put(key, "value")
        cache.clear()
        assert cache.get(key) == (True, "value")  # reloaded from disk


class TestEngineStageCache:
    def test_preprocess_hit_on_identical_inputs(self, small_collection):
        engine = Indice(small_collection, _small_config())
        first = engine.preprocess()
        second = engine.preprocess()
        assert second is first  # the memoized outcome object itself
        assert engine.cache.hits == 1
        cached_steps = engine.log.for_stage("preprocessing")
        assert any(s.action == "merge_cache" for s in cached_steps)

    def test_shared_cache_across_engines(self, small_collection):
        cache = StageCache()
        a = Indice(small_collection, _small_config(), cache=cache)
        b = Indice(small_collection, _small_config(), cache=cache)
        outcome = a.preprocess()
        assert b.preprocess() is outcome

    def test_miss_after_config_field_change(self, small_collection):
        cache = StageCache()
        a = Indice(small_collection, _small_config(), cache=cache)
        a.preprocess()
        changed = _small_config(cleaning=CleaningConfig(phi=0.9))
        b = Indice(small_collection, changed, cache=cache)
        b.preprocess()
        assert cache.misses == 2  # second engine could not reuse the entry

    def test_miss_after_cell_change(self, small_collection):
        cache = StageCache()
        a = Indice(small_collection, _small_config(), cache=cache)
        a.preprocess()

        table = small_collection.table
        values = np.array(table["heated_surface"], dtype=np.float64)
        values[0] = (values[0] if not np.isnan(values[0]) else 0.0) + 1.0
        mutated = table.with_column(
            Column("heated_surface", ColumnKind.NUMERIC, values)
        ).select(table.column_names)
        b = Indice(small_collection, _small_config(), cache=cache)
        b.preprocess(mutated)
        assert cache.misses == 2

    def test_analyze_hit_and_equivalence(self, small_collection):
        engine = Indice(small_collection, _small_config())
        engine.preprocess()
        first = engine.analyze()
        second = engine.analyze()
        assert second is first
        assert any(
            s.action == "stage_cache" for s in engine.log.for_stage("analytics")
        )

    def test_cache_disabled_recomputes(self, small_collection):
        engine = Indice(small_collection, _small_config(stage_cache=False))
        assert engine.cache is None
        first = engine.preprocess()
        second = engine.preprocess()
        assert second is not first
        assert second.table.column_names == first.table.column_names

    def test_cached_outcome_identical_to_recomputed(self, small_collection):
        cached = Indice(small_collection, _small_config())
        uncached = Indice(small_collection, _small_config(stage_cache=False))
        a = cached.preprocess()
        a_again = cached.preprocess()  # hit
        b = uncached.preprocess()
        for name in ("address", "zip_code"):
            assert list(a_again.table[name]) == list(b.table[name])
        assert a_again.n_rows_out == b.n_rows_out
        assert a.table.column_names == b.table.column_names

    def test_timing_counters_recorded(self, small_collection):
        engine = Indice(small_collection, _small_config())
        engine.preprocess()
        engine.analyze()
        timed = [s for s in engine.log.steps if s.elapsed_s is not None]
        assert {"geospatial_cleaning", "stage_complete"} <= {
            s.action for s in timed
        }
        assert all(s.elapsed_s >= 0 for s in timed)
        assert any(s.rows_per_s and s.rows_per_s > 0 for s in timed)
        assert engine.log.total_elapsed("preprocessing") > 0


class TestParallelCleaning:
    def test_parallel_identical_to_serial(self, small_collection):
        mask = np.array([c == "Turin" for c in small_collection.table["city"]])
        turin = small_collection.table.where(mask)

        serial = AddressCleaner(
            small_collection.street_map, CleaningConfig(use_geocoder=False)
        )
        parallel = AddressCleaner(
            small_collection.street_map,
            CleaningConfig(use_geocoder=False),
            executor=ParallelMap(n_jobs=2, min_parallel_items=1),
        )
        a = serial.clean_table(turin)
        b = parallel.clean_table(turin)

        for name in ("address", "house_number", "zip_code"):
            assert list(a.table[name]) == list(b.table[name])
        for name in ("latitude", "longitude"):
            np.testing.assert_array_equal(a.table[name], b.table[name])
        assert len(a.audits) == len(b.audits)
        for left, right in zip(a.audits, b.audits):
            assert left.status is right.status
            assert left.similarity == right.similarity
            assert left.resolved_street == right.resolved_street
            assert left.repaired_fields == right.repaired_fields

    def test_engine_n_jobs_matches_serial(self, small_collection):
        serial = Indice(small_collection, _small_config(stage_cache=False))
        parallel_cfg = _small_config(stage_cache=False, n_jobs=2)
        parallel = Indice(small_collection, parallel_cfg)
        parallel.executor.min_parallel_items = 1
        a = serial.preprocess()
        b = parallel.preprocess()
        assert a.n_rows_out == b.n_rows_out
        for name in ("address", "zip_code", "latitude"):
            if a.table.kind(name) is ColumnKind.NUMERIC:
                np.testing.assert_array_equal(a.table[name], b.table[name])
            else:
                assert list(a.table[name]) == list(b.table[name])
