"""Sharded pipeline tier: spill codec, shard plans, merge equivalence.

The tier's one invariant — the property these tests pin down from every
angle — is **bit-identity**: for *any* shard partitioning (1, 4 or 17
parts, by-district, by-zip; generated per shard or sliced from a resident
table), the sharded run's merged output satisfies ``Table.__eq__``
against the one-shard plan (``Indice.preprocess``, serial) over the same
rows, including under injected worker crashes and spill-write faults (a
shard retry must never duplicate or drop a row).
"""

import dataclasses
import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro import Indice, IndiceConfig
from repro.dataset import (
    NoiseConfig,
    SyntheticConfig,
    apply_noise,
    generate_epc_collection,
)
from repro.dataset.synthetic import (
    ShardRecipe,
    generate_epc_shard,
    merge_epc_collections,
    plan_generation_shards,
)
from repro.core import engine as engine_module
from repro.core.report import generate_report
from repro.dataset.table import Column
from repro.faults import FaultInjector, FaultPlan, ResiliencePolicy
from repro.perf import parallel as parallel_module
from repro.perf import shards as shards_module
from repro.perf.cache import StageCache
from repro.perf.shards import ShardPlan, ShardRunner
from repro.perf.spill import SpillError, SpillFile, write_spill
from repro.preprocessing.address_cleaner import AddressCleaner
from repro.preprocessing.quality import assess_quality

N = 1600
SEED = 17

#: Quota high enough that it never binds: per-shard cleaning is then a
#: pure per-row function and sharded output is provably bit-identical
#: (the documented equivalence caveat).
QUOTA = 10**9


def _dirty_collection(n=N, seed=SEED):
    clean = generate_epc_collection(SyntheticConfig(n_certificates=n, seed=seed))
    noisy = apply_noise(clean, NoiseConfig(seed=seed + 1))
    return dataclasses.replace(clean, table=noisy.table)


def _config(**overrides):
    base = dict(geocoder_quota=QUOTA, stage_cache=False)
    base.update(overrides)
    return IndiceConfig(**base)


@pytest.fixture(scope="module")
def collection():
    return _dirty_collection()


@pytest.fixture(scope="module")
def monolithic(collection):
    """The one-shard plan, serial, over the shared dirty collection."""
    engine = Indice(collection, _config())
    preprocessing = engine.preprocess()
    analytics = engine.analyze()
    return preprocessing, analytics, engine.log


def _outlier_details(log):
    """The provenance details of the global outlier pass, in log order."""
    return [
        (step.action, step.detail)
        for step in log.steps
        if step.action in ("univariate_outliers", "multivariate_outliers")
    ]


# ---------------------------------------------------------------------------
# spill codec
# ---------------------------------------------------------------------------


class TestSpillCodec:
    def test_round_trip_bit_identical(self, collection, tmp_path):
        path = tmp_path / "table.spill"
        size = write_spill(collection.table, path)
        assert path.stat().st_size == size
        with SpillFile.open(path) as spill:
            assert spill.n_rows == collection.table.n_rows
            assert spill.column_names == collection.table.column_names
            spill.verify()
            assert spill.to_table() == collection.table

    def test_column_projection_reads(self, collection, tmp_path):
        path = tmp_path / "table.spill"
        write_spill(collection.table, path)
        with SpillFile.open(path) as spill:
            narrow = spill.to_table(["eph", "district"])
            assert narrow.column_names == ["eph", "district"]
            assert narrow.column("eph") == collection.table.column("eph")
            assert narrow.column("district") == collection.table.column("district")

    def test_truncated_file_raises(self, collection, tmp_path):
        path = tmp_path / "table.spill"
        write_spill(collection.table, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(SpillError):
            SpillFile.open(path)

    def test_corrupted_payload_fails_verify(self, collection, tmp_path):
        path = tmp_path / "table.spill"
        write_spill(collection.table, path)
        data = bytearray(path.read_bytes())
        data[-20] ^= 0xFF  # flip one payload byte, keep the size intact
        path.write_bytes(bytes(data))
        with SpillFile.open(path) as spill:
            with pytest.raises(SpillError):
                spill.verify()

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(SpillError):
            SpillFile.open(tmp_path / "absent.spill")

    def test_closed_spill_refuses_reads(self, collection, tmp_path):
        path = tmp_path / "table.spill"
        write_spill(collection.table, path)
        with SpillFile.open(path) as spill:
            pass
        for read in (lambda: spill.column("eph"), spill.to_table, spill.verify):
            with pytest.raises(SpillError):
                read()
        with pytest.raises(SpillError):  # a released spill cannot re-enter
            spill.__enter__()
        assert not hasattr(SpillFile, "close")  # `with` is the only release

    def test_unentered_spill_refuses_reads(self, collection, tmp_path):
        path = tmp_path / "table.spill"
        write_spill(collection.table, path)
        spill = SpillFile.open(path)
        for read in (lambda: spill.column("eph"), spill.to_table, spill.verify):
            with pytest.raises(SpillError):
                read()
        with spill:  # entering later still works, and releases the map
            assert spill.to_table() == collection.table

    def test_injected_write_fault_leaves_no_file(self, collection, tmp_path):
        injector = FaultInjector(FaultPlan.parse("dataset.write:io_error"))
        path = tmp_path / "table.spill"
        with pytest.raises(Exception):
            write_spill(collection.table, path, injector)
        assert not path.exists()
        assert not list(tmp_path.iterdir())  # no temp file debris either

    def test_injected_read_corruption_raises(self, collection, tmp_path):
        path = tmp_path / "table.spill"
        write_spill(collection.table, path)
        injector = FaultInjector(FaultPlan.parse("dataset.read:corrupt"))
        with pytest.raises(SpillError):
            SpillFile.open(path, injector)


# ---------------------------------------------------------------------------
# shard plans
# ---------------------------------------------------------------------------


class TestShardPlans:
    def test_generation_shards_partition_the_total(self):
        cfg = SyntheticConfig(n_certificates=5000, seed=3)
        for by in ("by-district", "by-zip", 7):
            recipes = plan_generation_shards(cfg, by)
            assert sum(r.n_certificates for r in recipes) == 5000
            assert len({r.key for r in recipes}) == len(recipes)

    def test_shard_bytes_independent_of_siblings(self):
        """Shard N's bytes are identical whether generated alone or in a
        full sweep — the property that makes shard-granular caching
        sound."""
        cfg = SyntheticConfig(n_certificates=2000, seed=5)
        recipes = plan_generation_shards(cfg, "by-district")
        alone = generate_epc_shard(cfg, recipes[2])
        in_sweep = [generate_epc_shard(cfg, r) for r in recipes]
        assert in_sweep[2].table == alone.table
        merged = merge_epc_collections(in_sweep)
        assert merged.table.n_rows == 2000
        ids = list(merged.table["certificate_id"])
        assert len(set(ids)) == len(ids)  # globally unique across shards

    def test_unknown_scheme_rejected(self, collection):
        with pytest.raises(ValueError):
            plan_generation_shards(SyntheticConfig(), "by-planet")
        with pytest.raises(ValueError):
            ShardPlan.from_collection(collection, "by-planet")

    def test_partition_covers_every_row_once(self, collection):
        for by in ("by-district", "by-zip", 5):
            plan = ShardPlan.from_collection(collection, by)
            rows = np.concatenate([s.original_rows() for s in plan.shards])
            assert len(rows) == collection.table.n_rows
            assert len(np.unique(rows)) == len(rows)
            assert plan.merged_input_table() == collection.table

    def test_per_shard_noise_is_keyed_and_stable(self):
        plan = ShardPlan.from_generator(
            SyntheticConfig(n_certificates=1000, seed=2), 4,
            noise=NoiseConfig(seed=9),
        )
        a = plan._shard_noise("part:00")
        b = plan._shard_noise("part:00")
        c = plan._shard_noise("part:01")
        assert a == b
        assert a.seed != c.seed

    def test_runner_rejects_foreign_collection(self, collection):
        plan = ShardPlan.from_collection(collection, 2)
        other = _dirty_collection(n=400, seed=99)
        with pytest.raises(ValueError):
            ShardRunner(Indice(other, _config()), plan)


# ---------------------------------------------------------------------------
# merge equivalence (the tier's core property)
# ---------------------------------------------------------------------------


class TestShardedEquivalence:
    @pytest.mark.parametrize("by", [1, 4, 17, "by-district", "by-zip"])
    def test_any_partitioning_merges_bit_identical(
        self, collection, monolithic, by, tmp_path
    ):
        plan = ShardPlan.from_collection(collection, by)
        config = _config(spill_dir=str(tmp_path / "spills"))
        engine = Indice(plan.collection, config)
        outcome = engine.run_sharded(plan)
        pre, analytics, mono_log = monolithic
        assert outcome.preprocessing.table == pre.table
        assert outcome.analytics.table == analytics.table
        assert outcome.analytics.rules == analytics.rules
        assert (
            outcome.analytics.clustering.chosen_k == analytics.clustering.chosen_k
        )
        # everything the shared global outlier pass produces
        sharded = outcome.preprocessing
        assert sharded.univariate_outliers.keys() == pre.univariate_outliers.keys()
        for name, result in pre.univariate_outliers.items():
            assert np.array_equal(sharded.univariate_outliers[name].mask, result.mask)
        assert pre.multivariate_noise is not None
        assert np.array_equal(sharded.multivariate_noise, pre.multivariate_noise)
        assert sharded.n_rows_in == pre.n_rows_in
        assert sharded.n_rows_out == pre.n_rows_out
        assert _outlier_details(engine.log) == _outlier_details(mono_log)

    def test_generator_mode_matches_monolithic_over_merged_input(self, tmp_path):
        synth = SyntheticConfig(n_certificates=1200, seed=23)
        plan = ShardPlan.from_generator(
            synth, "by-district", noise=NoiseConfig(seed=31)
        )
        config = _config(spill_dir=str(tmp_path / "spills"))
        outcome = Indice(plan.collection, config).run_sharded(plan)

        merged_input = plan.merged_input_table()
        mono_coll = dataclasses.replace(plan.collection, table=merged_input)
        engine = Indice(mono_coll, _config())
        pre = engine.preprocess()
        analytics = engine.analyze()
        assert outcome.preprocessing.table == pre.table
        assert outcome.analytics.table == analytics.table

    def test_narrow_columns_keep_analytics_identical(
        self, collection, monolithic, tmp_path
    ):
        """A narrow merge projection bounds memory without changing any
        analytic output (the million-row configuration)."""
        cfg = IndiceConfig()
        columns = tuple(
            dict.fromkeys(
                list(cfg.features)
                + [cfg.response, "city", "building_type", "district",
                   "neighbourhood", "latitude", "longitude",
                   "certificate_year"]
            )
        )
        plan = ShardPlan.from_collection(collection, 4, columns=columns)
        config = _config(spill_dir=str(tmp_path / "spills"))
        outcome = Indice(plan.collection, config).run_sharded(plan)
        __, analytics, __ = monolithic
        assert outcome.preprocessing.table.column_names == list(columns)
        assert outcome.analytics.clustering.chosen_k == analytics.clustering.chosen_k
        assert outcome.analytics.rules == analytics.rules
        for name in columns:
            assert outcome.analytics.table.column(name) == analytics.table.column(name)


class TestMergeSpillReads:
    def test_merge_opens_each_spill_once_per_column_pass(
        self, collection, monolithic, tmp_path, monkeypatch
    ):
        """The merge opens each spill once for the analysis columns and
        once for the merged table — not once per (column, shard) pair;
        the outlier pass slices the kept rows' features from the analysis
        columns it already holds."""
        opens = []
        original = SpillFile.open.__func__

        def counting_open(cls, path, injector=None):
            opens.append(path)
            return original(cls, path, injector)

        monkeypatch.setattr(SpillFile, "open", classmethod(counting_open))
        plan = ShardPlan.from_collection(collection, "by-district")
        config = _config(spill_dir=str(tmp_path / "spills"))
        outcome = Indice(plan.collection, config).run_sharded(plan)
        assert outcome.preprocessing.table == monolithic[0].table
        assert len(opens) == 2 * len(plan.shards)


# ---------------------------------------------------------------------------
# the merged outcome reports what the one-shard plan reports
# ---------------------------------------------------------------------------


def _assessed(plan, config):
    """``assess_quality`` over the plan's whole input, as the engine asks."""
    return assess_quality(
        plan.merged_input_table(),
        schema=plan.collection.schema,
        hierarchy=plan.collection.hierarchy,
        attributes=list(config.features)
        + [config.response, "certificate_id", "latitude", "longitude"],
    )


def _cleaning_section(report):
    return report.split("## Data cleaning")[1].split("## Feature check")[0]


class TestMergedReport:
    @pytest.mark.parametrize("source", ["by-district", 4, "generator"])
    def test_merged_quality_equals_the_whole_inputs(
        self, collection, source, tmp_path
    ):
        plan = (
            _generator_plan() if source == "generator"
            else ShardPlan.from_collection(collection, source)
        )
        config = _config(spill_dir=str(tmp_path / "spills"))
        outcome = Indice(plan.collection, config).run_sharded(plan)
        quality = outcome.preprocessing.quality
        assert quality == _assessed(plan, config)
        assert quality.n_rows == plan.n_rows

    def test_duplicate_straddling_two_shards_is_counted(
        self, collection, tmp_path
    ):
        table = collection.table
        ids = table.column("certificate_id")
        values = ids.values.copy()
        values[table.n_rows - 1] = values[0]  # row 0 is in part 0, the last in part 1
        duplicated = dataclasses.replace(
            collection,
            table=table.with_column(
                Column(ids.name, ids.kind, values)
            ).select(table.column_names),
        )
        plan = ShardPlan.from_collection(duplicated, 2)
        first, last = plan.shards
        assert 0 in first.original_rows()
        assert table.n_rows - 1 in last.original_rows()
        config = _config(spill_dir=str(tmp_path / "spills"))
        outcome = Indice(plan.collection, config).run_sharded(plan)
        expected = _assessed(plan, config)
        assert expected.n_duplicate_certificates == 1
        assert outcome.preprocessing.quality == expected

    def test_report_cleaning_section_matches_the_one_shard_plan(
        self, collection, tmp_path
    ):
        engine = Indice(collection, _config())
        engine.preprocess()
        engine.analyze()
        plan = ShardPlan.from_collection(collection, "by-district")
        sharded = Indice(plan.collection, _config(spill_dir=str(tmp_path)))
        outcome = sharded.run_sharded(plan)
        section = _cleaning_section(generate_report(sharded))
        assert section == _cleaning_section(generate_report(engine))
        n_city = int(np.sum(collection.table["city"] == engine.config.city))
        assert f"- {n_city} addresses checked" in section
        assert outcome.preprocessing.cleaning == engine._preprocessed.cleaning


# ---------------------------------------------------------------------------
# the one-shard plan keeps its rows in memory
# ---------------------------------------------------------------------------


class TestOneShardPlan:
    def test_uncached_preprocess_neither_spills_nor_fingerprints(
        self, collection, tmp_path, monkeypatch
    ):
        calls = []

        def forbidden(name):
            def record(*args, **kwargs):
                calls.append(name)
                raise AssertionError(f"{name} called")
            return record

        monkeypatch.setattr(shards_module, "write_spill", forbidden("write_spill"))
        for module in (shards_module, engine_module):
            monkeypatch.setattr(
                module, "fingerprint_table", forbidden("fingerprint_table")
            )
        spill_dir = tmp_path / "spills"
        engine = Indice(collection, _config(spill_dir=str(spill_dir)))
        outcome = engine.preprocess()
        assert calls == []
        assert not spill_dir.exists()
        assert outcome.n_rows_in == collection.table.n_rows
        assert not any(step.stage == "sharding" for step in engine.log.steps)

    def test_warm_preprocess_on_a_shared_cache_cleans_nothing(
        self, collection, monkeypatch
    ):
        cleaned = []
        clean_table = AddressCleaner.clean_table

        def counting(self, table):
            cleaned.append(table.n_rows)
            return clean_table(self, table)

        monkeypatch.setattr(AddressCleaner, "clean_table", counting)
        cache = StageCache()
        a = Indice(collection, _config(stage_cache=True), cache=cache)
        b = Indice(collection, _config(stage_cache=True), cache=cache)
        outcome = a.preprocess()
        assert len(cleaned) == 1
        assert b.preprocess() is outcome
        assert len(cleaned) == 1
        assert (cache.shard_hits, cache.shard_misses) == (0, 0)


class TestSpillDirectoryLifetime:
    """A run without ``spill_dir`` spills into a temporary directory that
    is gone when the run returns; a configured ``spill_dir`` stays."""

    def test_runner_made_directory_is_removed(
        self, collection, monolithic, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        plan = ShardPlan.from_collection(collection, 2)
        engine = Indice(plan.collection, _config())
        outcome = engine.run_sharded(plan)
        (planned,) = [
            step.detail["spill_dir"] for step in engine.log.steps
            if (step.stage, step.action) == ("sharding", "plan")
        ]
        assert Path(planned).parent == tmp_path  # it did spill there
        assert list(tmp_path.glob("repro-shards-*")) == []
        assert outcome.spill_dir == ""
        assert outcome.preprocessing.table == monolithic[0].table

    def test_configured_directory_keeps_its_spills(self, collection, tmp_path):
        spill_dir = tmp_path / "spills"
        plan = ShardPlan.from_collection(collection, 2)
        engine = Indice(plan.collection, _config(spill_dir=str(spill_dir)))
        outcome = engine.run_sharded(plan)
        assert outcome.spill_dir == str(spill_dir)
        assert len(list(spill_dir.glob("*.spill"))) == 2


# ---------------------------------------------------------------------------
# chaos: retries must never duplicate or drop rows
# ---------------------------------------------------------------------------


class TestShardedChaos:
    def _run(self, collection, tmp_path, spec=None, **config):
        injector = FaultInjector(FaultPlan.parse(spec)) if spec else None
        plan = ShardPlan.from_collection(collection, "by-district")
        cfg = _config(spill_dir=str(tmp_path), **config)
        engine = Indice(plan.collection, cfg, injector=injector)
        return engine, engine.run_sharded(plan)

    def test_worker_crash_recovers_bit_identical(self, collection, tmp_path):
        __, baseline = self._run(collection, tmp_path / "a")
        engine, chaotic = self._run(
            collection, tmp_path / "b",
            spec="parallel.worker:crash@0.5;seed=7", n_jobs=2,
        )
        assert chaotic.preprocessing.table == baseline.preprocessing.table
        assert chaotic.analytics.table == baseline.analytics.table

    def test_spill_write_fault_retries_without_dup_or_drop(
        self, collection, tmp_path
    ):
        __, baseline = self._run(collection, tmp_path / "a")
        engine, chaotic = self._run(
            collection, tmp_path / "b",
            spec="dataset.write:transient*2;seed=11",
        )
        ids = list(chaotic.preprocessing.table["certificate_id"])
        assert len(set(ids)) == len(ids)  # a retried spill never duplicates
        assert chaotic.preprocessing.table == baseline.preprocessing.table
        assert chaotic.analytics.table == baseline.analytics.table

    def test_corrupt_warm_spill_degrades_to_recompute(self, collection, tmp_path):
        cache = StageCache()
        plan = ShardPlan.from_collection(collection, "by-district")
        cfg = _config(spill_dir=str(tmp_path), stage_cache=True)
        engine = Indice(plan.collection, cfg, cache=cache)
        baseline = engine.run_sharded(plan)
        assert cache.shard_misses == len(plan.shards)

        # corrupt one spill on disk, then re-run warm: the bad shard must
        # be recomputed (a miss), never served wrong
        victim = sorted(tmp_path.glob("*.spill"))[0]
        data = bytearray(victim.read_bytes())
        data[-10] ^= 0xFF
        victim.write_bytes(bytes(data))
        engine2 = Indice(plan.collection, cfg, cache=cache)
        warm = engine2.run_sharded(plan)
        assert cache.shard_misses == len(plan.shards) + 1
        assert cache.shard_hits == len(plan.shards) - 1
        assert warm.preprocessing.table == baseline.preprocessing.table


class TestShardedDeadline:
    """A spent stage budget sheds DBSCAN identically on both paths, and the
    degraded outcome is never cached."""

    @staticmethod
    def _deadline_steps(log):
        return [
            step for step in log.degradations()
            if step.stage == "preprocessing"
            and step.detail["kind"] == "deadline_exceeded"
        ]

    def test_expired_deadline_skips_dbscan_and_is_never_cached(
        self, collection, tmp_path
    ):
        cfg = _config(
            spill_dir=str(tmp_path), stage_cache=True,
            resilience=ResiliencePolicy(stage_timeout_s=0.0),
        )
        cache = StageCache()
        mono_engine = Indice(collection, cfg, cache=cache)
        mono = mono_engine.preprocess()
        plan = ShardPlan.from_collection(collection, "by-district")
        sharded_engine = Indice(plan.collection, cfg, cache=cache)
        sharded = sharded_engine.run_sharded(plan).preprocessing

        for engine, outcome in ((mono_engine, mono), (sharded_engine, sharded)):
            assert outcome.multivariate_noise is None
            assert len(self._deadline_steps(engine.log)) == 1
        assert sharded.table == mono.table

        # a warm re-run on the same cache recomputes both degraded outcomes
        rerun = Indice(collection, cfg, cache=cache)
        rerun.preprocess()
        assert not any(
            step.action == "merge_cache" and step.detail.get("hit")
            for step in rerun.log.steps if step.stage == "preprocessing"
        )
        rerun_sharded = Indice(plan.collection, cfg, cache=cache)
        rerun_sharded.run_sharded(plan)
        assert not any(
            step.action == "merge_cache" for step in rerun_sharded.log.steps
        )


# ---------------------------------------------------------------------------
# shard-granular caching
# ---------------------------------------------------------------------------


class TestShardCache:
    def test_warm_run_hits_every_shard(self, collection, tmp_path):
        cache = StageCache()
        plan = ShardPlan.from_collection(collection, "by-district")
        cfg = _config(spill_dir=str(tmp_path), stage_cache=True)
        first = Indice(plan.collection, cfg, cache=cache).run_sharded(plan)
        assert cache.shard_hits == 0
        assert cache.shard_misses == len(plan.shards)
        warm = Indice(plan.collection, cfg, cache=cache).run_sharded(plan)
        assert cache.shard_hits == len(plan.shards)
        assert warm.preprocessing.table == first.preprocessing.table
        assert all(s.cache_hit for s in warm.shard_stats)

    def test_editing_one_district_rerurns_one_shard(self, collection, tmp_path):
        cache = StageCache()
        plan = ShardPlan.from_collection(collection, "by-district")
        cfg = _config(spill_dir=str(tmp_path), stage_cache=True)
        Indice(plan.collection, cfg, cache=cache).run_sharded(plan)
        misses_cold = cache.shard_misses

        # dirty exactly one row of one district's shard
        table = collection.table
        eph = table.column("eph").values.copy()
        district = table.column("district").values
        victim_district = next(d for d in district if d is not None)
        victim_row = int(np.flatnonzero(district == victim_district)[0])
        eph[victim_row] = eph[victim_row] + 1.0 if not np.isnan(eph[victim_row]) else 1.0
        from repro.dataset.table import Column, ColumnKind

        dirty_table = table.with_column(
            Column("eph", ColumnKind.NUMERIC, eph)
        ).select(table.column_names)
        dirty_coll = dataclasses.replace(collection, table=dirty_table)
        plan2 = ShardPlan.from_collection(dirty_coll, "by-district")
        engine = Indice(plan2.collection, cfg, cache=cache)
        outcome = engine.run_sharded(plan2)
        assert cache.shard_misses == misses_cold + 1  # only the edited shard
        assert cache.shard_hits == len(plan2.shards) - 1
        recomputed = [s for s in outcome.shard_stats if not s.cache_hit]
        assert [s.key for s in recomputed] == [f"district:{victim_district}"]

    def test_degraded_shard_never_cached(self, collection, tmp_path):
        # a binding quota degrades cleaning: that shard must not be cached
        cache = StageCache()
        plan = ShardPlan.from_collection(collection, "by-district")
        cfg = _config(
            spill_dir=str(tmp_path), stage_cache=True, geocoder_quota=0
        )
        Indice(plan.collection, cfg, cache=cache).run_sharded(plan)
        first_misses = cache.shard_misses
        assert first_misses == len(plan.shards)
        Indice(plan.collection, cfg, cache=cache).run_sharded(plan)
        # every degraded shard misses again on the warm run
        assert cache.shard_misses > first_misses

    def test_provenance_exposes_shard_counters(self, collection, tmp_path):
        cache = StageCache()
        plan = ShardPlan.from_collection(collection, 3)
        cfg = _config(spill_dir=str(tmp_path), stage_cache=True)
        engine = Indice(plan.collection, cfg, cache=cache)
        engine.run_sharded(plan)
        steps = [s for s in engine.log.steps if s.stage == "sharding"]
        actions = [s.action for s in steps]
        assert "plan" in actions
        assert actions.count("shard_transform") == len(plan.shards)
        counter_steps = [s for s in steps if s.action == "shard_cache"]
        assert counter_steps[-1].detail["misses"] == len(plan.shards)
        assert "merge" in actions


# ---------------------------------------------------------------------------
# shard transforms on the pool: same outputs, log and counters as serial
# ---------------------------------------------------------------------------


@pytest.fixture
def pool_starts(monkeypatch):
    """The ``(setup, args)`` worker state of every process pool started,
    in order."""
    starts = []
    real = parallel_module.ProcessPoolExecutor

    def counting(*args, **kwargs):
        starts.append(kwargs["initargs"])
        return real(*args, **kwargs)

    monkeypatch.setattr(parallel_module, "ProcessPoolExecutor", counting)
    return starts


def _generator_plan():
    return ShardPlan.from_generator(
        SyntheticConfig(n_certificates=1200, seed=23), "by-district",
        noise=NoiseConfig(seed=31),
    )


class TestShardTasksAcrossJobs:
    @staticmethod
    def _run(plan, spill_dir, n_jobs, spec=None, **overrides):
        cache = StageCache()
        injector = FaultInjector(FaultPlan.parse(spec)) if spec else None
        cfg = _config(
            spill_dir=str(spill_dir), stage_cache=True, n_jobs=n_jobs,
            **overrides,
        )
        engine = Indice(plan.collection, cfg, cache=cache, injector=injector)
        return engine, engine.run_sharded(plan), cache

    @staticmethod
    def _sequence(log):
        return [(s.stage, s.action, s.detail.get("shard")) for s in log.steps]

    @staticmethod
    def _degradations(log):
        return [(s.stage, s.detail) for s in log.degradations()]

    @pytest.mark.parametrize("source", ["generator", "collection"])
    def test_pooled_transforms_equal_serial(
        self, collection, tmp_path, pool_starts, source
    ):
        plan = (
            _generator_plan() if source == "generator"
            else ShardPlan.from_collection(collection, "by-district")
        )
        serial_engine, serial, serial_cache = self._run(
            plan, tmp_path / "serial", 1
        )
        assert pool_starts == []
        pooled_engine, pooled, pooled_cache = self._run(
            plan, tmp_path / "pooled", 2
        )
        # the transform tasks' pool hands each worker the run's shared
        # state, the plan first
        assert any(
            args and args[0] is plan for __, args in pool_starts
        )
        # each shard's cleaning steps precede its transform record, in
        # shard order, however the tasks were scheduled
        tagged = [t for t in self._sequence(serial_engine.log) if t[2]]
        assert tagged == [
            step
            for spec in plan.shards
            for step in (
                ("preprocessing", "geospatial_cleaning", spec.key),
                ("sharding", "shard_transform", spec.key),
            )
        ]

        assert pooled.preprocessing.table == serial.preprocessing.table
        univariate = serial.preprocessing.univariate_outliers
        assert pooled.preprocessing.univariate_outliers.keys() == univariate.keys()
        for name, result in univariate.items():
            assert np.array_equal(
                pooled.preprocessing.univariate_outliers[name].mask, result.mask
            )
        assert np.array_equal(
            pooled.preprocessing.multivariate_noise,
            serial.preprocessing.multivariate_noise,
        )
        assert pooled.analytics.table == serial.analytics.table
        assert pooled.analytics.rules == serial.analytics.rules
        assert self._sequence(pooled_engine.log) == self._sequence(serial_engine.log)
        assert (pooled_cache.shard_hits, pooled_cache.shard_misses) == (
            serial_cache.shard_hits, serial_cache.shard_misses,
        )
        assert [s.spill_bytes for s in pooled.shard_stats] == [
            s.spill_bytes for s in serial.shard_stats
        ]

    def test_parent_index_learns_what_the_workers_resolved(self, tmp_path):
        memos = []
        for n_jobs in (1, 2):
            plan = _generator_plan()  # a fresh street map, a cold index
            self._run(plan, tmp_path / f"jobs-{n_jobs}", n_jobs)
            index = plan.collection.street_map.match_index()
            memos.append(dict(index.memo_since(0)))
        serial, pooled = memos
        assert serial and pooled == serial

    def test_single_miss_runs_inline_without_a_pool(
        self, tmp_path, pool_starts
    ):
        plan = _generator_plan()
        spill_dir = tmp_path / "spills"
        engine, cold, cache = self._run(plan, spill_dir, 2)
        victim = sorted(spill_dir.glob("*.spill"))[0]
        victim.unlink()
        del pool_starts[:]

        warm_engine = Indice(plan.collection, engine.config, cache=cache)
        warm = warm_engine.run_sharded(plan)
        assert [s.cache_hit for s in warm.shard_stats].count(False) == 1
        assert cache.shard_misses == len(plan.shards) + 1
        assert pool_starts == []
        assert warm.preprocessing.table == cold.preprocessing.table
        assert victim.exists()

    def test_quota_fault_degrades_the_same_at_any_jobs(self, collection, tmp_path):
        plan = ShardPlan.from_collection(collection, "by-district")
        spec = "geocoder.request:quota+5"
        serial_engine, serial, __ = self._run(plan, tmp_path / "serial", 1, spec)
        pooled_engine, pooled, __ = self._run(plan, tmp_path / "pooled", 2, spec)
        assert self._degradations(serial_engine.log)  # the quota did bind
        assert self._degradations(pooled_engine.log) == self._degradations(
            serial_engine.log
        )
        assert pooled.preprocessing.table == serial.preprocessing.table
        assert pooled.analytics.table == serial.analytics.table
