"""End-to-end chaos harness: seeded fault plans over the full pipeline.

The contract under test (the resilience tier's one invariant):

    For every fault plan, the pipeline either *recovers* — outputs
    bit-identical to the fault-free run — or *degrades gracefully* with
    the degradation recorded in the provenance log.  Never a silent
    difference, never a crash.

Two tiers of coverage:

* ``TestChaosSmoke`` — a handful of plans over a small collection, fast
  enough for the default test run;
* ``TestChaosSweep`` (``@pytest.mark.chaos``) — 20+ plans over the
  8000-certificate pipeline, deselected by default (``addopts`` carries
  ``-m "not chaos"``); run it alone with ``pytest -m chaos``.

Every plan is a plain ``--fault-plan`` spec string, so any failing sweep
case reproduces from the CLI verbatim.
"""

import sys
import threading

import pytest

from repro import Indice, IndiceConfig
from repro.dataset import (
    NoiseConfig,
    SyntheticConfig,
    apply_noise,
    generate_epc_collection,
)
from repro.faults import FaultInjector, FaultPlan, ResiliencePolicy
from repro.perf import ParallelMap
from repro.perf.cache import fingerprint_table

SMOKE_N = 1200
SWEEP_N = 8000


def _make_collection(n, seed):
    collection = generate_epc_collection(
        SyntheticConfig(n_certificates=n, seed=seed)
    )
    noisy = apply_noise(collection, NoiseConfig(seed=seed + 1))
    collection.table = noisy.table
    return collection


def _chaos_config(cache_dir=None, n_jobs=2):
    """A fast pipeline config with near-zero retry delays.

    ``breaker_recovery_s`` is huge so an opened circuit stays open for the
    rest of the run — half-open probe timing must never make a chaos run
    depend on the wall clock.
    """
    return IndiceConfig(
        kmeans_n_init=2,
        k_range=(2, 4),
        run_multivariate_outliers=False,
        n_jobs=n_jobs,
        cache_dir=str(cache_dir) if cache_dir else None,
        resilience=ResiliencePolicy(
            retry_base_delay_s=0.0005,
            retry_max_delay_s=0.002,
            breaker_recovery_s=3600.0,
        ),
    )


def _run_pipeline(collection, injector=None, cache_dir=None):
    engine = Indice(
        collection, _chaos_config(cache_dir), injector=injector
    )
    # force the parallel path at test scale so parallel.worker faults
    # actually arrive (the production threshold assumes larger inputs)
    engine.executor.min_parallel_items = 64
    engine.preprocess()
    engine.analyze()
    return engine


def _signature(engine):
    """Every pipeline output, reduced to one comparable value."""
    analytics = engine._require_analyzed()
    return (
        fingerprint_table(engine._require_preprocessed().table),
        fingerprint_table(analytics.table),
        analytics.clustering.chosen_k,
        tuple(repr(rule) for rule in analytics.rules),
    )


def _degradation_kinds(engine):
    return {step.detail["kind"] for step in engine.log.degradations()}


def _assert_invariant(spec, engine, signature, reference):
    """The chaos invariant: bit-identical, or a logged degradation."""
    if signature != reference:
        assert engine.log.degradations(), (
            f"plan {spec!r} changed the pipeline output without recording "
            "any degradation — silent divergence"
        )


# ---------------------------------------------------------------------------
# Smoke tier: runs in the default suite
# ---------------------------------------------------------------------------

#: (spec, must_be_identical, degradation kind that must be logged or None)
SMOKE_PLANS = [
    ("geocoder.request:transient*2;seed=1", True, None),
    ("geocoder.request:quota", False, "geocoder_quota_exhausted"),
    ("parallel.worker:crash*1", True, None),
    ("cache.write:io_error*1", True, "cache_write_failed"),
    ("geocoder.request:transient;seed=3", False, "geocoder_transient_failures"),
    ("geocoder.request:transient*1;cache.write:corrupt;seed=4", True, None),
]


@pytest.fixture(scope="module")
def smoke_collection():
    return _make_collection(SMOKE_N, seed=11)


@pytest.fixture(scope="module")
def smoke_reference(smoke_collection, tmp_path_factory):
    engine = _run_pipeline(
        smoke_collection, cache_dir=tmp_path_factory.mktemp("ref-cache")
    )
    assert engine.log.degradations() == []  # the reference run is clean
    return _signature(engine)


class TestChaosSmoke:
    @pytest.mark.parametrize(
        "spec,identical,required_kind",
        SMOKE_PLANS,
        ids=[p[0] for p in SMOKE_PLANS],
    )
    def test_recovers_or_degrades(
        self, smoke_collection, smoke_reference, tmp_path,
        spec, identical, required_kind,
    ):
        injector = FaultInjector(FaultPlan.parse(spec))
        engine = _run_pipeline(
            smoke_collection, injector=injector, cache_dir=tmp_path / "cache"
        )
        signature = _signature(engine)
        _assert_invariant(spec, engine, signature, smoke_reference)
        if identical:
            assert signature == smoke_reference, (
                f"plan {spec!r} should have recovered bit-identically"
            )
        if required_kind is not None:
            assert required_kind in _degradation_kinds(engine)
        # a parallel fallback is a recovery, but it is still never silent
        if engine.executor.fallbacks:
            assert "parallel_fallback" in _degradation_kinds(engine)

    def test_parallel_shm_output_equals_serial(self, smoke_collection):
        # the shared-memory parallel path must be Table.__eq__-identical
        # to the serial path, not merely fingerprint-identical
        outputs = []
        for jobs in (1, 2):
            engine = Indice(smoke_collection, _chaos_config(n_jobs=jobs))
            engine.executor.min_parallel_items = 64
            engine.preprocess()
            engine.analyze()
            outputs.append(
                (
                    engine._require_preprocessed().table,
                    engine._require_analyzed().table,
                )
            )
        (serial_pre, serial_out), (parallel_pre, parallel_out) = outputs
        assert serial_pre == parallel_pre
        assert serial_out == parallel_out

    def test_faults_actually_fired(self, smoke_collection, tmp_path):
        # guard against the harness testing nothing: the always-on quota
        # plan must reach the geocoder site
        injector = FaultInjector(FaultPlan.parse("geocoder.request:quota"))
        _run_pipeline(
            smoke_collection, injector=injector, cache_dir=tmp_path / "cache"
        )
        assert injector.injections("geocoder.request") == 1

    def test_cache_read_corruption_recovers_and_is_logged(
        self, smoke_collection, tmp_path
    ):
        # warm a disk cache fault-free, then re-run with every cache read
        # corrupted: the entries must degrade to misses (recompute), the
        # recomputed outputs must match, and the recovery must be logged
        cache_dir = tmp_path / "cache"
        warm = _run_pipeline(smoke_collection, cache_dir=cache_dir)
        injector = FaultInjector(FaultPlan.parse("cache.read:corrupt"))
        rerun = _run_pipeline(
            smoke_collection, injector=injector, cache_dir=cache_dir
        )
        assert _signature(rerun) == _signature(warm)
        assert injector.injections("cache.read") > 0
        assert "cache_read_failed" in _degradation_kinds(rerun)

    def test_fault_plan_cli_knob(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "dash.html"
        code = main(
            [
                "run", str(out),
                "--certificates", "400",
                "--fault-plan", "geocoder.request:quota",
            ]
        )
        assert code == 0
        assert out.exists()
        printed = capsys.readouterr().out
        assert "degradation" in printed


# ---------------------------------------------------------------------------
# Every pool fallback is logged, wherever it happens
# ---------------------------------------------------------------------------

#: ``parallel.worker`` arrivals of the smoke pipeline plus one district
#: dashboard: the eight address-resolution slices and one task per K of
#: the sweep.  The feature matrices and the region means are serial.
SMOKE_WORKER_ARRIVALS = 11


def _run_pipeline_and_dashboard(collection, injector):
    from repro.geo.regions import Granularity
    from repro.query.stakeholders import Stakeholder

    engine = _run_pipeline(collection, injector=injector)
    engine.build_dashboard(Stakeholder.PUBLIC_ADMINISTRATION, Granularity.DISTRICT)
    return engine


class TestFallbacksAreLogged:
    def test_arrival_count_covers_every_pool(self, smoke_collection):
        injector = FaultInjector(FaultPlan.parse("parallel.worker:crash*0"))
        _run_pipeline_and_dashboard(smoke_collection, injector)
        assert injector.arrivals("parallel.worker") == SMOKE_WORKER_ARRIVALS

    def test_only_address_resolution_ships_tables(self, smoke_collection, monkeypatch):
        """The pipeline and a dashboard reach ``map_table`` only to resolve
        addresses: feature matrices and region means never pay a pool."""
        callers = []
        map_table = ParallelMap.map_table

        def spy(self, *args, **kwargs):
            caller = sys._getframe(1)
            callers.append(
                (caller.f_globals["__name__"], caller.f_code.co_name)
            )
            return map_table(self, *args, **kwargs)

        monkeypatch.setattr(ParallelMap, "map_table", spy)
        _run_pipeline_and_dashboard(smoke_collection, None)
        assert callers == [
            ("repro.preprocessing.address_cleaner", "_resolve_distinct")
        ]

    @pytest.mark.parametrize("after", range(SMOKE_WORKER_ARRIVALS))
    def test_crash_at_any_arrival_is_logged(
        self, smoke_collection, smoke_reference, after
    ):
        injector = FaultInjector(
            FaultPlan.parse(f"parallel.worker:crash*1+{after}")
        )
        engine = _run_pipeline_and_dashboard(smoke_collection, injector)
        assert engine.executor.fallbacks == 1
        assert "parallel_fallback" in _degradation_kinds(engine)
        # the serial recompute is bit-identical
        assert _signature(engine) == smoke_reference


# ---------------------------------------------------------------------------
# Full sweep: pytest -m chaos
# ---------------------------------------------------------------------------

SWEEP_PLANS = [
    # recoverable transients (retries absorb them)
    "geocoder.request:transient*1",
    "geocoder.request:transient*2;seed=1",
    "geocoder.request:transient*3;seed=2",
    "geocoder.request:transient@0.15;seed=3",
    "geocoder.request:transient@0.3;seed=4",
    # persistent geocoder failure and quota exhaustion (graceful degradation)
    "geocoder.request:transient",
    "geocoder.request:quota",
    "geocoder.request:quota+5;seed=5",
    "geocoder.request:quota+25;seed=6",
    # worker crashes and stragglers
    "parallel.worker:crash*1",
    "parallel.worker:crash*1+1;seed=7",
    "parallel.worker:crash",
    "parallel.worker:delay*2;seed=8",
    "parallel.worker:delay@0.5;seed=9",
    "parallel.worker:crash@0.3;seed=15",
    # cache write failures (outputs never depend on the cache)
    "cache.write:io_error",
    "cache.write:corrupt",
    "cache.write:truncate",
    "cache.write:io_error@0.5;seed=10",
    # compound plans: several sites failing in one run
    "geocoder.request:transient*2;parallel.worker:crash*1;seed=11",
    "geocoder.request:transient*1;cache.write:io_error;seed=12",
    "geocoder.request:quota+10;parallel.worker:delay*1;seed=13",
    "geocoder.request:transient@0.2;cache.write:corrupt@0.5;"
    "parallel.worker:crash*1;seed=14",
]


def test_sweep_is_large_enough():
    assert len(SWEEP_PLANS) >= 20


@pytest.mark.chaos
class TestChaosSweep:
    @pytest.fixture(scope="class")
    def sweep_collection(self):
        return _make_collection(SWEEP_N, seed=29)

    @pytest.fixture(scope="class")
    def sweep_reference(self, sweep_collection, tmp_path_factory):
        engine = _run_pipeline(
            sweep_collection, cache_dir=tmp_path_factory.mktemp("sweep-ref")
        )
        assert engine.log.degradations() == []
        return _signature(engine)

    @pytest.mark.parametrize("spec", SWEEP_PLANS, ids=SWEEP_PLANS)
    def test_plan_recovers_or_degrades(
        self, sweep_collection, sweep_reference, tmp_path, spec
    ):
        injector = FaultInjector(FaultPlan.parse(spec))
        engine = _run_pipeline(
            sweep_collection, injector=injector, cache_dir=tmp_path / "cache"
        )
        signature = _signature(engine)
        _assert_invariant(spec, engine, signature, sweep_reference)
        if engine.executor.fallbacks:
            assert "parallel_fallback" in _degradation_kinds(engine)

    def test_sweep_is_deterministic(
        self, sweep_collection, sweep_reference, tmp_path
    ):
        # the same plan twice: same injected events, same outputs, same
        # degradations — a chaos failure always reproduces from its spec
        spec = "geocoder.request:transient@0.3;parallel.worker:crash*1;seed=4"
        runs = []
        for i in range(2):
            injector = FaultInjector(FaultPlan.parse(spec))
            engine = _run_pipeline(
                sweep_collection, injector=injector,
                cache_dir=tmp_path / f"cache-{i}",
            )
            runs.append(
                (_signature(engine), injector.events, _degradation_kinds(engine))
            )
        assert runs[0] == runs[1]


# ---------------------------------------------------------------------------
# Serving tier: injected render failures under a concurrent burst
# ---------------------------------------------------------------------------


class TestServingChaos:
    """Chaos at the ``serve.request`` site.

    The serving twin of the pipeline invariant: a failing render costs
    exactly the requests whose attempt failed (a per-request 500 page,
    never a traceback), it never wedges the single-flight claim, and the
    next attempt recovers.  The plan is a plain spec string, so the same
    failure reproduces from the CLI via
    ``repro serve --fault-plan 'serve.request:transient*3;seed=5'``.
    """

    BURST = 12
    SPEC = "serve.request:transient*3;seed=5"

    @pytest.fixture(scope="class")
    def serve_engine(self, smoke_collection):
        engine = Indice(smoke_collection, _chaos_config())
        engine.preprocess()
        engine.analyze()
        return engine

    def test_render_faults_give_500_pages_and_recover(self, serve_engine):
        from repro.serving import ArtifactServer, build_store

        injector = FaultInjector(FaultPlan.parse(self.SPEC))
        store = build_store(serve_engine, injector=injector)
        server = ArtifactServer(store)
        path = "/dashboard/citizen"

        barrier = threading.Barrier(self.BURST)
        results, results_lock = [], threading.Lock()

        def hit():
            barrier.wait()
            response = server.respond("GET", path)
            with results_lock:
                results.append(response)

        threads = [threading.Thread(target=hit) for __ in range(self.BURST)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert len(results) == self.BURST

        # the single-flight claim serializes render attempts, so the plan
        # is deterministic even under a concurrent burst: attempts 1-3
        # fail (one 500 each), attempt 4 publishes, the rest coalesce
        statuses = sorted(response.status for response in results)
        assert statuses == [200] * (self.BURST - 3) + [500] * 3
        for response in results:
            if response.status == 500:
                body = response.body.decode("utf-8")
                assert body.startswith("<!DOCTYPE html>")
                assert "Traceback" not in body
        assert injector.injections("serve.request") == 3
        assert server.stats["errors"] == 3
        # exactly one successful render despite the burst and the faults
        assert store.render_count(path) == 1
        assert store.render_attempts == 4

    def test_no_wedged_lock_after_faults(self, serve_engine):
        from repro.serving import ArtifactServer, build_store

        injector = FaultInjector(FaultPlan.parse(self.SPEC))
        store = build_store(serve_engine, injector=injector)
        server = ArtifactServer(store)
        # serially burn the three injected failures on one path
        failures = [
            server.respond("GET", "/report").status for __ in range(3)
        ]
        assert failures == [500, 500, 500]
        # every route now serves cleanly: nothing is wedged, nothing cached
        # a failure by mistake
        for path in store.paths():
            assert server.respond("GET", path).status == 200
        assert server.inflight == 0

    def test_fault_burst_under_lock_sanitizer_stays_deterministic(
        self, serve_engine
    ):
        # the same chaos burst, with the serving locks recorded: injected
        # render failures must neither nest the locks nor leave one held,
        # and the deterministic 3x500-then-coalesce outcome is unchanged
        from repro.serving import ArtifactServer, build_store

        from .lock_recording import LockRecorder

        recorder = LockRecorder()
        injector = FaultInjector(FaultPlan.parse(self.SPEC))
        store = build_store(serve_engine, injector=injector)
        server = ArtifactServer(store)
        recorder.instrument(store, server)
        path = "/dashboard/citizen"

        barrier = threading.Barrier(self.BURST)
        results, results_lock = [], threading.Lock()

        def hit():
            barrier.wait()
            response = server.respond("GET", path)
            with results_lock:
                results.append(response)

        threads = [threading.Thread(target=hit) for __ in range(self.BURST)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)

        statuses = sorted(response.status for response in results)
        assert statuses == [200] * (self.BURST - 3) + [500] * 3
        assert store.render_count(path) == 1
        # the recorder saw the whole burst and stayed silent — failed
        # renders released every lock they held
        assert recorder.n_acquires > self.BURST
        recorder.assert_clean()
        assert recorder.held_anywhere() == ()
