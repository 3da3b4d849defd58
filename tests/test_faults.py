"""Tests for the fault-injection tier: plans, injector, policies, hooks.

The chaos-level end-to-end invariant lives in ``test_chaos_pipeline.py``;
this module pins down each piece in isolation — deterministic plans,
retry/backoff/deadline/breaker policies, and the per-site injection hooks
in the stage cache, geocoder, parallel executor and dataset I/O.
"""

import pickle

import numpy as np
import pytest

from repro.dataset import SyntheticConfig, generate_epc_collection
from repro.dataset.io import read_csv, write_csv
from repro.dataset.table import Column, Table
from repro.faults import (
    CACHE_READ,
    CACHE_WRITE,
    DATASET_READ,
    GEOCODER_REQUEST,
    KNOWN_SITES,
    PARALLEL_WORKER,
    CircuitBreaker,
    Deadline,
    DeadlineExceeded,
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultSpec,
    InjectedIOError,
    RetryPolicy,
    TransientServiceError,
    retry_with_backoff,
)
from repro.perf import ParallelMap, StageCache
from repro.serving.store import ArtifactStore
from repro.preprocessing.address_cleaner import (
    AddressCleaner,
    CleaningConfig,
    MatchStatus,
)
from repro.preprocessing.geocoder import QuotaExceededError, SimulatedGeocoder


@pytest.fixture(scope="module")
def collection():
    return generate_epc_collection(SyntheticConfig(n_certificates=400, seed=9))


class _FakeClock:
    """A settable monotonic clock for virtual-time tests."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


# ---------------------------------------------------------------------------
# FaultPlan / FaultInjector
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_spec_string_roundtrip(self):
        plan = FaultPlan.parse(
            "geocoder.request:transient@0.3*5;cache.read:corrupt;"
            "parallel.worker:crash*1+2;seed=42"
        )
        assert plan.seed == 42
        assert len(plan.faults) == 3
        assert plan.faults[0] == FaultSpec(
            GEOCODER_REQUEST, FaultKind.TRANSIENT, rate=0.3, times=5
        )
        assert plan.faults[2].after == 2
        assert FaultPlan.parse(plan.render()) == plan

    def test_json_roundtrip(self):
        plan = FaultPlan.parse("cache.write:io_error@0.5;seed=7")
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_load_from_file(self, tmp_path):
        plan = FaultPlan.parse("dataset.read:io_error*1")
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json(), encoding="utf-8")
        assert FaultPlan.load(f"@{path}") == plan
        assert FaultPlan.load("dataset.read:io_error*1") == plan

    @pytest.mark.parametrize(
        "document",
        ['[]', '{"faults": [{"kind": "transient"}]}', '{"faults": 3}',
         '{"faults": [{"site": "cache.read", "kind": "corrupt", "rate": "x"}]}'],
    )
    def test_malformed_json_plan_is_a_value_error(self, document):
        with pytest.raises(ValueError):
            FaultPlan.from_json(document)

    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan.parse("geocoder.request")  # no kind
        with pytest.raises(ValueError):
            FaultPlan.parse("geocoder.request:frobnicate")  # unknown kind
        with pytest.raises(ValueError):
            FaultSpec(GEOCODER_REQUEST, FaultKind.TRANSIENT, rate=1.5)

    def test_unknown_site_rejected_with_valid_site_list(self):
        # a typo'd site would otherwise parse fine and silently never fire
        with pytest.raises(ValueError) as excinfo:
            FaultPlan.parse("geocoder.requst:transient*2")
        message = str(excinfo.value)
        assert "geocoder.requst" in message
        for site in KNOWN_SITES:
            assert site in message
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultSpec("cache.reed", FaultKind.CORRUPT)

    def test_empty_plan_is_falsy(self):
        assert not FaultPlan()
        assert FaultPlan.parse("cache.read:corrupt")


class TestFaultInjector:
    def test_deterministic_across_instances(self):
        plan = FaultPlan.parse("geocoder.request:transient@0.4;seed=3")
        first = FaultInjector(plan)
        second = FaultInjector(plan)
        seq_a = [first.arrive(GEOCODER_REQUEST) for __ in range(50)]
        seq_b = [second.arrive(GEOCODER_REQUEST) for __ in range(50)]
        assert seq_a == seq_b
        assert any(k is FaultKind.TRANSIENT for k in seq_a)
        assert any(k is None for k in seq_a)

    def test_sites_independent(self):
        # interleaving arrivals at another site never shifts a site's seq
        plan = FaultPlan.parse(
            "geocoder.request:transient@0.4;cache.read:corrupt@0.4;seed=1"
        )
        plain = FaultInjector(plan)
        expected = [plain.arrive(GEOCODER_REQUEST) for __ in range(30)]
        interleaved = FaultInjector(plan)
        got = []
        for __ in range(30):
            interleaved.arrive(CACHE_READ)
            got.append(interleaved.arrive(GEOCODER_REQUEST))
        assert got == expected

    def test_times_and_after(self):
        inj = FaultInjector(FaultPlan.parse("cache.read:corrupt*2+3"))
        kinds = [inj.arrive(CACHE_READ) for __ in range(10)]
        assert kinds[:3] == [None, None, None]  # spared by +3
        assert kinds[3:5] == [FaultKind.CORRUPT, FaultKind.CORRUPT]
        assert kinds[5:] == [None] * 5  # budget of *2 spent
        assert inj.injections(CACHE_READ) == 2

    def test_unwatched_site_is_free(self):
        inj = FaultInjector(FaultPlan.parse("cache.read:corrupt"))
        assert not inj.watches(GEOCODER_REQUEST)
        assert inj.arrive(GEOCODER_REQUEST) is None
        assert inj.events == []

    def test_unknown_site_raises(self):
        # a hook at a typo'd site is an injection point no plan can reach
        inj = FaultInjector(FaultPlan.parse("cache.read:corrupt"))
        with pytest.raises(ValueError, match="unknown fault site 'cache.reed'"):
            inj.arrive("cache.reed")
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultInjector().fire("dataset.raed")
        assert inj.events == []

    def test_fire_raises_mapped_exceptions(self):
        inj = FaultInjector(FaultPlan.parse("dataset.read:io_error"))
        with pytest.raises(InjectedIOError):
            inj.fire(DATASET_READ)
        with pytest.raises(OSError):  # injected IO errors *are* OSErrors
            FaultInjector(FaultPlan.parse("dataset.read:io_error")).fire(
                DATASET_READ
            )

    def test_mangle(self):
        data = pickle.dumps({"x": 1})
        assert len(FaultInjector.mangle(data, FaultKind.TRUNCATE)) < len(data)
        with pytest.raises(Exception):
            pickle.loads(FaultInjector.mangle(data, FaultKind.CORRUPT))


# ---------------------------------------------------------------------------
# Every registered site is reached by its hook
# ---------------------------------------------------------------------------


def _reach_geocoder(injector, tmp_path, collection):
    SimulatedGeocoder(collection.street_map, injector=injector).geocode(
        "via roma 10"
    )


def _reach_cache_read(injector, tmp_path, collection):
    key = StageCache.key("stage", "fp")
    StageCache(tmp_path).put(key, {"v": 1})
    StageCache(tmp_path, injector=injector).get(key)


def _reach_cache_write(injector, tmp_path, collection):
    StageCache(tmp_path, injector=injector).put(StageCache.key("s", "f"), 1)


def _reach_parallel_worker(injector, tmp_path, collection):
    ParallelMap(n_jobs=2, min_parallel_items=1, injector=injector).map(
        _double, range(4)
    )


def _small_table():
    return Table([Column.numeric("n", [1.0, 2.0])])


def _reach_dataset_read(injector, tmp_path, collection):
    write_csv(_small_table(), tmp_path / "t.csv")
    read_csv(tmp_path / "t.csv", injector=injector)


def _reach_dataset_write(injector, tmp_path, collection):
    write_csv(_small_table(), tmp_path / "t.csv", injector=injector)


def _reach_serve_request(injector, tmp_path, collection):
    store = ArtifactStore(
        "v1", {"/": ("text/plain", lambda: "ok")}, injector=injector
    )
    store.get("/")


#: site -> a call of the public entry point whose hook announces it
_SITE_ENTRY_POINTS = {
    "geocoder.request": _reach_geocoder,
    "cache.read": _reach_cache_read,
    "cache.write": _reach_cache_write,
    "parallel.worker": _reach_parallel_worker,
    "dataset.read": _reach_dataset_read,
    "dataset.write": _reach_dataset_write,
    "serve.request": _reach_serve_request,
}


class TestEverySiteIsHooked:
    """A registered site no hook announces is a chaos rule that silently
    never fires: each one must be reached through its public entry point."""

    def test_entry_points_cover_exactly_the_registry(self):
        assert sorted(_SITE_ENTRY_POINTS) == sorted(KNOWN_SITES)

    @pytest.mark.parametrize("site", KNOWN_SITES)
    def test_site_is_reached(self, site, tmp_path, collection):
        # rate 0: the rule watches every arrival and never fires
        injector = FaultInjector(FaultPlan.parse(f"{site}:delay@0"))
        _SITE_ENTRY_POINTS[site](injector, tmp_path, collection)
        assert injector.arrivals(site) >= 1
        assert injector.events == []


# ---------------------------------------------------------------------------
# Policies: retry, deadline, breaker
# ---------------------------------------------------------------------------


class TestRetryWithBackoff:
    def test_succeeds_after_transient_failures(self):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise TransientServiceError("boom")
            return "ok"

        slept = []
        out = retry_with_backoff(
            flaky,
            RetryPolicy(retries=3, seed=5),
            retry_on=(TransientServiceError,),
            sleep=slept.append,
        )
        assert out == "ok"
        assert calls["n"] == 3
        assert len(slept) == 2

    def test_raises_after_budget_spent(self):
        def always():
            raise TransientServiceError("down")

        with pytest.raises(TransientServiceError):
            retry_with_backoff(
                always, RetryPolicy(retries=2),
                retry_on=(TransientServiceError,), sleep=lambda s: None,
            )

    def test_non_retryable_error_propagates_immediately(self):
        calls = {"n": 0}

        def bug():
            calls["n"] += 1
            raise ValueError("not transient")

        with pytest.raises(ValueError):
            retry_with_backoff(
                bug, RetryPolicy(retries=5),
                retry_on=(TransientServiceError,), sleep=lambda s: None,
            )
        assert calls["n"] == 1

    def test_decorrelated_jitter_schedule(self):
        policy = RetryPolicy(retries=8, base_delay_s=0.01, max_delay_s=0.2, seed=4)
        delays = policy.delays()
        assert len(delays) == 8
        assert all(policy.base_delay_s <= d <= policy.max_delay_s for d in delays)
        assert delays == policy.delays()  # seeded: reproducible
        assert policy.delays() != RetryPolicy(
            retries=8, base_delay_s=0.01, max_delay_s=0.2, seed=5
        ).delays()

    def test_deadline_stops_retrying(self):
        clock = _FakeClock()
        deadline = Deadline(1.0, clock=clock)

        def always():
            clock.advance(2.0)
            raise TransientServiceError("slow and down")

        calls = []
        with pytest.raises(TransientServiceError):
            retry_with_backoff(
                lambda: (calls.append(1), always()),
                RetryPolicy(retries=10),
                retry_on=(TransientServiceError,),
                sleep=lambda s: None,
                deadline=deadline,
            )
        assert len(calls) == 1  # no retry once the budget is spent


class TestDeadline:
    def test_unbounded_never_expires(self):
        deadline = Deadline(None)
        assert deadline.remaining() == float("inf")
        assert not deadline.expired()
        deadline.check()  # no raise

    def test_expiry_in_virtual_time(self):
        clock = _FakeClock()
        deadline = Deadline(5.0, clock=clock)
        assert deadline.remaining() == 5.0
        clock.advance(4.0)
        assert not deadline.expired()
        clock.advance(2.0)
        assert deadline.expired()
        assert deadline.remaining() == 0.0
        with pytest.raises(DeadlineExceeded):
            deadline.check("preprocessing")


class TestCircuitBreaker:
    def test_opens_after_threshold(self):
        clock = _FakeClock()
        breaker = CircuitBreaker(failure_threshold=3, recovery_s=10, clock=clock)
        assert breaker.state == CircuitBreaker.CLOSED
        for __ in range(3):
            assert breaker.allow()
            breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()
        assert breaker.times_opened == 1

    def test_success_resets_failure_streak(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_probe_closes_on_success(self):
        clock = _FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, recovery_s=10, clock=clock)
        breaker.record_failure()
        assert not breaker.allow()
        clock.advance(11)
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert breaker.allow()       # the single probe
        assert not breaker.allow()   # second caller still refused
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow()

    def test_half_open_probe_reopens_on_failure(self):
        clock = _FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, recovery_s=10, clock=clock)
        breaker.record_failure()
        clock.advance(11)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()
        assert breaker.times_opened == 2


# ---------------------------------------------------------------------------
# StageCache under faults (satellite: atomic writes, corruption = miss)
# ---------------------------------------------------------------------------


class TestStageCacheResilience:
    def test_manually_corrupted_entry_is_a_miss(self, tmp_path):
        key = StageCache.key("stage", "fp")
        StageCache(tmp_path).put(key, {"v": 1})
        (tmp_path / f"{key}.pkl").write_bytes(b"this is not a pickle")
        fresh = StageCache(tmp_path)
        assert fresh.get(key) == (False, None)
        assert fresh.read_errors == 1

    def test_truncated_entry_is_a_miss(self, tmp_path):
        key = StageCache.key("stage", "fp")
        StageCache(tmp_path).put(key, list(range(1000)))
        path = tmp_path / f"{key}.pkl"
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        fresh = StageCache(tmp_path)
        assert fresh.get(key) == (False, None)
        assert fresh.read_errors == 1

    def test_miss_then_recompute_then_hit(self, tmp_path):
        # the degradation ladder: corrupt entry -> miss -> re-put -> hit
        key = StageCache.key("stage", "fp")
        cache = StageCache(tmp_path)
        cache.put(key, "value")
        (tmp_path / f"{key}.pkl").write_bytes(b"garbage")
        fresh = StageCache(tmp_path)
        assert fresh.get(key) == (False, None)
        fresh.put(key, "value")
        again = StageCache(tmp_path)
        assert again.get(key) == (True, "value")

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        cache = StageCache(tmp_path)
        for i in range(5):
            cache.put(StageCache.key("s", str(i)), list(range(100)))
        assert not list(tmp_path.glob("*.tmp"))
        assert len(list(tmp_path.glob("*.pkl"))) == 5

    def test_injected_read_corruption_is_counted_miss(self, tmp_path):
        key = StageCache.key("stage", "fp")
        StageCache(tmp_path).put(key, [1, 2, 3])
        inj = FaultInjector(FaultPlan.parse("cache.read:corrupt*1"))
        cache = StageCache(tmp_path, injector=inj)
        assert cache.get(key) == (False, None)
        assert cache.read_errors == 1
        assert cache.get(key) == (True, [1, 2, 3])  # fault budget spent

    def test_injected_write_io_error_keeps_memory_copy(self, tmp_path):
        inj = FaultInjector(FaultPlan.parse("cache.write:io_error*1"))
        cache = StageCache(tmp_path, injector=inj)
        key = StageCache.key("stage", "fp")
        cache.put(key, "value")
        assert cache.write_errors == 1
        assert cache.get(key) == (True, "value")  # memory still serves it
        assert StageCache(tmp_path).get(key) == (False, None)  # disk lost it

    def test_injected_truncated_write_detected_on_read(self, tmp_path):
        inj = FaultInjector(FaultPlan.parse("cache.write:truncate*1"))
        cache = StageCache(tmp_path, injector=inj)
        key = StageCache.key("stage", "fp")
        cache.put(key, list(range(1000)))
        fresh = StageCache(tmp_path)  # no injector: reads what's on disk
        assert fresh.get(key) == (False, None)
        assert fresh.read_errors == 1


# ---------------------------------------------------------------------------
# Geocoder faults and cleaner resilience
# ---------------------------------------------------------------------------


class TestGeocoderFaults:
    def test_transient_fault_consumes_no_quota_or_rng(self, collection):
        inj = FaultInjector(FaultPlan.parse("geocoder.request:transient*1"))
        faulty = SimulatedGeocoder(collection.street_map, injector=inj)
        plain = SimulatedGeocoder(collection.street_map)
        with pytest.raises(TransientServiceError):
            faulty.geocode("via roma 10")
        assert faulty.requests_made == 0  # the timed-out call cost nothing
        a = faulty.geocode("via roma 10")  # retry
        b = plain.geocode("via roma 10")
        assert (a.status, a.record, a.confidence) == (b.status, b.record, b.confidence)

    def test_quota_fault_trips_quota_immediately(self, collection):
        inj = FaultInjector(FaultPlan.parse("geocoder.request:quota+1"))
        geocoder = SimulatedGeocoder(collection.street_map, quota=100, injector=inj)
        geocoder.geocode("via roma 10")  # first request spared (+1)
        with pytest.raises(QuotaExceededError):
            geocoder.geocode("corso francia 2")
        assert geocoder.remaining_quota == 0


def _clean_with(collection, table, **cleaner_kwargs):
    cleaner = AddressCleaner(
        collection.street_map,
        CleaningConfig(),
        SimulatedGeocoder(
            collection.street_map,
            injector=cleaner_kwargs.pop("injector", None),
        ),
        sleep=lambda s: None,
        **cleaner_kwargs,
    )
    return cleaner.clean_table(table)


class TestCleanerResilience:
    @pytest.fixture(scope="class")
    def turin(self, collection):
        from repro.dataset import NoiseConfig, apply_noise

        noisy = apply_noise(collection, NoiseConfig(seed=21))
        mask = np.array([c == "Turin" for c in noisy.table["city"]])
        return noisy.table.where(mask)

    def test_recoverable_transients_are_bit_identical(self, collection, turin):
        # every 3rd-ish request fails once; retries absorb all of it
        inj = FaultInjector(
            FaultPlan.parse("geocoder.request:transient@0.3;seed=8")
        )
        fault_free = _clean_with(collection, turin)
        recovered = _clean_with(collection, turin, injector=inj)
        assert recovered.degradations == []
        assert recovered.geocoder_transient_failures == 0
        for name in ("address", "house_number", "zip_code"):
            assert list(recovered.table[name]) == list(fault_free.table[name])
        for left, right in zip(fault_free.audits, recovered.audits):
            assert left.status is right.status
            assert left.resolved_street == right.resolved_street

    def test_persistent_failure_degrades_and_is_reported(self, collection, turin):
        inj = FaultInjector(FaultPlan.parse("geocoder.request:transient"))
        breaker = CircuitBreaker(failure_threshold=2, recovery_s=3600)
        report = _clean_with(
            collection, turin, injector=inj,
            retry=RetryPolicy(retries=1), breaker=breaker,
        )
        kinds = {d["kind"] for d in report.degradations}
        assert "geocoder_transient_failures" in kinds
        assert "geocoder_circuit_open" in kinds
        assert report.geocoder_transient_failures == 2  # then the circuit opened
        assert report.rows_skipped_by_open_circuit > 0
        assert breaker.state == CircuitBreaker.OPEN
        # degraded rows are unresolved, not dropped: row count unchanged
        assert report.table.n_rows == turin.n_rows

    def test_quota_mid_batch_keeps_resolved_rows(self, collection, turin):
        # satellite: quota exhaustion mid-batch must keep the rows already
        # geocoded and leave the remainder unresolved — never discard work
        unlimited = _clean_with(collection, turin)
        geocoded_rows = [
            a.row for a in unlimited.audits if a.status is MatchStatus.GEOCODED
        ]
        assert len(geocoded_rows) > 2, "fixture must exercise the geocoder"

        quota = len(geocoded_rows) // 2
        cleaner = AddressCleaner(
            collection.street_map,
            CleaningConfig(),
            SimulatedGeocoder(collection.street_map, quota=quota),
            sleep=lambda s: None,
        )
        limited = cleaner.clean_table(turin)

        assert limited.geocoder_quota_exhausted
        assert any(
            d["kind"] == "geocoder_quota_exhausted" for d in limited.degradations
        )
        kept = [
            a.row for a in limited.audits if a.status is MatchStatus.GEOCODED
        ]
        # the first `quota` successful geocodes survive identically ...
        assert kept == geocoded_rows[: len(kept)]
        assert len(kept) > 0
        for row in kept:
            assert limited.audits[row].resolved_street == (
                unlimited.audits[row].resolved_street
            )
        # ... and the remainder is unresolved, not missing
        remainder = set(geocoded_rows) - set(kept)
        for row in remainder:
            assert limited.audits[row].status is MatchStatus.UNRESOLVED
        assert limited.table.n_rows == turin.n_rows
        assert len(limited.audits) == len(unlimited.audits)


# ---------------------------------------------------------------------------
# Parallel tier faults
# ---------------------------------------------------------------------------


def _double(state, x):
    return 2 * x


class TestParallelFaults:
    def test_injected_crash_falls_back_to_serial(self):
        inj = FaultInjector(FaultPlan.parse("parallel.worker:crash*1"))
        ex = ParallelMap(n_jobs=2, min_parallel_items=1, injector=inj)
        out = ex.map(_double, range(40))
        assert out == [2 * x for x in range(40)]
        assert ex.fallbacks == 1
        assert "WorkerCrashError" in ex.last_fallback_reason

    def test_injected_straggler_still_correct(self):
        inj = FaultInjector(FaultPlan.parse("parallel.worker:delay*1"))
        ex = ParallelMap(n_jobs=2, min_parallel_items=1, injector=inj)
        assert ex.map(_double, range(40)) == [2 * x for x in range(40)]
        assert ex.fallbacks == 0

    def test_serial_path_ignores_worker_faults(self):
        inj = FaultInjector(FaultPlan.parse("parallel.worker:crash"))
        ex = ParallelMap(n_jobs=1, injector=inj)
        assert ex.map(_double, range(10)) == [2 * x for x in range(10)]
        assert inj.events == []  # site never reached on the serial path


# ---------------------------------------------------------------------------
# Dataset I/O faults
# ---------------------------------------------------------------------------


class TestDatasetIOFaults:
    def _table(self):
        return Table(
            [Column.numeric("n", [1.0, 2.0]), Column.text("t", ["a", "b"])]
        )

    def test_injected_read_failure_is_oserror(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(self._table(), path)
        inj = FaultInjector(FaultPlan.parse("dataset.read:io_error*1"))
        with pytest.raises(OSError):
            read_csv(path, injector=inj)

    def test_injected_write_failure_is_oserror(self, tmp_path):
        inj = FaultInjector(FaultPlan.parse("dataset.write:io_error*1"))
        with pytest.raises(OSError):
            write_csv(self._table(), tmp_path / "t.csv", injector=inj)

    def test_retry_recovers_transient_io(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(self._table(), path)
        inj = FaultInjector(FaultPlan.parse("dataset.read:io_error*2"))
        table = retry_with_backoff(
            lambda: read_csv(path, injector=inj),
            RetryPolicy(retries=3),
            retry_on=(OSError,),
            sleep=lambda s: None,
        )
        assert table.n_rows == 2
        assert list(table["t"]) == ["a", "b"]
