"""Socket-level concurrency harness for the production serving tier.

The contracts under test, each through real TCP connections against a
:class:`~repro.serving.PooledHTTPServer`:

* **coalescing** — 50 concurrent cold hits on the same artifact trigger
  exactly one render (the single-flight lock), and every client gets the
  same bytes;
* **conditional GETs** — a matching ``If-None-Match`` is a 304 with an
  empty body; a stale validator gets the full 200;
* **byte identity** — bodies are bit-identical across workers and across
  plain/gzip representations (``mtime=0`` compression);
* **load shedding** — past ``max_inflight`` the server answers
  ``503 + Retry-After`` within the admission deadline instead of
  queueing, and recovers as soon as slots free up;
* **graceful reload** — a request in flight across
  :meth:`~repro.serving.ArtifactServer.reload` finishes against the
  store it started on, while every later request sees the new version;
* **lock discipline** — the same bursts run with the store's and the
  server's locks behind a test-local recorder: no thread ever holds two
  locks, and every render runs with no lock held.
"""

import gzip
import http.client
import threading
import time

import pytest

from repro import Indice, IndiceConfig
from repro.dataset import SyntheticConfig, generate_epc_collection
from repro.serving import ArtifactServer, ArtifactStore, build_store

from .lock_recording import LockRecorder

pytestmark = pytest.mark.serving

CLIENTS = 50


@pytest.fixture(scope="module")
def engine():
    collection = generate_epc_collection(SyntheticConfig(n_certificates=1000, seed=77))
    engine = Indice(
        collection,
        IndiceConfig(kmeans_n_init=2, k_range=(2, 5), run_multivariate_outliers=False),
    )
    engine.preprocess()
    engine.analyze()
    return engine


@pytest.fixture(scope="module")
def warm(engine):
    """A server over a fully pre-rendered store, listening on localhost."""
    store = build_store(engine)
    store.prerender()
    server = ArtifactServer(store)
    with server.serving(workers=4) as (httpd, url):
        yield server, httpd.server_address[1]


def request(port, path, headers=None, method="GET", timeout=30.0):
    """One real round-trip; returns ``(status, headers_dict, body)``."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request(method, path, headers=headers or {})
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        conn.close()


def burst(port, path, n, headers=None):
    """*n* clients released simultaneously against *path*."""
    barrier = threading.Barrier(n)
    results = []
    results_lock = threading.Lock()

    def hit():
        barrier.wait()
        outcome = request(port, path, headers=headers)
        with results_lock:
            results.append(outcome)

    threads = [threading.Thread(target=hit) for __ in range(n)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60.0)
    assert len(results) == n, "some clients never completed"
    return results


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return predicate()


class TestColdBurstCoalescing:
    def test_fifty_cold_hits_render_once(self, engine):
        store = build_store(engine)
        server = ArtifactServer(store)
        path = "/dashboard/citizen"
        assert store.render_count(path) == 0  # genuinely cold
        with server.serving(workers=8) as (httpd, __):
            results = burst(httpd.server_address[1], path, CLIENTS)
        assert {status for status, __, ___ in results} == {200}
        bodies = {body for __, ___, body in results}
        assert len(bodies) == 1, "coalesced clients saw different bytes"
        # the whole point: one render for fifty concurrent cold clients
        assert store.render_count(path) == 1
        assert store.render_attempts == 1
        etags = {headers["ETag"] for __, headers, ___ in results}
        assert len(etags) == 1


class TestConditionalGets:
    def test_if_none_match_is_304_with_empty_body(self, warm):
        server, port = warm
        status, headers, body = request(port, "/report")
        assert status == 200 and body
        etag = headers["ETag"]
        status, headers, body = request(
            port, "/report", headers={"If-None-Match": etag}
        )
        assert status == 304
        assert body == b""
        assert headers["ETag"] == etag
        assert server.stats["not_modified"] >= 1

    def test_stale_validator_gets_full_response(self, warm):
        __, port = warm
        status, ___, body = request(
            port, "/report", headers={"If-None-Match": '"deadbeef"'}
        )
        assert status == 200 and body

    def test_wildcard_matches(self, warm):
        __, port = warm
        status, ___, body = request(
            port, "/report", headers={"If-None-Match": "*"}
        )
        assert status == 304 and body == b""


class TestByteIdentity:
    def test_bodies_identical_across_workers(self, warm):
        # 16 clients spread over the 4-worker pool: every thread must
        # serve the same immutable bytes
        __, port = warm
        results = burst(port, "/geojson/points", 16)
        assert {status for status, ___, ____ in results} == {200}
        assert len({body for __, ___, body in results}) == 1

    def test_gzip_twin_is_the_same_bytes(self, warm):
        __, port = warm
        ___, plain_headers, plain = request(port, "/")
        status, headers, compressed = request(
            port, "/", headers={"Accept-Encoding": "gzip"}
        )
        assert status == 200
        assert headers["Content-Encoding"] == "gzip"
        assert gzip.decompress(compressed) == plain
        # same strong validator for both representations of the artifact
        assert headers["ETag"] == plain_headers["ETag"]
        # mtime=0: the compressed representation is itself reproducible
        ____, _____, again = request(
            port, "/", headers={"Accept-Encoding": "gzip"}
        )
        assert again == compressed


class TestLoadShedding:
    def _blocking_store(self, release):
        def slow():
            assert release.wait(timeout=30.0), "test never released the render"
            return "slow artifact"

        return ArtifactStore(
            "v-slow",
            {"/slow": ("text/plain", slow), "/other": ("text/plain", slow)},
        )

    def test_saturation_sheds_503_then_recovers(self):
        release = threading.Event()
        store = self._blocking_store(release)
        server = ArtifactServer(store, max_inflight=2, shed_after_s=0.05)
        with server.serving(workers=4) as (httpd, __):
            port = httpd.server_address[1]
            held = []

            def hold():
                held.append(request(port, "/slow"))

            blockers = [threading.Thread(target=hold) for __ in range(2)]
            for thread in blockers:
                thread.start()
            # both admission slots taken: one rendering, one coalesced
            assert wait_until(lambda: server.inflight == 2)

            status, headers, body = request(port, "/other")
            assert status == 503
            assert headers["Retry-After"] == "1"
            assert b"Traceback" not in body
            assert server.stats["shed"] == 1

            release.set()
            for thread in blockers:
                thread.join(timeout=30.0)
            assert [status for status, __, ___ in held] == [200, 200]
            # slots free again: the same request now succeeds
            status, __, body = request(port, "/other")
            assert status == 200 and body == b"slow artifact"

    def test_shed_does_not_leak_slots(self):
        # every exit from respond gives its admission slot back: with one
        # slot, a leak on any path would shed the follow-up request
        recorder = LockRecorder()
        started = threading.Event()
        release = threading.Event()

        def slow():
            started.set()
            assert release.wait(timeout=30.0), "test never released the render"
            return "slow artifact"

        def boom():
            raise RuntimeError("render failed")

        store = ArtifactStore(
            "v-exits",
            {
                "/page": ("text/plain", lambda: "page"),
                "/boom": ("text/plain", boom),
                "/slow": ("text/plain", slow),
            },
        )
        server = ArtifactServer(store, max_inflight=1, shed_after_s=0.05)
        recorder.instrument(store, server)

        def assert_slot_returned():
            assert server.inflight == 0
            assert recorder.held_anywhere() == ()
            assert server.respond("GET", "/page").status == 200
            recorder.assert_clean()

        etag = server.respond("GET", "/page").header("ETag")
        exits = [
            (200, "GET", "/page", None),
            (304, "GET", "/page", {"If-None-Match": etag}),
            (404, "GET", "/missing", None),
            (400, "GET", "/%2e%2e/secret", None),
            (200, "HEAD", "/page", None),
            (500, "GET", "/boom", None),
        ]
        for status, method, path, headers in exits:
            assert server.respond(method, path, headers).status == status
            assert_slot_returned()

        # 503: a render parked in another thread holds the only slot
        held = []
        holder = threading.Thread(
            target=lambda: held.append(server.respond("GET", "/slow"))
        )
        holder.start()
        assert started.wait(timeout=10.0)
        assert server.inflight == 1
        shed = server.respond("GET", "/page")
        assert shed.status == 503 and shed.header("Retry-After") == "1"
        release.set()
        holder.join(timeout=30.0)
        assert [response.status for response in held] == [200]
        assert server.stats["shed"] == 1
        assert_slot_returned()


class TestGracefulReload:
    def test_inflight_finishes_on_old_store_new_requests_see_new(self):
        started = threading.Event()
        release = threading.Event()

        def slow_old():
            started.set()
            assert release.wait(timeout=30.0)
            return "old body"

        old = ArtifactStore("v-old", {"/page": ("text/plain", slow_old)})
        new = ArtifactStore("v-new", {"/page": ("text/plain", lambda: "new body")})
        server = ArtifactServer(old)
        with server.serving(workers=4) as (httpd, __):
            port = httpd.server_address[1]
            inflight_result = {}

            def old_reader():
                inflight_result["r"] = request(port, "/page")

            reader = threading.Thread(target=old_reader)
            reader.start()
            assert started.wait(timeout=10.0)

            # swap stores while the first request is mid-render
            assert server.reload(new) == "v-new"
            status, headers, body = request(port, "/page")
            assert status == 200
            assert body == b"new body"
            assert headers["X-Analysis-Version"] == "v-new"

            release.set()
            reader.join(timeout=30.0)
            status, headers, body = inflight_result["r"]
            assert status == 200
            assert body == b"old body"  # pinned to the store it started on
            assert headers["X-Analysis-Version"] == "v-old"

            ___, ____, health = request(port, "/healthz")
            assert b'"version": "v-new"' in health
        assert server.stats["reloads"] == 1


class TestLockDiscipline:
    """The burst harness re-run with every serving lock recorded."""

    def test_cold_burst_never_nests_locks_or_renders_under_one(self, engine):
        recorder = LockRecorder()
        store = build_store(engine)
        server = ArtifactServer(store)
        recorder.instrument(store, server)
        path = "/dashboard/citizen"
        with server.serving(workers=8) as (httpd, __):
            port = httpd.server_address[1]
            results = burst(port, path, CLIENTS)
            # a second wave over every other route: distinct keys render
            # side by side while admissions and /healthz keep flowing
            others = [p for p in store.paths() if p != path] + ["/healthz"]
            waves = [
                threading.Thread(target=burst, args=(port, other, 6))
                for other in others
            ]
            for thread in waves:
                thread.start()
            for thread in waves:
                thread.join(timeout=120.0)
        assert {status for status, __, ___ in results} == {200}
        assert store.render_count(path) == 1
        assert store.render_attempts == len(store.paths())
        # the run was observed: every render and many acquisitions ...
        assert recorder.n_renders == len(store.paths())
        assert recorder.n_acquires > 2 * CLIENTS
        # ... and no thread ever held two locks or rendered under one
        recorder.assert_clean()
        assert recorder.held_anywhere() == ()
        assert server.inflight == 0

    def test_graceful_reload_burst_keeps_the_discipline(self, engine):
        recorder = LockRecorder()
        store = build_store(engine)
        server = ArtifactServer(store)
        recorder.instrument(store, server)
        with server.serving(workers=4) as (httpd, __):
            port = httpd.server_address[1]
            results = burst(port, "/report", 12)
            assert {status for status, __, ___ in results} == {200}
            fresh = build_store(engine)
            recorder.instrument(fresh)
            server.reload(fresh)
            results = burst(port, "/report", 12)
            assert {status for status, __, ___ in results} == {200}
        assert fresh.render_count("/report") == 1
        assert recorder.n_renders == 2
        recorder.assert_clean()
