"""Tests for the dashboard HTTP surface: routing, error pages, path policy.

Routing is exercised socket-free through :meth:`ArtifactServer.respond`;
the socket cases run the real pooled handler via
:meth:`ArtifactServer.serving`.
"""

import json
from types import SimpleNamespace

import numpy as np
import pytest

from repro import Indice, IndiceConfig, Stakeholder
from repro.dataset import SyntheticConfig, generate_epc_collection
from repro.dataset.table import Column
from repro.serving import (
    ArtifactServer,
    ArtifactStore,
    build_store,
    render_points_geojson,
)
from repro.serving.server import write_payload


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
def server(engine):
    return ArtifactServer(build_store(engine))


def get(server, path, headers=None):
    """``(status, content_type, decoded body)`` of one socket-free GET."""
    response = server.respond("GET", path, headers)
    return response.status, response.content_type, response.body.decode("utf-8")


class TestRouting:
    def test_index_links_all_stakeholders(self, server):
        status, content_type, body = get(server, "/")
        assert status == 200
        assert "text/html" in content_type
        for s in Stakeholder:
            assert f"/dashboard/{s.value}" in body

    def test_dashboard_route(self, server):
        status, __, body = get(server, "/dashboard/citizen")
        assert status == 200
        assert body.startswith("<!DOCTYPE html>")
        assert "showTab" in body  # the navigable dashboard

    def test_trailing_slash_normalized(self, server):
        status, __, ___ = get(server, "/dashboard/citizen/")
        assert status == 200

    def test_unknown_stakeholder_404(self, server):
        status, __, body = get(server, "/dashboard/alien")
        assert status == 404
        assert "alien" in body

    def test_unknown_path_404(self, server):
        status, __, ___ = get(server, "/nope")
        assert status == 404

    def test_report_route(self, server):
        status, __, body = get(server, "/report")
        assert status == 200
        assert "INDICE analysis report" in body

    def test_dashboard_cached(self, server):
        # a second request renders nothing: it is served the stored bytes
        first = server.respond("GET", "/dashboard/energy_scientist")
        renders = server.store.total_renders
        second = server.respond("GET", "/dashboard/energy_scientist")
        assert server.store.total_renders == renders
        assert second.status == first.status == 200
        assert second.body == first.body


def strict_json(body: bytes):
    """Parse *body* as RFC 8259 JSON: ``NaN`` / ``Infinity`` are errors."""

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(body, parse_constant=reject)


class TestGeoJsonPoints:
    def test_points_layer_is_strict_json(self, server, engine):
        response = server.respond("GET", "/geojson/points")
        assert response.status == 200
        collection = strict_json(response.body)
        table = engine._require_analyzed().table
        located = np.isfinite(table["latitude"]) & np.isfinite(table["longitude"])
        assert len(collection["features"]) == int(located.sum())

    @staticmethod
    def _respond(engine, table):
        """``/geojson/points`` of a stand-in engine analyzed to *table*."""
        stand_in = SimpleNamespace(
            config=engine.config,
            _require_analyzed=lambda: SimpleNamespace(table=table),
        )
        store = ArtifactStore(
            "v-inf",
            {"/geojson/points": (
                "application/geo+json", lambda: render_points_geojson(stand_in)
            )},
        )
        return ArtifactServer(store).respond("GET", "/geojson/points")

    def test_infinite_coordinates_are_unlocated(self, engine):
        # one certificate at an infinite latitude and one at an infinite
        # longitude: both are dropped like NaN ones, never emitted as
        # `Infinity` (which no JSON parser has to accept)
        table = engine._require_analyzed().table
        lat, lon = table["latitude"].copy(), table["longitude"].copy()
        located = np.flatnonzero(np.isfinite(lat) & np.isfinite(lon))
        lat[located[0]], lon[located[1]] = np.inf, -np.inf
        table = table.with_column(Column.numeric("latitude", lat))
        table = table.with_column(Column.numeric("longitude", lon))
        response = self._respond(engine, table)
        assert response.status == 200
        features = strict_json(response.body)["features"]
        assert len(features) == len(located) - 2
        for feature in features:
            assert all(np.isfinite(feature["geometry"]["coordinates"]))

    def test_infinite_response_value_is_null(self, engine):
        # a located certificate whose response is +inf keeps its point,
        # with a JSON null property instead of `Infinity`
        table = engine._require_analyzed().table
        response_name = engine.config.response
        located = np.flatnonzero(
            np.isfinite(table["latitude"]) & np.isfinite(table["longitude"])
        )
        values = table[response_name].copy()
        values[located[0]] = np.inf
        table = table.with_column(Column.numeric(response_name, values))
        response = self._respond(engine, table)
        assert response.status == 200
        features = strict_json(response.body)["features"]
        assert len(features) == len(located)
        assert features[0]["properties"][response_name] is None


class TestErrorPages:
    """Every failure mode returns a well-formed page, never a traceback."""

    def test_unknown_stakeholder_is_html_error_page(self, server):
        status, content_type, body = get(server, "/dashboard/alien")
        assert status == 404
        assert "text/html" in content_type
        assert body.startswith("<!DOCTYPE html>")
        assert "alien" in body

    @pytest.mark.parametrize(
        "path",
        [
            "/../etc/passwd",
            "/dashboard/../secret",
            "relative/path",
            "/dash\\board",
            "/dashboard/<script>",
            "/report\x00",
        ],
    )
    def test_malformed_path_is_400_page(self, server, path):
        status, content_type, body = get(server, path)
        assert status == 400
        assert "text/html" in content_type
        assert body.startswith("<!DOCTYPE html>")
        assert "Traceback" not in body

    def test_internal_error_is_500_page_without_traceback(self, engine, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("rendering exploded")

        monkeypatch.setattr(engine, "build_navigable_dashboard", boom)
        status, content_type, body = get(
            ArtifactServer(build_store(engine)), "/dashboard/citizen"
        )
        assert status == 500
        assert "text/html" in content_type
        assert body.startswith("<!DOCTYPE html>")
        assert "Traceback" not in body and "rendering exploded" not in body
        assert "RuntimeError" in body  # the error *class* is surfaced

    def test_error_page_escapes_markup(self, server):
        # hostile names render inert: routing rejects raw <>, and the
        # escaped-name page never reflects raw markup back
        status, __, body = get(server, "/dashboard/%3Cimg%20src=x%3E")
        assert status == 404
        assert "<img" not in body


class TestHostilePathMatrix:
    """The one path policy, pinned case by case.

    Queries and fragments never route; traversal and control characters
    are rejected raw *or* percent-encoded; everything else percent-encoded
    stays literal (there is no filesystem behind the routes).
    """

    MATRIX = [
        # query strings and fragments are stripped before routing
        ("/dashboard/citizen?x=1", 200),
        ("/report?format=html&verbose=1", 200),
        ("/?utm_source=newsletter", 200),
        ("/report#section-2", 200),
        # traversal: raw, percent-encoded, mixed case, mixed encoding
        ("/..", 400),
        ("/%2e%2e/", 400),
        ("/%2E%2E/secret", 400),
        ("/%2e%2e%2fsecret", 400),
        ("/dashboard/..%2fsecret", 400),
        ("/dashboard/%2e%2e", 400),
        # control characters, raw and encoded
        ("/dashboard/citizen%00", 400),
        ("/report%0d%0aSet-Cookie:x", 400),
        # slashes normalize but never collapse into other routes
        ("//", 200),
        ("/dashboard/citizen//", 200),
        ("/dashboard//citizen", 404),
        ("/dashboard/citizen/extra", 404),
        # benign escapes stay literal: no such stakeholder, plain 404
        ("/dashboard/citi%7Azen", 404),
    ]

    @pytest.mark.parametrize("path,expected", MATRIX, ids=[p for p, __ in MATRIX])
    def test_status(self, server, path, expected):
        status, content_type, body = get(server, path)
        assert status == expected
        assert "text/html" in content_type
        assert "Traceback" not in body


class TestGzipNegotiation:
    """gzip only for a ``gzip`` coding listed with q > 0 (RFC 9110)."""

    @pytest.mark.parametrize(
        "accept,gzipped",
        [
            ("gzip", True),
            ("GZIP", True),
            ("deflate, gzip", True),
            ("gzip;q=0.5", True),
            ("identity, gzip; Q=1.0", True),
            ("gzip;q=0", False),
            ("identity, gzip;q=0", False),
            ("gzip; q=0.000", False),
            ("gzip;q=bogus", False),
            ("*", False),
            ("x-gzip", False),
            ("identity", False),
            ("", False),
        ],
    )
    def test_gzip_only_when_listed_with_positive_q(self, server, accept, gzipped):
        response = server.respond("GET", "/report", {"Accept-Encoding": accept})
        artifact = server.store.get("/report")
        assert response.status == 200
        assert (response.header("Content-Encoding") == "gzip") is gzipped
        assert response.body == (artifact.gzipped if gzipped else artifact.body)


@pytest.fixture()
def live_server(server):
    """The real pooled handler (``ArtifactServer.serving``) on a socket."""
    with server.serving() as (httpd, __):
        yield httpd.server_address[1]


class TestSocketRegressions:
    """HEAD support and client-disconnect tolerance of the real handler."""

    @staticmethod
    def _request(port, method, path):
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        try:
            conn.request(method, path)
            response = conn.getresponse()
            return response.status, dict(response.getheaders()), response.read()
        finally:
            conn.close()

    def test_head_matches_get_without_body(self, live_server):
        get_status, get_headers, get_body = self._request(
            live_server, "GET", "/report"
        )
        head_status, head_headers, head_body = self._request(
            live_server, "HEAD", "/report"
        )
        assert get_status == head_status == 200
        assert head_body == b""  # HEAD carries headers only
        # ...but advertises the same length the GET actually delivered
        assert head_headers["Content-Length"] == str(len(get_body))
        get_headers.pop("Date")
        head_headers.pop("Date")
        assert head_headers == get_headers

    def test_head_error_page_has_no_body(self, live_server):
        status, headers, body = self._request(live_server, "HEAD", "/nope")
        assert status == 404
        assert body == b""
        assert int(headers["Content-Length"]) > 0

    def test_abrupt_disconnect_does_not_wedge_server(self, live_server):
        # a client that sends a request and slams the connection shut must
        # not take the handler down: the next request is served normally
        import socket

        for __ in range(3):
            client = socket.create_connection(("127.0.0.1", live_server), timeout=5)
            client.sendall(b"GET /dashboard/citizen HTTP/1.1\r\n"
                           b"Host: localhost\r\n\r\n")
            client.close()  # gone before the (large) body is written
        status, __, body = self._request(live_server, "GET", "/")
        assert status == 200
        assert b"INDICE" in body


class TestSilentConnections:
    """A silent socket holds a pool worker only until the idle timeout."""

    IDLE = b""
    HALF_SENT = b"GET /report HTTP/1.1\r\nHost: localhost\r\n"

    @staticmethod
    def _healthz_after_silent(server, payload, workers, timeout):
        """``(status, seconds)`` of ``/healthz`` behind *workers* silent
        sockets (each sends *payload*, then nothing), and whether the
        server then closed every one of them."""
        import http.client
        import socket
        import time

        with server.serving(workers=workers) as (httpd, __):
            port = httpd.server_address[1]
            silent = [
                socket.create_connection(("127.0.0.1", port), timeout=10)
                for __ in range(workers)
            ]
            try:
                for sock in silent:
                    if payload:
                        sock.sendall(payload)
                time.sleep(0.2)  # the pool's workers pick the silent ones up
                start = time.perf_counter()
                conn = http.client.HTTPConnection(
                    "127.0.0.1", port, timeout=timeout + 5.0
                )
                try:
                    conn.request("GET", "/healthz")
                    response = conn.getresponse()
                    response.read()
                finally:
                    conn.close()
                elapsed = time.perf_counter() - start
                closed = all(sock.recv(1) == b"" for sock in silent)
            finally:
                for sock in silent:
                    sock.close()
        return response.status, elapsed, closed

    @pytest.mark.parametrize("payload", [IDLE, HALF_SENT], ids=["idle", "half-sent"])
    def test_silent_sockets_do_not_starve_the_pool(
        self, server, payload, monkeypatch, capfd
    ):
        from repro.serving.server import IDLE_TIMEOUT_S, _ArtifactRequestHandler

        assert _ArtifactRequestHandler.timeout == IDLE_TIMEOUT_S
        timeout = 0.5  # lowered from the default to keep the test fast
        monkeypatch.setattr(_ArtifactRequestHandler, "timeout", timeout)
        status, elapsed, closed = self._healthz_after_silent(
            server, payload, workers=2, timeout=timeout
        )
        assert status == 200
        assert elapsed < timeout + 2.0
        assert closed  # the server dropped each silent socket
        assert "Traceback" not in capfd.readouterr().err

    def test_default_timeout_frees_the_pool(self, server, capfd):
        from repro.serving.server import IDLE_TIMEOUT_S

        status, elapsed, closed = self._healthz_after_silent(
            server, self.IDLE, workers=2, timeout=IDLE_TIMEOUT_S
        )
        assert status == 200
        assert elapsed < IDLE_TIMEOUT_S + 2.0
        assert closed
        assert "Traceback" not in capfd.readouterr().err


class TestBusyPort:
    """Binding a port that is taken fails with the bind's own OSError."""

    @pytest.fixture()
    def busy_port(self):
        import socket

        with socket.socket() as holder:
            holder.bind(("127.0.0.1", 0))
            holder.listen()
            yield holder.getsockname()[1]

    def test_serving_raises_the_bind_error(self, server, busy_port):
        with pytest.raises(OSError):
            with server.serving(port=busy_port):
                pass

    def test_cli_exits_two_naming_the_address(self, busy_port, capsys):
        from repro.cli import main

        code = main([
            "serve", "--certificates", "300", "--no-prerender",
            "--port", str(busy_port),
        ])
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ")
        assert f"127.0.0.1:{busy_port}" in lines[0]


class TestWritePayload:
    """The disconnect-absorbing socket write used by every handler."""

    def test_normal_write_succeeds(self):
        import io

        stream = io.BytesIO()
        assert write_payload(stream, b"payload") is True
        assert stream.getvalue() == b"payload"

    @pytest.mark.parametrize("exc", [BrokenPipeError, ConnectionResetError])
    def test_client_disconnect_absorbed(self, exc):
        class DeadSocket:
            def write(self, payload):
                raise exc("client went away")

        assert write_payload(DeadSocket(), b"payload") is False

    def test_other_errors_propagate(self):
        class BadStream:
            def write(self, payload):
                raise OSError("disk full")

        with pytest.raises(OSError):
            write_payload(BadStream(), b"payload")
