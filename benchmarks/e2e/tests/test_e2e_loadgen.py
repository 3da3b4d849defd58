"""Open-loop due-time and lateness accounting, verification, bisection."""

import threading
import time

import pytest

import loadgen
from loadgen import Outcome, bisect_max_rate, run_open_loop


def test_latency_counts_from_due_time_across_a_stall():
    # one connection, 100 req/s; request 0 stalls 80 ms, so requests 1-7
    # are sent late and their latency includes the wait behind the stall
    def send(i, conn):
        if i == 0:
            time.sleep(0.08)
        return Outcome(True, 200, 0)

    result = run_open_loop(send, rate=100.0, duration=0.2, connections=1)
    assert len(result.outcomes) == 20
    latencies, lateness = result.latencies_ms, result.lateness_ms
    due_gaps = [b - a for a, b in zip(result.due, result.due[1:])]
    assert all(g == pytest.approx(0.01) for g in due_gaps)  # fixed schedule
    assert latencies[0] >= 80.0
    # request 1 was due 10 ms in but could not leave before ~80 ms
    assert lateness[1] >= 65.0
    assert latencies[1] >= lateness[1]
    for lat, late in zip(latencies, lateness):
        assert lat >= late >= -1.0  # sent no earlier than due (timer slack)
    # after the backlog drains the generator is on time again
    assert lateness[-1] < 5.0
    assert result.failed == 0


def test_two_connections_share_one_schedule():
    seen = []

    def send(i, conn):
        seen.append((i, conn))
        if conn == 0:
            time.sleep(0.05)
        return Outcome(True, 304, 0)

    result = run_open_loop(send, rate=100.0, duration=0.1, connections=2)
    assert sorted(i for i, __ in seen) == list(range(10))
    # the free connection keeps taking due requests while the other stalls
    assert {conn for __, conn in seen} == {0, 1}
    assert result.lateness_ms[1] < 5.0


def test_send_exceptions_are_failed_requests():
    def send(i, conn):
        if i == 2:
            raise ConnectionError("reset")
        return Outcome(True, 200, 0)

    result = run_open_loop(send, rate=200.0, duration=0.05, connections=1)
    assert result.failed == 1
    assert "ConnectionError" in result.outcomes[2].detail


class FakeResponse:
    def __init__(self, status, headers):
        self.status = status
        self._headers = headers

    def getheader(self, name):
        return self._headers.get(name)


def test_verification_accepts_304_only_on_etag_match():
    versions = {"v1": {"/": {"etag": '"a"', "gzip_sha256": "x"}}}
    client = object.__new__(loadgen.HttpClient)
    client.versions = versions
    client.etags = {"/": '"a"'}
    client._etag_lock = threading.Lock()
    match = FakeResponse(304, {"X-Analysis-Version": "v1", "ETag": '"a"'})
    assert client._verify("/", '"a"', match, b"").ok
    stale = FakeResponse(304, {"X-Analysis-Version": "v1", "ETag": '"a"'})
    assert not client._verify("/", '"old"', stale, b"").ok
    unconditional = FakeResponse(304, {"X-Analysis-Version": "v1", "ETag": '"a"'})
    assert not client._verify("/", None, unconditional, b"").ok
    wrong_body = FakeResponse(200, {"X-Analysis-Version": "v1", "ETag": '"a"'})
    assert not client._verify("/", None, wrong_body, b"not the artifact").ok
    unknown = FakeResponse(200, {"X-Analysis-Version": "v9", "ETag": '"a"'})
    assert not client._verify("/", None, unknown, b"").ok
    error = FakeResponse(503, {"X-Analysis-Version": "v1", "ETag": None})
    assert client._verify("/", None, error, b"").status == 503
    assert not client._verify("/", None, error, b"").ok


def test_bisection_finds_the_threshold_to_precision():
    best, history = bisect_max_rate(lambda r: r <= 1234.0, 500.0, 8000.0)
    assert 1234.0 / 1.05 <= best <= 1234.0
    assert history[0] == (500.0, True) and history[1] == (8000.0, False)
    assert bisect_max_rate(lambda r: False, 500.0, 8000.0)[0] is None
    assert bisect_max_rate(lambda r: True, 500.0, 8000.0)[0] == 8000.0
