"""Open-loop HTTP load: requests go out on a schedule, not on replies.

Independent users do not wait for each other, so request ``i`` is *due*
at ``t0 + i / rate`` whatever happened to request ``i - 1``.  Latency is
measured from the due time, which charges a stall to every request
queued behind it; how late the generator itself sent each request is
recorded separately, so a saturated client cannot pass for a fast
server.  At most ``connections`` keep-alive connections carry the load,
one client thread each, and each thread takes the next due request as
soon as it is free.
"""

from __future__ import annotations

import hashlib
import http.client
import itertools
import random
import threading
import time
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

from stats import percentile


@dataclass
class Outcome:
    """What one request produced, as the verifier sees it."""

    ok: bool
    status: int
    nbytes: int
    detail: str = ""


@dataclass
class LoadResult:
    """Per-request timings (seconds) of one open-loop phase."""

    rate: float
    due: list[float] = field(default_factory=list)
    sent: list[float] = field(default_factory=list)
    done: list[float] = field(default_factory=list)
    outcomes: list[Outcome] = field(default_factory=list)

    @property
    def latencies_ms(self) -> list[float]:
        """Completion minus due time, per request."""
        return [(d - u) * 1000.0 for u, d in zip(self.due, self.done)]

    @property
    def lateness_ms(self) -> list[float]:
        """Send minus due time: how far the generator fell behind."""
        return [(s - u) * 1000.0 for u, s in zip(self.due, self.sent)]

    @property
    def failed(self) -> int:
        return sum(not o.ok for o in self.outcomes)

    def achieved_rate(self) -> float:
        """Completed requests per second of the phase's wall time."""
        if not self.done:
            return 0.0
        span = max(self.done) - min(self.due)
        return len(self.done) / span if span > 0 else 0.0


def run_open_loop(
    send: Callable[[int, int], Outcome],
    rate: float,
    duration: float,
    connections: int = 2,
    between: Callable[[float], None] | None = None,
) -> LoadResult:
    """Issue ``rate * duration`` requests on the open-loop schedule.

    ``send(i, conn)`` performs request *i* on connection *conn* and
    returns its :class:`Outcome`.  *between*, when given, is called from
    the calling thread with the elapsed phase time until every request
    has been issued (it sleeps as it likes; the reload schedule uses it).
    """
    total = int(round(rate * duration))
    result = LoadResult(rate)
    slots = [None] * total
    counter = itertools.count()
    start = perf_counter() + 0.05

    def worker(conn: int) -> None:
        while True:
            i = next(counter)
            if i >= total:
                return
            due = start + i / rate
            wait = due - perf_counter()
            if wait > 0:
                time.sleep(wait)
            sent = perf_counter()
            # a client-side failure is one failed request, never a dead
            # generator thread that would silently stop the schedule
            try:
                outcome = send(i, conn)
            except Exception as exc:
                outcome = Outcome(False, 0, 0, f"{type(exc).__name__}: {exc}")
            slots[i] = (due, sent, perf_counter(), outcome)

    threads = [
        threading.Thread(target=worker, args=(c,), daemon=True)
        for c in range(connections)
    ]
    for thread in threads:
        thread.start()
    if between is not None:
        while any(t.is_alive() for t in threads):
            between(perf_counter() - start)
    for thread in threads:
        thread.join()
    for due, sent, done, outcome in slots:
        result.due.append(due)
        result.sent.append(sent)
        result.done.append(done)
        result.outcomes.append(outcome)
    return result


class HttpClient:
    """Keep-alive connections that send and verify INDICE requests.

    *versions* maps analysis version → route → expected ``etag`` and
    ``gzip_sha256``: a 200 must carry exactly the store artifact's gzip
    bytes for the version it names, and a 304 is accepted only when the
    validator sent equals that version's ETag for the route.
    """

    def __init__(self, port: int, versions: dict, connections: int = 2):
        self.port = port
        self.versions = versions
        self._conns = [self._connect() for __ in range(connections)]
        first = next(iter(versions.values()))
        self.etags = {path: h["etag"] for path, h in first.items()}
        self._etag_lock = threading.Lock()

    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)

    def warm_up(self) -> None:
        """Open every connection with a health probe (not measured)."""
        for conn in self._conns:
            conn.request("GET", "/healthz")
            conn.getresponse().read()

    def close(self) -> None:
        for conn in self._conns:
            conn.close()

    def request(self, conn: int, path: str, conditional: bool) -> Outcome:
        headers = {"Accept-Encoding": "gzip"}
        sent_etag = None
        if conditional:
            with self._etag_lock:
                sent_etag = self.etags[path]
            headers["If-None-Match"] = sent_etag
        try:
            connection = self._conns[conn]
            connection.request("GET", path, headers=headers)
            response = connection.getresponse()
            body = response.read()
        except (OSError, http.client.HTTPException) as exc:
            self._conns[conn].close()
            self._conns[conn] = self._connect()
            return Outcome(False, 0, 0, f"{type(exc).__name__}: {exc}")
        return self._verify(path, sent_etag, response, body)

    def _verify(self, path, sent_etag, response, body) -> Outcome:
        status = response.status
        expected = self.versions.get(response.getheader("X-Analysis-Version"), {})
        artifact = expected.get(path)
        etag = response.getheader("ETag")
        if artifact is None:
            return Outcome(False, status, len(body), "unknown version or route")
        if status == 304:
            if sent_etag is None or etag != sent_etag or etag != artifact["etag"]:
                return Outcome(False, status, len(body), "304 without ETag match")
            return Outcome(True, status, len(body))
        if status != 200:
            return Outcome(False, status, len(body), f"status {status}")
        if (
            etag != artifact["etag"]
            or hashlib.sha256(body).hexdigest() != artifact["gzip_sha256"]
        ):
            return Outcome(False, status, len(body), "body differs from artifact")
        with self._etag_lock:
            self.etags[path] = etag
        return Outcome(True, status, len(body))


def route_plan(paths, total: int, seed: int, conditional_share: float):
    """Seeded ``(path, conditional)`` choices for *total* requests."""
    rng = random.Random(seed)
    return [
        (rng.choice(paths), rng.random() < conditional_share)
        for __ in range(total)
    ]


def passes_limit(result: LoadResult, tail_q: float, limit_ms: float) -> bool:
    """The max-rate criterion: tail within *limit_ms*, ≥95% of the offered
    rate achieved, and no failed request."""
    latencies = result.latencies_ms
    return (
        result.failed == 0
        and bool(latencies)
        and percentile(latencies, tail_q) <= limit_ms
        and result.achieved_rate() >= 0.95 * result.rate
    )


def bisect_max_rate(
    probe: Callable[[float], bool],
    lo: float,
    hi: float,
    precision: float = 1.05,
) -> tuple[float | None, list[tuple[float, bool]]]:
    """Highest rate in ``[lo, hi]`` that *probe* accepts, to *precision*.

    Bisects geometrically; ``None`` when even *lo* fails.  Returns the
    probes made, in order, with their verdicts.
    """
    history = []
    ok = probe(lo)
    history.append((lo, ok))
    if not ok:
        return None, history
    ok = probe(hi)
    history.append((hi, ok))
    if ok:
        return hi, history
    while hi / lo > precision:
        mid = (lo * hi) ** 0.5
        ok = probe(mid)
        history.append((mid, ok))
        if ok:
            lo = mid
        else:
            hi = mid
    return lo, history
