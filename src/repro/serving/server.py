"""The multi-worker artifact server: pooled threads over immutable bytes.

:class:`ArtifactServer` is the HTTP face of an :class:`ArtifactStore`.
Its request path (:meth:`ArtifactServer.respond`) is a pure-ish function
from ``(method, path, headers)`` to a :class:`Response`, so the whole
caching / shedding / error surface is testable without sockets; the
socket layer is :class:`PooledHTTPServer`, a stdlib ``HTTPServer`` whose
accepted connections are drained by a **fixed pool of worker threads**
(the ``--workers`` knob) instead of one thread per connection.

Request lifecycle:

1. **admission** — the request waits, under a short
   :class:`~repro.faults.policy.Deadline`, for the in-flight count to
   drop below ``max_inflight``; when it does not, the request is shed
   with ``503 + Retry-After`` instead of queueing without bound (the
   serving twin of the pipeline's load shedding);
2. **routing** — :func:`normalize_path` applies the hostile-path
   policy (400), unknown routes 404;
3. **artifact** — the store returns the immutable payload, rendering it
   once, single-flight, if cold; any rendering failure
   (injected or real) becomes a per-request 500 page, never a traceback;
4. **representation** — strong ``ETag`` vs ``If-None-Match`` (304),
   gzip when the client lists it with ``q > 0``, ``Cache-Control`` on
   everything.

**Silent clients**: every socket read and write times out after
:data:`IDLE_TIMEOUT_S`, and the stdlib handler closes the connection, so
a client that stops sending frees its worker instead of pinning it.

**Graceful reload**: each request reads ``self._store`` exactly once, so
:meth:`reload` swapping the attribute is atomic — in-flight requests
finish on the store they started with while new requests see the new
analysis version.

The server has one lock, a :class:`threading.Condition` guarding the
in-flight count and the ``stats`` counters.  It is held only for those
updates, so it is never held across a render nor while the store's
lock is taken.
"""

from __future__ import annotations

import json
import queue
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, HTTPServer
from urllib.parse import unquote
from xml.sax.saxutils import escape

from ..core.engine import Indice
from ..faults.policy import Deadline
from .store import _HTML, ArtifactStore, build_store

__all__ = [
    "ArtifactServer",
    "PooledHTTPServer",
    "Response",
    "normalize_path",
    "write_payload",
]

#: Artifacts are immutable per analysis version but live at stable URLs,
#: so clients must revalidate — which the strong ETags make a cheap 304.
_REVALIDATE = "public, no-cache"
#: Error pages and health probes must never be cached.
_NO_STORE = "no-store"
#: Seconds a connection may sit silent (idle between keep-alive
#: requests, or mid-request) before its worker drops it.  Each open
#: connection holds one pool worker, so without a bound ``workers`` idle
#: sockets would starve every other client.
IDLE_TIMEOUT_S = 5.0

_ERROR_TEMPLATE = """<!DOCTYPE html><html><head><meta charset='utf-8'>
<title>INDICE — {status}</title><style>
body {{ font-family: sans-serif; margin: 40px; color: #1c2733; }}
h1 {{ color: #883333; }} a {{ color: #225588; }}
</style></head><body>
<h1>{status} — {title}</h1>
<p>{message}</p>
<p><a href="/">Back to the index</a></p>
</body></html>"""


def normalize_path(raw_path: str) -> str | None:
    """The request path with query/fragment stripped, or None if hostile.

    The server's one path policy:

    * the query string and fragment never participate in routing;
    * the path must be absolute and free of backslashes, raw control
      characters and raw angle brackets;
    * traversal sequences (``..``) and control characters are rejected
      whether they arrive raw or percent-encoded (``%2e%2e``, ``%00``);
      other escapes are kept literal — there is no filesystem behind the
      routes, and reflected text is always HTML-escaped;
    * trailing slashes are normalized away (``/report/`` == ``/report``).
    """
    path = raw_path.split("?", 1)[0].split("#", 1)[0]
    if not path.startswith("/") or "\\" in path:
        return None
    if any(ord(c) < 0x20 or c in "<>" for c in path):
        return None
    decoded = unquote(path)
    if ".." in decoded or any(ord(c) < 0x20 for c in decoded):
        return None
    return path.rstrip("/") or "/"


def write_payload(stream, payload: bytes) -> bool:
    """Write *payload* to a socket stream, absorbing client disconnects.

    A browser closing the tab mid-response surfaces as
    ``BrokenPipeError`` / ``ConnectionResetError`` on the write; that is
    the client's prerogative, not a server failure, so it must never
    escape into ``http.server``'s handler loop.  Returns whether the
    payload was fully written.
    """
    try:
        stream.write(payload)
        return True
    except (BrokenPipeError, ConnectionResetError):
        return False


@dataclass(frozen=True)
class Response:
    """One HTTP response, socket-free."""

    status: int
    content_type: str
    body: bytes
    headers: tuple[tuple[str, str], ...] = ()

    def header(self, name: str) -> str | None:
        """The first header named *name* (case-insensitive), or None."""
        wanted = name.lower()
        for key, value in self.headers:
            if key.lower() == wanted:
                return value
        return None


def _page(status: int, title: str, message: str,
          headers: tuple[tuple[str, str], ...] = ()) -> Response:
    """An HTML error page as a :class:`Response` (never cached)."""
    body = _ERROR_TEMPLATE.format(
        status=status, title=escape(title), message=escape(message)
    )
    return Response(
        status, _HTML, body.encode("utf-8"),
        (("Cache-Control", _NO_STORE),) + headers,
    )


def _etag_matches(header_value: str, etag: str) -> bool:
    """RFC 7232 ``If-None-Match``: ``*`` or any listed (weak) validator."""
    if header_value.strip() == "*":
        return True
    for candidate in header_value.split(","):
        candidate = candidate.strip()
        if candidate.startswith("W/"):
            candidate = candidate[2:]
        if candidate == etag:
            return True
    return False


def _accepts_gzip(header_value: str) -> bool:
    """RFC 9110 ``Accept-Encoding``: a ``gzip`` coding listed with q > 0."""
    for entry in header_value.split(","):
        coding, *params = entry.split(";")
        if coding.strip().lower() != "gzip":
            continue
        for param in params:
            name, __, value = param.partition("=")
            if name.strip().lower() == "q":
                try:
                    return float(value) > 0
                except ValueError:
                    return False
        return True
    return False


class ArtifactServer:
    """Serves an :class:`ArtifactStore` with caching, shedding and reload.

    Parameters
    ----------
    store:
        The artifact store to serve.  Build one from an analyzed engine
        with :func:`~repro.serving.store.build_store` (or use
        :meth:`for_engine`).
    max_inflight:
        Requests allowed in flight at once; arrivals beyond it wait out
        ``shed_after_s`` and are then shed with ``503 + Retry-After``.
    shed_after_s:
        The admission :class:`Deadline` budget — how long an arrival may
        wait for a slot before it is shed.
    """

    def __init__(
        self,
        store: ArtifactStore,
        *,
        max_inflight: int = 64,
        shed_after_s: float = 0.05,
    ):
        if max_inflight < 1:
            raise ValueError("max_inflight must be at least 1")
        self._store = store
        self.max_inflight = max_inflight
        self.shed_after_s = shed_after_s
        #: Guards ``_inflight`` and ``stats``; admission waits on it.
        self._cond = threading.Condition(threading.Lock())
        self._inflight = 0
        self.stats = {
            "requests": 0,
            "shed": 0,
            "not_modified": 0,
            "errors": 0,
            "reloads": 0,
        }

    @classmethod
    def for_engine(cls, engine: Indice, **kwargs) -> "ArtifactServer":
        """An artifact server over a freshly built store for *engine*."""
        return cls(build_store(engine), **kwargs)

    # -- store access and graceful reload -----------------------------------

    @property
    def store(self) -> ArtifactStore:
        """The store new requests will be served from."""
        return self._store

    @property
    def inflight(self) -> int:
        """Requests currently holding an admission slot."""
        with self._cond:
            return self._inflight

    def reload(self, store: ArtifactStore) -> str:
        """Atomically swap in *store*; returns the new version.

        Requests already in flight finish against the store they read at
        admission; every later request sees the new artifacts.  Nothing
        is torn down — the old store is garbage once its last in-flight
        reader returns.
        """
        self._store = store
        self._count("reloads")
        return store.version

    def reload_from(self, engine: Indice) -> str:
        """Build a store from a (re-)analyzed engine and swap it in."""
        return self.reload(build_store(engine))

    # -- the socket-free request path ----------------------------------------

    def respond(
        self,
        method: str,
        raw_path: str,
        headers: dict[str, str] | None = None,
    ) -> Response:
        """Serve one request; total — never raises, always a Response."""
        lowered = {
            key.lower(): value for key, value in (headers or {}).items()
        }
        deadline = Deadline(self.shed_after_s)
        with self._cond:
            self.stats["requests"] += 1
            admitted = self._cond.wait_for(
                lambda: self._inflight < self.max_inflight,
                timeout=deadline.remaining(),
            )
            if admitted:
                self._inflight += 1
            else:
                self.stats["shed"] += 1
        if not admitted:
            return _page(
                503, "server saturated",
                f"more than {self.max_inflight} requests are in flight; "
                "retry shortly",
                headers=(("Retry-After", "1"),),
            )
        try:
            return self._respond(method, raw_path, lowered)
        finally:
            with self._cond:
                self._inflight -= 1
                self._cond.notify()

    def _respond(
        self, method: str, raw_path: str, headers: dict[str, str]
    ) -> Response:
        # one read: this request is pinned to whatever store is current
        store = self._store
        path = normalize_path(raw_path)
        if path is None:
            return _page(
                400, "malformed path",
                "the request path could not be understood",
            )
        if path == "/healthz":
            return self._healthz(store)
        try:
            artifact = store.get(path)
        except KeyError:
            return _page(404, "not found", f"no route for {path!r}")
        # The per-request 500 page is the serving tier's totality contract:
        # a failed (or fault-injected) render must cost exactly one request
        # and never leak a traceback or wedge the single-flight claim.
        except Exception as exc:  # repro: noqa[EXC001] — catch-all 500, no tracebacks out
            self._count("errors")
            return _page(
                500, "internal error",
                f"the server failed to render this page "
                f"({type(exc).__name__}); retrying is safe",
            )

        base_headers = (
            ("ETag", artifact.etag),
            ("Cache-Control", _REVALIDATE),
            ("X-Analysis-Version", store.version),
            ("Vary", "Accept-Encoding"),
        )
        if_none_match = headers.get("if-none-match")
        if if_none_match and _etag_matches(if_none_match, artifact.etag):
            self._count("not_modified")
            return Response(304, artifact.content_type, b"", base_headers)
        body = artifact.body
        if _accepts_gzip(headers.get("accept-encoding", "")):
            body = artifact.gzipped
            base_headers += (("Content-Encoding", "gzip"),)
        return Response(200, artifact.content_type, body, base_headers)

    def _healthz(self, store: ArtifactStore) -> Response:
        """Liveness + version probe (dynamic: never an artifact)."""
        with self._cond:
            snapshot = dict(self.stats)
            snapshot["inflight"] = self._inflight
        payload = {
            "status": "ok",
            "version": store.version,
            "artifacts": len(store.paths()),
            "rendered": store.total_renders,
            **snapshot,
        }
        return Response(
            200, "application/json",
            json.dumps(payload, sort_keys=True).encode("utf-8"),
            (("Cache-Control", _NO_STORE),),
        )

    def _count(self, key: str) -> None:
        with self._cond:
            self.stats[key] += 1

    # -- socket layer --------------------------------------------------------

    def _handler_class(self, quiet: bool) -> type[BaseHTTPRequestHandler]:
        artifact_server = self

        class Handler(_ArtifactRequestHandler):
            server_ref = artifact_server
            log_requests = not quiet

        return Handler

    @contextmanager
    def serving(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 8,
        quiet: bool = True,
    ):
        """Run the pooled server in the background; yields ``(httpd, url)``.

        The test-harness entry point: binds an ephemeral port by default
        and guarantees shutdown (worker pool included) on exit.
        """
        httpd = PooledHTTPServer(
            (host, port), self._handler_class(quiet), workers=workers
        )
        thread = threading.Thread(
            target=httpd.serve_forever, name="indice-acceptor", daemon=True
        )
        thread.start()
        try:
            yield httpd, f"http://{host}:{httpd.server_address[1]}"
        finally:
            httpd.shutdown()
            httpd.server_close()
            thread.join(timeout=5.0)

    def serve(
        self,
        host: str = "127.0.0.1",
        port: int = 8350,
        workers: int = 8,
    ) -> None:
        """Serve forever (Ctrl-C to stop)."""
        with PooledHTTPServer(
            (host, port), self._handler_class(quiet=False), workers=workers
        ) as httpd:
            print(
                f"INDICE artifact server at http://{host}:{port}/ — "
                f"{workers} workers, max {self.max_inflight} in flight, "
                f"analysis version {self._store.version} (Ctrl-C to stop)"
            )
            httpd.serve_forever()


class _ArtifactRequestHandler(BaseHTTPRequestHandler):
    """GET/HEAD plumbing between one socket and an :class:`ArtifactServer`."""

    protocol_version = "HTTP/1.1"
    server_version = "indice-serving"
    #: Socket timeout of every read and write; the stdlib handler turns
    #: a timeout into a closed connection (no traceback).
    timeout = IDLE_TIMEOUT_S
    #: Bound by :meth:`ArtifactServer._handler_class`.
    server_ref: ArtifactServer
    log_requests = True

    def do_GET(self):  # noqa: N802 (http.server API)
        """Serve a GET: full response, headers and body."""
        self._handle(include_body=True)

    def do_HEAD(self):  # noqa: N802 (http.server API)
        """Serve a HEAD: the GET's status line and headers, body withheld."""
        self._handle(include_body=False)

    def _handle(self, include_body: bool) -> None:
        response = self.server_ref.respond(
            self.command, self.path, dict(self.headers.items())
        )
        try:
            self.send_response(response.status)
            self.send_header("Content-Type", response.content_type)
            for name, value in response.headers:
                self.send_header(name, value)
            if response.status != 304:
                # HEAD advertises the same length the GET would carry
                self.send_header("Content-Length", str(len(response.body)))
            self.end_headers()
        except (BrokenPipeError, ConnectionResetError):
            self.close_connection = True
            return
        if include_body and response.status != 304 and response.body:
            if not write_payload(self.wfile, response.body):
                self.close_connection = True

    def log_message(self, fmt, *args):
        """Access log line (suppressed when the server runs quiet)."""
        if self.log_requests:
            print(f"[indice] {self.address_string()} {fmt % args}")


class PooledHTTPServer(HTTPServer):
    """An ``HTTPServer`` whose connections are handled by a fixed pool.

    ``ThreadingHTTPServer`` spawns one thread per connection — unbounded
    under load.  This server keeps the stdlib accept loop but hands each
    accepted connection to one of ``workers`` long-lived worker threads
    through a queue, so concurrency is capped by configuration and a
    connection storm degrades to queueing (and, past ``max_inflight``,
    to shedding) instead of thread exhaustion.
    """

    #: Workers are daemons: a hung handler never blocks interpreter exit.
    daemon_threads = True
    #: The stdlib default backlog of 5 drops SYNs under a connection
    #: storm; the accept loop drains fast (accept + enqueue only), so a
    #: deep backlog just smooths the burst into the queue.
    request_queue_size = 128

    def __init__(self, server_address, handler_class, workers: int = 8):
        # the pool exists before the bind: a failed bind calls
        # server_close(), which must see it and let the OSError through
        self.workers = max(1, workers)
        self._connections: queue.SimpleQueue = queue.SimpleQueue()
        self._threads = [
            threading.Thread(
                target=self._drain, name=f"indice-worker-{index}", daemon=True
            )
            for index in range(self.workers)
        ]
        super().__init__(server_address, handler_class)
        for thread in self._threads:
            thread.start()

    def process_request(self, request, client_address):
        """Accept loop: enqueue the connection for the worker pool."""
        self._connections.put((request, client_address))

    def _drain(self) -> None:
        """One worker: serve queued connections until told to stop."""
        while True:
            item = self._connections.get()
            if item is None:
                return
            request, client_address = item
            try:
                self.finish_request(request, client_address)
            # socketserver contract: a handler failure is reported via
            # handle_error and the worker lives on to serve the next
            # connection — one bad socket must not kill the pool.
            except Exception:  # repro: noqa[EXC001] — reported via handle_error, worker survives
                self.handle_error(request, client_address)
            finally:
                self.shutdown_request(request)

    def server_close(self) -> None:
        """Close the listening socket, then stop and join the pool."""
        super().server_close()
        for __ in self._threads:
            self._connections.put(None)
        for thread in self._threads:
            if thread.ident is not None:  # unstarted when the bind failed
                thread.join(timeout=1.0)
