"""The immutable, content-addressed artifact store.

An :class:`ArtifactStore` maps route paths to pre-renderable byte
payloads.  Renderers are registered at construction; each one runs at
most once per store (and therefore once per analysis version, since a
new analysis builds a new store), single-flight:

* a **warm** hit returns the immutable :class:`Artifact` with zero
  locking — a dict read;
* N concurrent **cold** hits on the same key coalesce: the first caller
  claims the key in an in-flight map (under the store's one lock, which
  it then releases) and renders with **no lock held**, while the other
  N-1 wait on the claim's event and then read the published artifact;
* a **failed** render publishes nothing and withdraws its claim, so
  exactly one of the waiters (or the next request) claims the retry —
  an injected or real rendering failure can never wedge the key.

The store's lock is a leaf: it is only ever held for dict and counter
updates, never across a render and never while taking another lock.

Artifacts are content-addressed: the strong ``ETag`` is the SHA-256 of
the body, and the gzip twin is compressed with ``mtime=0`` so two
workers (or two runs) always produce bit-identical bytes for the same
analysis version.

The render path is a registered fault site (``serve.request``): an
injector attached to the store decides, deterministically, which render
attempts fail — which is how the chaos harness drives concurrent bursts
of 500s through the server without patching anything.
"""

from __future__ import annotations

import gzip
import hashlib
import threading
from dataclasses import dataclass, field
from typing import Callable
from xml.sax.saxutils import escape

import numpy as np

from ..core.engine import Indice
from ..core.report import generate_report
from ..faults.plan import SERVE_REQUEST, FaultInjector
from ..geo import geojson
from ..query.stakeholders import Stakeholder

__all__ = [
    "Artifact",
    "ArtifactStore",
    "build_store",
    "render_dashboard",
    "render_index",
    "render_points_geojson",
    "render_report",
]

_HTML = "text/html; charset=utf-8"
_GEOJSON = "application/geo+json"

_INDEX_TEMPLATE = """<!DOCTYPE html><html><head><meta charset='utf-8'>
<title>INDICE</title><style>
body {{ font-family: sans-serif; margin: 40px; color: #1c2733; }}
a {{ color: #225588; }} li {{ margin: 6px 0; }}
</style></head><body>
<h1>INDICE — {city}</h1>
<p>{n_rows} certificates analyzed. Pick a view:</p>
<ul>{links}</ul>
<p><a href="/report">Plain-language analysis report</a></p>
</body></html>"""


@dataclass(frozen=True)
class Artifact:
    """One immutable, pre-rendered response payload."""

    path: str
    content_type: str
    body: bytes
    #: Strong validator: quoted SHA-256 of the body.
    etag: str
    #: The gzip twin (``mtime=0``: byte-stable across workers and runs).
    gzipped: bytes = field(repr=False)

    @classmethod
    def build(cls, path: str, content_type: str, payload: str | bytes) -> "Artifact":
        """Freeze *payload* into an artifact (etag + gzip computed here)."""
        body = payload.encode("utf-8") if isinstance(payload, str) else payload
        etag = f'"{hashlib.sha256(body).hexdigest()}"'
        return cls(path, content_type, body, etag, gzip.compress(body, mtime=0))


class ArtifactStore:
    """Immutable artifacts for one analysis version, rendered single-flight.

    Parameters
    ----------
    version:
        The analysis version the artifacts belong to (any stable string;
        engines supply :meth:`~repro.core.engine.Indice.analysis_version`).
    renderers:
        ``{path: (content_type, thunk)}`` — each thunk returns the
        artifact payload (``str`` or ``bytes``) and runs at most once.
    injector:
        Optional fault injector; each render *attempt* announces one
        arrival at the ``serve.request`` site and propagates the injected
        exception instead of rendering.
    """

    def __init__(
        self,
        version: str,
        renderers: dict[str, tuple[str, Callable[[], str | bytes]]],
        injector: FaultInjector | None = None,
    ):
        self.version = version
        self._renderers = dict(renderers)
        self._injector = injector
        self._artifacts: dict[str, Artifact] = {}
        self._render_counts: dict[str, int] = {}
        #: Paths being rendered right now -> set once the attempt ends.
        self._rendering: dict[str, threading.Event] = {}
        self._meta = threading.Lock()
        #: Render attempts, including ones an injected fault aborted.
        self.render_attempts = 0

    # -- introspection ------------------------------------------------------

    def paths(self) -> tuple[str, ...]:
        """Every route the store can serve, sorted."""
        return tuple(sorted(self._renderers))

    def __contains__(self, path: str) -> bool:
        return path in self._renderers

    def render_count(self, path: str) -> int:
        """How many times *path* was actually (successfully) rendered."""
        return self._render_counts.get(path, 0)

    @property
    def total_renders(self) -> int:
        """Successful renders across all paths."""
        return sum(self._render_counts.values())

    # -- the single-flight render path --------------------------------------

    def get(self, path: str) -> Artifact:
        """The artifact for *path*, rendering it (once) if cold.

        Raises ``KeyError`` for unregistered paths; re-raises whatever a
        failing renderer (or an injected ``serve.request`` fault) raised,
        caching nothing, so the next caller retries cleanly.
        """
        artifact = self._artifacts.get(path)
        if artifact is not None:
            return artifact
        try:
            content_type, render = self._renderers[path]
        except KeyError:
            raise KeyError(path) from None
        while True:
            with self._meta:
                artifact = self._artifacts.get(path)
                if artifact is not None:
                    return artifact
                pending = self._rendering.get(path)
                if pending is None:
                    done = self._rendering[path] = threading.Event()
                    self.render_attempts += 1
                    break
            # coalesce: wait out the attempt in flight, then look again
            pending.wait()
        try:
            if self._injector is not None:
                self._injector.fire(SERVE_REQUEST)
            artifact = Artifact.build(path, content_type, render())
        finally:
            with self._meta:
                if artifact is not None:
                    self._artifacts[path] = artifact
                    self._render_counts[path] = self._render_counts.get(path, 0) + 1
                del self._rendering[path]
            done.set()
        return artifact

    def prerender(self) -> int:
        """Render every registered artifact; the number of routes."""
        for path in self.paths():
            self.get(path)
        return len(self._renderers)


# -- engine-backed renderers --------------------------------------------------
#
# Pure functions of an analyzed engine.  They stay module-level names
# that build_store's thunks look up at call time, so a wrapper installed
# on this module (a tracer, a test double) sees every render.


def render_index(engine: Indice) -> str:
    """The index page linking every stakeholder dashboard."""
    links = "".join(
        f'<li><a href="/dashboard/{s.value}">'
        f"{escape(s.value.replace('_', ' ').title())} dashboard</a></li>"
        for s in Stakeholder
    )
    return _INDEX_TEMPLATE.format(
        city=escape(engine.config.city),
        n_rows=engine._require_analyzed().table.n_rows,
        links=links,
    )


def render_dashboard(engine: Indice, stakeholder: Stakeholder) -> str:
    """The navigable multi-zoom dashboard of one stakeholder."""
    return engine.build_navigable_dashboard(stakeholder).to_html()


def render_report(engine: Indice) -> str:
    """The plain-language analysis report as a standalone page."""
    markdown = generate_report(engine)
    return (
        "<!DOCTYPE html><html><head><meta charset='utf-8'>"
        "<title>INDICE report</title></head><body>"
        f"<pre style='font-family: sans-serif; white-space: pre-wrap; "
        f"max-width: 80ch; margin: 40px auto;'>{escape(markdown)}</pre>"
        "</body></html>"
    )


def render_points_geojson(engine: Indice) -> str:
    """The analyzed certificates as a GeoJSON FeatureCollection.

    One Point feature per located certificate carrying the response value
    and the analytic cluster — the machine-readable twin of the scatter
    map, consumable by any GIS tool.
    """
    analytics = engine._require_analyzed()
    table = analytics.table
    response_name = engine.config.response
    lat = table["latitude"]
    lon = table["longitude"]
    located = np.isfinite(lat) & np.isfinite(lon)
    features = geojson.point_features(
        lat[located], lon[located],
        {
            response_name: table[response_name][located],
            "cluster": table["cluster"][located],
        },
    )
    return geojson.dumps(geojson.feature_collection(features))


def build_store(
    engine: Indice,
    injector: FaultInjector | None = None,
) -> ArtifactStore:
    """The artifact store of one analyzed engine.

    Registers every route of the serving surface — the index, the three
    stakeholder dashboards, the report and the GeoJSON point layer —
    against the engine's current :meth:`analysis_version`.  The engine
    must be analyzed (the version hook raises otherwise): a store is a
    snapshot of one finished analysis, never a half-warm deployment.

    When *injector* is omitted the engine's own injector is used, so a
    ``--fault-plan`` naming ``serve.request`` reaches the render path
    with no extra wiring.
    """
    version = engine.analysis_version()
    renderers: dict[str, tuple[str, Callable[[], str | bytes]]] = {
        "/": (_HTML, lambda: render_index(engine)),
        "/report": (_HTML, lambda: render_report(engine)),
        "/geojson/points": (_GEOJSON, lambda: render_points_geojson(engine)),
    }
    for stakeholder in Stakeholder:
        renderers[f"/dashboard/{stakeholder.value}"] = (
            _HTML,
            lambda s=stakeholder: render_dashboard(engine, s),
        )
    return ArtifactStore(
        version,
        renderers,
        injector=injector if injector is not None else engine.injector,
    )
