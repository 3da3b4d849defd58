"""The serving tier: immutable artifacts behind a thread pool.

The paper plans "to release our framework INDICE in order to have real
feed-backs from end-users (e.g., citizens, energy experts, public
administration)".  This package is that release surface — the one HTTP
server ``repro serve`` runs — built from three pieces:

* :mod:`repro.serving.store` — an **immutable artifact store**.  The
  index, every stakeholder dashboard, the report and the GeoJSON layers
  (the ``render_*`` functions) are rendered at most once per *analysis
  version* (:meth:`~repro.core.engine.Indice.analysis_version`) into
  content-addressed bytes with strong ETags and pre-compressed gzip
  twins.  Cold hits are **coalesced**: N concurrent requests for the same
  un-rendered artifact trigger exactly one render (single-flight: the
  first claims the key, renders with no lock held and publishes) while
  the other N-1 wait for the bytes.
* :mod:`repro.serving.server` — a **multi-worker HTTP server** over the
  store: one hostile-path policy (:func:`~repro.serving.server.normalize_path`,
  400), a fixed pool of handler threads (``--workers``), conditional
  GETs (``If-None-Match`` → 304), ``Cache-Control``, gzip negotiation,
  HEAD, and **load shedding** — when more than ``--max-inflight``
  requests are in flight, new arrivals wait out a short
  :class:`~repro.faults.policy.Deadline` and are then shed with
  ``503 + Retry-After`` instead of queueing without bound.
* **graceful reload** — :meth:`ArtifactServer.reload` swaps the store
  atomically; requests already in flight finish against the store they
  started on, new requests see the new analysis version immediately.

Failures are part of the surface: the store's render path is a registered
fault site (``serve.request``), so chaos plans can make renders fail and
the harness can prove that a burst of failing renders yields per-request
500 pages — never a traceback, never a wedged single-flight claim.
"""

from .server import ArtifactServer, PooledHTTPServer, Response
from .store import (
    Artifact,
    ArtifactStore,
    build_store,
    render_points_geojson,
)

__all__ = [
    "Artifact",
    "ArtifactServer",
    "ArtifactStore",
    "PooledHTTPServer",
    "Response",
    "build_store",
    "render_points_geojson",
]
