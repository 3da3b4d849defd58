"""Spans recorded from outside the program, and the per-layer ledger.

The benchmark's traced run installs wrappers around the public functions
each layer is entered through (the names the program calls them by, so
``repro.core.engine.dbscan`` rather than ``repro.preprocessing.dbscan``),
records one span per call and restores every original on exit.  Nothing
under ``src/`` knows it is being traced.

A span is ``(id, parent, name, start, end, thread)``; a context-variable
stack makes a call's span the parent of every span opened inside it on
the same thread.  A span's *self time* is its duration minus the part of
that interval its children cover, so summing self times per layer never
counts a second twice.  Work a ``ParallelMap`` pool does in worker
processes appears as the parent's wait inside the enclosing span.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import itertools
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

#: Span tuple fields.
ID, PARENT, NAME, START, END, THREAD = range(6)


class Tracer:
    """An in-memory span and counter recorder for one process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "e2e_span", default=None
        )
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str):
        """Record one span around the ``with`` body; yields its id."""
        span_id = next(self._ids)
        parent = self._current.get()
        token = self._current.set(span_id)
        start = perf_counter()
        try:
            yield span_id
        finally:
            end = perf_counter()
            self._current.reset(token)
            self.spans.append(
                (span_id, parent, name, start, end, threading.get_ident())
            )

    def count(self, name: str, value: float = 1) -> None:
        """Add *value* to counter *name* (thread-safe)."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value


# -- self-time arithmetic ------------------------------------------------------


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of *intervals* clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0.0
    run_start = run_end = None
    for a, b in clipped:
        if run_end is None or a > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = a, b
        else:
            run_end = max(run_end, b)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans) -> dict[int, float]:
    """``{span id: duration minus the union of its children}``."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    return {
        span[ID]: (span[END] - span[START])
        - covered_length(children.get(span[ID], ()), span[START], span[END])
        for span in spans
    }


def coverage(spans, phase: str) -> float | None:
    """Share of the *phase* spans' wall time covered by their children."""
    own = self_times(spans)
    total = sum(s[END] - s[START] for s in spans if s[NAME] == phase)
    if total <= 0:
        return None
    uncovered = sum(own[s[ID]] for s in spans if s[NAME] == phase)
    return 1.0 - uncovered / total


# -- what gets wrapped -----------------------------------------------------------


def _count_rows(tracer, args, result):
    tracer.count("dataset.rows", result.table.n_rows)


def _count_clean(tracer, args, result):
    # args[0] is the AddressCleaner, args[1] the table being cleaned
    tracer.count("preprocessing.clean_rows", args[1].n_rows)
    attempted = [a for a in result.audits if a.status.value != "skipped"]
    resolved = [
        a for a in attempted if a.status.value in ("exact", "matched", "geocoded")
    ]
    tracer.count("preprocessing.resolution_attempted", len(attempted))
    tracer.count("preprocessing.resolution_useful", len(resolved))


def _count_geocode(tracer, args, result):
    tracer.count("preprocessing.geocoder_calls")
    if result is None or result.status != "ok":
        tracer.count("preprocessing.geocoder_failed")


def _count_noise(tracer, args, result):
    tracer.count("preprocessing.noise_rows", result.n_noise)


def _count_rules(tracer, args, result):
    tracer.count("analytics.rules_mined", len(result))


def _count_spill_write(tracer, args, result):
    tracer.count("perf.spill_bytes", result)


def _count_spill_read(tracer, args, result):
    tracer.count("perf.spill_reads")


def _count_render(tracer, args, result):
    tracer.count("dashboard.renders")
    body = result.encode("utf-8") if isinstance(result, str) else result
    tracer.count("dashboard.artifact_bytes", len(body))


@dataclass(frozen=True)
class Target:
    """One wrapped callable: where it lives, its span and its metric."""

    module: str
    attr: str  # "name" or "Class.name"
    span: str
    metric: str  # the per-layer time metric its self time adds to
    #: ``count(tracer, args, result)``; *result* is None when the call raised
    count: Callable | None = None
    #: whether *count* also runs for a call that raised
    count_errors: bool = False


_ENGINE = "repro.core.engine"
_SHARDS = "repro.perf.shards"
_STORE = "repro.serving.store"

TARGETS: tuple[Target, ...] = (
    # dataset
    Target("repro.dataset.synthetic", "generate_epc_collection",
           "dataset.generate_epc_collection", "dataset.generate_s", _count_rows),
    Target("repro.dataset.noise", "apply_noise",
           "dataset.apply_noise", "dataset.generate_s"),
    Target(_SHARDS, "apply_noise", "dataset.apply_noise", "dataset.generate_s"),
    Target(_SHARDS, "generate_street_map",
           "dataset.generate_street_map", "dataset.generate_s"),
    Target(_SHARDS, "plan_generation_shards",
           "dataset.plan_generation_shards", "dataset.generate_s"),
    Target(_SHARDS, "generate_epc_shard",
           "dataset.generate_epc_shard", "dataset.generate_s", _count_rows),
    # preprocessing
    Target(_ENGINE, "assess_quality",
           "preprocessing.assess_quality", "preprocessing.quality_s"),
    Target("repro.preprocessing.address_cleaner", "AddressCleaner.clean_table",
           "preprocessing.clean_table", "preprocessing.clean_s", _count_clean),
    Target("repro.preprocessing.geocoder", "SimulatedGeocoder.geocode",
           "preprocessing.geocode", "preprocessing.geocoder_s",
           _count_geocode, count_errors=True),
    Target(_ENGINE, "detect_outliers",
           "preprocessing.detect_outliers", "preprocessing.fences_s"),
    Target(_SHARDS, "detect_outliers",
           "preprocessing.detect_outliers", "preprocessing.fences_s"),
    Target(_ENGINE, "estimate_dbscan_params",
           "preprocessing.estimate_dbscan_params", "preprocessing.kdistance_s"),
    Target(_SHARDS, "estimate_dbscan_params",
           "preprocessing.estimate_dbscan_params", "preprocessing.kdistance_s"),
    Target(_ENGINE, "dbscan", "preprocessing.dbscan", "preprocessing.dbscan_s",
           _count_noise),
    Target(_SHARDS, "dbscan", "preprocessing.dbscan", "preprocessing.dbscan_s",
           _count_noise),
    # analytics
    Target(_ENGINE, "Indice.select_case_study",
           "analytics.select_case_study", "analytics.select_s"),
    Target(_ENGINE, "correlation_matrix",
           "analytics.correlation_matrix", "analytics.correlation_s"),
    Target(_ENGINE, "kmeans_auto", "analytics.kmeans_auto", "analytics.kmeans_s"),
    Target(_ENGINE, "discretize_table",
           "analytics.discretize_table", "analytics.discretize_s"),
    Target("repro.analytics.rules", "RuleMiner.mine",
           "analytics.RuleMiner.mine", "analytics.rules_s", _count_rules),
    # perf
    Target(_ENGINE, "feature_matrix",
           "perf.feature_matrix", "perf.feature_matrix_s"),
    Target(_ENGINE, "fingerprint_table",
           "perf.fingerprint_table", "perf.fingerprint_s"),
    Target(_SHARDS, "fingerprint_table",
           "perf.fingerprint_table", "perf.fingerprint_s"),
    Target(_SHARDS, "write_spill", "perf.write_spill", "perf.spill_write_s",
           _count_spill_write),
    Target("repro.perf.spill", "SpillFile.open",
           "perf.SpillFile.open", "perf.spill_open_s", _count_spill_read),
    Target(_SHARDS, "ShardRunner.run", "perf.ShardRunner.run",
           "perf.shards_self_s"),
    # dashboard
    Target(_STORE, "render_index", "dashboard.render_index",
           "dashboard.render_s", _count_render),
    Target(_STORE, "render_dashboard", "dashboard.render_dashboard",
           "dashboard.render_s", _count_render),
    Target(_STORE, "render_report", "dashboard.render_report",
           "dashboard.render_s", _count_render),
    Target(_STORE, "render_points_geojson", "dashboard.render_points_geojson",
           "dashboard.render_s", _count_render),
    Target(_ENGINE, "cluster_marker_map", "dashboard.cluster_marker_map",
           "dashboard.maps_s"),
    Target(_ENGINE, "choropleth_map", "dashboard.choropleth_map",
           "dashboard.maps_s"),
    Target(_ENGINE, "choropleth_with_scatter_map",
           "dashboard.choropleth_with_scatter_map", "dashboard.maps_s"),
    Target(_ENGINE, "scatter_map", "dashboard.scatter_map", "dashboard.maps_s"),
    Target("repro.dashboard.dashboard", "Dashboard.to_html",
           "dashboard.Dashboard.to_html", "dashboard.html_s"),
    Target("repro.dashboard.dashboard", "NavigableDashboard.to_html",
           "dashboard.NavigableDashboard.to_html", "dashboard.html_s"),
    # serving
    Target("repro.serving.server", "ArtifactServer.respond",
           "serving.ArtifactServer.respond", "serving.respond_s"),
    Target(_STORE, "ArtifactStore.get", "serving.ArtifactStore.get",
           "serving.store_wait_s"),
    Target(_STORE, "Artifact.build", "serving.Artifact.build",
           "serving.artifact_build_s"),
    # core
    Target(_ENGINE, "Indice.preprocess", "core.Indice.preprocess", "core.self_s"),
    Target(_ENGINE, "Indice.analyze", "core.Indice.analyze", "core.self_s"),
)

#: Every per-layer time metric a target feeds, in declaration order.
TIME_METRICS: tuple[str, ...] = tuple(dict.fromkeys(t.metric for t in TARGETS))


def _owner(target: Target):
    owner = importlib.import_module(target.module)
    *path, name = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def _wrap_function(fn, tracer: Tracer, target: Target):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            with tracer.span(target.span):
                result = fn(*args, **kwargs)
        except BaseException:
            if target.count is not None and target.count_errors:
                target.count(tracer, args, None)
            raise
        if target.count is not None:
            target.count(tracer, args, result)
        return result

    wrapper.__e2e_wrapped__ = True
    return wrapper


def _wrapped(original, tracer: Tracer, target: Target):
    if isinstance(original, (classmethod, staticmethod)):
        return type(original)(_wrap_function(original.__func__, tracer, target))
    return _wrap_function(original, tracer, target)


def is_wrapped(value) -> bool:
    """Whether *value* (a module or class attribute) is a tracing wrapper."""
    inner = getattr(value, "__func__", value)
    return getattr(inner, "__e2e_wrapped__", False)


@contextmanager
def instrument(tracer: Tracer, targets: tuple[Target, ...] = TARGETS):
    """Wrap every target for the ``with`` body; originals restored on exit."""
    # import every module first: one imported mid-install would bind a
    # name copied from an already-patched module to the wrapper
    owners = [(_owner(target), target) for target in targets]
    patched = []
    try:
        for (owner, name), target in owners:
            original = vars(owner)[name]
            setattr(owner, name, _wrapped(original, tracer, target))
            patched.append((owner, name, original))
        yield tracer
    finally:
        for owner, name, original in reversed(patched):
            setattr(owner, name, original)


def wrapped_targets(targets: tuple[Target, ...] = TARGETS) -> list[str]:
    """Targets currently wrapped (empty once :func:`instrument` exits)."""
    out = []
    for target in targets:
        owner, name = _owner(target)
        if is_wrapped(vars(owner)[name]):
            out.append(f"{target.module}.{target.attr}")
    return out


# -- the per-layer ledger ---------------------------------------------------------


def _under(spans, roots: tuple[str, ...]) -> set[int]:
    """Ids of spans named in *roots* and of every span nested inside one."""
    parent_of = {s[ID]: s[PARENT] for s in spans}
    marked = {s[ID] for s in spans if s[NAME] in roots}
    out = set()
    for span in spans:
        node = span[ID]
        while node is not None:
            if node in marked:
                out.add(span[ID])
                break
            node = parent_of.get(node)
    return out


def layer_metrics(
    tracer: Tracer,
    targets: tuple[Target, ...] = TARGETS,
    exclude: tuple[str, ...] = ("phase.verify",),
) -> dict:
    """Self time per layer metric, plus every counter the wrappers kept.

    Spans inside an *exclude* span (the benchmark's own checking work)
    stay in the trace but add nothing to the ledger.
    """
    metric_of = {t.span: t.metric for t in targets}
    own = self_times(tracer.spans)
    skipped = _under(tracer.spans, exclude)
    out = {metric: 0.0 for metric in TIME_METRICS}
    for span in tracer.spans:
        metric = metric_of.get(span[NAME])
        if metric is not None and span[ID] not in skipped:
            out[metric] += own[span[ID]]
    out.update(tracer.counters)
    return out


def chrome_events(spans, pid: int, run_id: str, origin: float) -> list[dict]:
    """Chrome trace-event records, microseconds after *origin*.

    ``perf_counter`` is the system-wide monotonic clock on Linux, so
    spans from several processes share one time axis.
    """
    events = [
        {"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
         "args": {"name": run_id}},
    ]
    for span in spans:
        events.append(
            {
                "name": span[NAME],
                "cat": span[NAME].split(".", 1)[0],
                "ph": "X",
                "ts": (span[START] - origin) * 1e6,
                "dur": (span[END] - span[START]) * 1e6,
                "pid": pid,
                "tid": span[THREAD] % 2**31,
                "args": {"id": span[ID], "parent": span[PARENT], "run": run_id},
            }
        )
    return events
