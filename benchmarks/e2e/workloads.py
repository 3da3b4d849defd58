"""The benchmark's workloads and the metrics each one reports.

Two kinds of delay matter to INDICE's users: an analyst waits for a
dirty EPC registry to become dashboards, and citizens and public
administrations wait on a live dashboard server.  The four workloads
split those delays so that each layer is heavy on one workload and
light or bypassed on another (see README.md for the table).
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Workload:
    """One workload: what a repetition runs and how often."""

    name: str
    kind: str  # "cold" | "sharded" | "serve" (child.py entry points)
    n_certificates: int
    #: pipeline kinds: fresh child processes started at least, and more
    #: while the measuring window lasts
    min_reps: int = 1
    #: set-ups timed per child; setup_s is the median over the run
    setups: int = 1
    #: serving kinds: offered request rate, share of conditional GETs,
    #: seconds between reloads (0 = never) and the highest tail
    #: percentile reported
    rate: float = 0.0
    conditional_share: float = 1.0
    reload_every_s: float = 0.0
    tail_cap: float = 99.0
    #: serve-304 in a full run: bisect the highest sustainable rate
    max_rate: tuple[float, float, float] | None = None  # (lo, hi, probe s)


#: Why each exists is in BENCHMARK.json and README.md.  Sizes and rates
#: fit 92 harness runs of a 15 s window into 57 minutes on 2 CPUs; the
#: serving size hardly matters to the 304 path, so it is kept small to
#: make the three set-ups per run cheap.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("cold", "cold", 8000, min_reps=2, setups=2),
        Workload("sharded", "sharded", 12000, setups=3),
        # p99 did not repeat between runs, so the tail stops at p90
        Workload("serve-304", "serve", 2000, setups=3, rate=1000.0,
                 conditional_share=1.0, tail_cap=90.0,
                 max_rate=(500.0, 8000.0, 4.0)),
        # 100 req/s over 15 s leaves the p99 ten samples beyond it
        Workload("serve-reload", "serve", 2000, setups=3, rate=100.0,
                 conditional_share=0.75, reload_every_s=5.0),
    )
}

#: ``--smoke``: every code path at toy sizes (the whole suite in < 60 s).
SMOKE = {
    "cold": dict(n_certificates=1500, min_reps=2),
    "sharded": dict(n_certificates=3000, setups=2),
    "serve-304": dict(n_certificates=1200, setups=2, rate=200.0,
                      max_rate=(100.0, 400.0, 0.5)),
    "serve-reload": dict(n_certificates=1200, setups=2, rate=100.0,
                         reload_every_s=1.0),
}
SMOKE_SECONDS = 3.0


def resolve(name: str, smoke: bool = False, certificates: int | None = None) -> Workload:
    """The named workload, shrunk for ``--smoke`` or resized on request."""
    workload = WORKLOADS[name]
    if smoke:
        workload = replace(workload, **SMOKE[name])
    if certificates is not None:
        workload = replace(workload, n_certificates=certificates)
    return workload


#: Metrics reported besides BENCHMARK.json's: unit, better, bound.
#: compare.py applies these bounds; BENCHMARK.json does not list them.
#: Timings repeat only to about 10-20% between runs on a shared 2-CPU
#: host, hence the 25% bounds; error_rate allows no increase at all.
DETAIL_METRICS: dict[str, tuple[str, str, float]] = {
    "pipeline_s": ("s", "lower", 0.25),
    "certs_per_s": ("certs/s", "higher", 0.25),
    "warm_rerun_s": ("s", "lower", 0.25),
    "p50_ms": ("ms", "lower", 0.25),
    "p90_ms": ("ms", "lower", 0.25),
    "p99_ms": ("ms", "lower", 0.25),
    "achieved_rps": ("req/s", "higher", 0.05),
    "max_rate_rps": ("req/s", "higher", 0.25),
    "error_rate": ("ratio", "lower", 0.0),
}

#: Units of every per-layer metric the traced run reports.
LAYER_UNITS: dict[str, str] = {
    "dataset.generate_s": "s",
    "dataset.rows": "count",
    "preprocessing.quality_s": "s",
    "preprocessing.clean_s": "s",
    "preprocessing.clean_rows": "count",
    "preprocessing.resolution_rate": "ratio",
    "preprocessing.geocoder_s": "s",
    "preprocessing.geocoder_calls": "count",
    "preprocessing.geocoder_failed": "count",
    "preprocessing.fences_s": "s",
    "preprocessing.kdistance_s": "s",
    "preprocessing.dbscan_s": "s",
    "preprocessing.noise_rows": "count",
    "analytics.select_s": "s",
    "analytics.correlation_s": "s",
    "analytics.kmeans_s": "s",
    "analytics.discretize_s": "s",
    "analytics.rules_s": "s",
    "analytics.rules_mined": "count",
    "perf.feature_matrix_s": "s",
    "perf.parallel_fallbacks": "count",
    "perf.shm_bytes": "bytes",
    "perf.fingerprint_s": "s",
    "perf.cache_hits": "count",
    "perf.cache_misses": "count",
    "perf.shard_hits": "count",
    "perf.shard_misses": "count",
    "perf.shard_hit_ratio": "ratio",
    "perf.spill_write_s": "s",
    "perf.spill_bytes": "bytes",
    "perf.spill_open_s": "s",
    "perf.spill_reads": "count",
    "perf.shards_self_s": "s",
    "dashboard.render_s": "s",
    "dashboard.maps_s": "s",
    "dashboard.html_s": "s",
    "dashboard.renders": "count",
    "dashboard.artifact_bytes": "bytes",
    "serving.respond_s": "s",
    "serving.respond_p50_ms": "ms",
    "serving.respond_p90_ms": "ms",
    "serving.store_wait_s": "s",
    "serving.artifact_build_s": "s",
    "serving.wire_share": "ratio",
    "serving.requests": "count",
    "serving.not_modified": "count",
    "serving.shed": "count",
    "serving.bytes_out": "bytes",
    "serving.gen_late_p99_ms": "ms",
    "core.self_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead_pct": "%",
}
