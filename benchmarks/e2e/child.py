"""One repetition of one workload, in a fresh process.

``run.py`` starts this script with a JSON spec as its only argument and
``PYTHONPATH`` pointing at the checkout's ``src``.  Pipeline kinds print
one JSON result line and exit.  The serving kind prints a ``ready`` line
(port, versions, expected artifact hashes), then serves until ``stop``
arrives on stdin, obeying ``reload`` lines in between, and prints its
result line last.

A fresh process per repetition is deliberate: every CLI run of the
program pays its lazy set-up (imports, the gazetteer index), and
``ru_maxrss`` then isolates one repetition's peak memory.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import spans

# resolved at call time through their modules, so the traced run's
# wrappers (installed on the module attributes) see these calls too
import repro.dataset.noise as noise_module
import repro.dataset.synthetic as synthetic_module
from repro import Indice, IndiceConfig
from repro.dataset import NoiseConfig, SyntheticConfig
from repro.perf.cache import StageCache, fingerprint_table
from repro.perf.shards import ShardPlan
from repro.serving import ArtifactServer, build_store


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def _generate(n: int, seed: int):
    """The dirty input: the seeded collection with seed+1 noise applied."""
    collection = synthetic_module.generate_epc_collection(
        SyntheticConfig(n_certificates=n, seed=seed)
    )
    noisy = noise_module.apply_noise(collection, NoiseConfig(seed=seed + 1))
    return dataclasses.replace(collection, table=noisy.table)


def _store_hashes(store) -> dict:
    """``{path: {sha256, gzip_sha256, etag}}`` of every prerendered artifact."""
    out = {}
    for path in store.paths():
        artifact = store.get(path)
        out[path] = {
            "sha256": hashlib.sha256(artifact.body).hexdigest(),
            "gzip_sha256": hashlib.sha256(artifact.gzipped).hexdigest(),
            "etag": artifact.etag,
        }
    return out


def _store_consistent(hashes: dict) -> bool:
    """Every artifact's ETag is the quoted SHA-256 of its body."""
    return all(h["etag"] == f'"{h["sha256"]}"' for h in hashes.values())


def _executor_counters(engines) -> dict:
    return {
        "perf.parallel_fallbacks": sum(e.executor.fallbacks for e in engines),
        "perf.shm_bytes": sum(e.executor.shm_bytes for e in engines),
    }


def _cache_counters(cache: StageCache | None) -> dict:
    if cache is None:
        return {name: 0 for name in (
            "perf.cache_hits", "perf.cache_misses",
            "perf.shard_hits", "perf.shard_misses",
        )}
    return {
        "perf.cache_hits": cache.hits,
        "perf.cache_misses": cache.misses,
        "perf.shard_hits": cache.shard_hits,
        "perf.shard_misses": cache.shard_misses,
    }


@contextlib.contextmanager
def _phase(tracer: spans.Tracer | None, name: str):
    """A ``phase.*`` span when traced; nothing otherwise."""
    if tracer is None:
        yield
    else:
        with tracer.span(f"phase.{name}"):
            yield


def _timed(tracer: spans.Tracer | None, name: str, fn):
    start = perf_counter()
    with _phase(tracer, name):
        value = fn()
    return value, perf_counter() - start


# -- pipeline kinds ---------------------------------------------------------------


def run_cold(spec: dict, tracer: spans.Tracer | None) -> dict:
    n, seed = spec["n"], spec["seed"]
    setups = []
    for __ in range(spec["setups"]):
        collection, elapsed = _timed(tracer, "setup", lambda: _generate(n, seed))
        setups.append(elapsed)

    engine = Indice(collection, IndiceConfig(stage_cache=False, n_jobs=2))

    def pipeline():
        preprocessing = engine.preprocess()
        analytics = engine.analyze()
        store = build_store(engine)
        store.prerender()
        return preprocessing, analytics, store

    (preprocessing, analytics, store), pipeline_s = _timed(
        tracer, "pipeline", pipeline
    )
    hashes = _store_hashes(store)
    return {
        "setup_s": setups,
        "pipeline_s": pipeline_s,
        "digests": {
            "preprocessing_table": fingerprint_table(preprocessing.table),
            "analytics_table": fingerprint_table(analytics.table),
            "analysis_version": engine.analysis_version(),
            "artifacts": {p: h["sha256"] for p, h in hashes.items()},
        },
        "checks": {"etags_match_bodies": _store_consistent(hashes)},
        "counters": {
            **_executor_counters([engine]),
            **_cache_counters(engine.cache),
        },
    }


def run_sharded(spec: dict, tracer: spans.Tracer | None) -> dict:
    n, seed = spec["n"], spec["seed"]
    setups = []
    for __ in range(spec["setups"]):
        plan, elapsed = _timed(
            tracer, "setup",
            lambda: ShardPlan.from_generator(
                SyntheticConfig(n_certificates=n, seed=seed), "by-district",
                noise=NoiseConfig(seed=seed + 1),
            ),
        )
        setups.append(elapsed)

    spill_dir = Path(spec["work_dir"]) / "spill"
    cache = StageCache()
    config = IndiceConfig(geocoder_quota=10**9, n_jobs=2, spill_dir=str(spill_dir))
    cold_engine = Indice(plan.collection, config, cache=cache)
    cold, pipeline_s = _timed(
        tracer, "pipeline", lambda: cold_engine.run_sharded(plan)
    )
    # the analyst edits one district: its spill disappears, so the warm
    # re-run recomputes that shard and reuses every other one
    first = min(spill_dir.glob("*.spill"), key=lambda p: p.stat().st_mtime_ns)
    first.unlink()
    warm_engine = Indice(plan.collection, config, cache=cache)
    warm, warm_s = _timed(
        tracer, "warm_rerun", lambda: warm_engine.run_sharded(plan)
    )
    digests = {
        "merged_table": fingerprint_table(cold.preprocessing.table),
        "analytics_table": fingerprint_table(cold.analytics.table),
        "analysis_version": cold_engine.analysis_version(),
    }
    warm_digests = {
        "merged_table": fingerprint_table(warm.preprocessing.table),
        "analytics_table": fingerprint_table(warm.analytics.table),
        "analysis_version": warm_engine.analysis_version(),
    }
    return {
        "setup_s": setups,
        "pipeline_s": pipeline_s,
        "warm_rerun_s": warm_s,
        "shards": len(plan.shards),
        "largest_shard_rows": max(s.n_rows for s in plan.shards),
        "digests": digests,
        "checks": {"warm_equals_cold": warm_digests == digests},
        "counters": {
            **_executor_counters([cold_engine, warm_engine]),
            **_cache_counters(cache),
        },
    }


# -- the serving kind ----------------------------------------------------------------


def _serve_setup(spec: dict):
    """Everything until the server can answer (engine B only for reload)."""
    collection = _generate(spec["n"], spec["seed"])
    cache = StageCache()
    engine = Indice(collection, IndiceConfig(n_jobs=2), cache=cache)
    engine.preprocess()
    engine.analyze()
    engines = [engine]
    if spec["reload_every_s"] > 0:
        other = Indice(
            collection, IndiceConfig(n_jobs=2, k_range=(2, 9)), cache=cache
        )
        other.preprocess()
        other.analyze()
        engines.append(other)
    store = build_store(engine)
    store.prerender()
    return engines, store, cache


def run_serve(spec: dict, tracer: spans.Tracer | None) -> dict:
    setups = []
    for __ in range(spec["setups"]):
        (engines, store, cache), elapsed = _timed(
            tracer, "setup", lambda: _serve_setup(spec)
        )
        setups.append(elapsed)

    # expected bytes of every version the server may serve; the reload
    # target is rendered once here, outside the timed set-up, while the
    # server later renders it again cold on every reload
    with _phase(tracer, "verify"):
        versions = {store.version: _store_hashes(store)}
        for other in engines[1:]:
            other_store = build_store(other)
            other_store.prerender()
            versions[other_store.version] = _store_hashes(other_store)

    server = ArtifactServer(store)
    stores = [store]
    with _phase(tracer, "serve"), server.serving(workers=2) as (httpd, __):
        _emit({
            "ready": True,
            "port": httpd.server_address[1],
            "version": store.version,
            "versions": versions,
            "setup_s": setups,
        })
        reloads = 0
        for line in sys.stdin:
            command = line.strip()
            if command == "reload":
                reloads += 1
                server.reload_from(engines[reloads % len(engines)])
                stores.append(server.store)
            elif command == "stop":
                break
    consistent = all(_store_consistent(h) for h in versions.values())
    return {
        "setup_s": setups,
        "versions": versions,
        "digests": {
            "versions": {
                version: {p: h["sha256"] for p, h in hashes.items()}
                for version, hashes in versions.items()
            },
        },
        "checks": {"etags_match_bodies": consistent},
        "reloads": reloads,
        "renders_while_serving": sum(s.total_renders for s in stores[1:]),
        "server": dict(server.stats),
        "counters": {
            **_executor_counters(engines),
            **_cache_counters(cache),
            "serving.requests": server.stats["requests"],
            "serving.not_modified": server.stats["not_modified"],
            "serving.shed": server.stats["shed"],
        },
    }


KINDS = {"cold": run_cold, "sharded": run_sharded, "serve": run_serve}


def _layer_report(tracer: spans.Tracer, counters: dict) -> dict:
    layers = spans.layer_metrics(tracer)
    layers.update(counters)
    attempted = layers.pop("preprocessing.resolution_attempted", 0)
    useful = layers.pop("preprocessing.resolution_useful", 0)
    layers["preprocessing.resolution_rate"] = useful / attempted if attempted else 0.0
    shard_total = layers["perf.shard_hits"] + layers["perf.shard_misses"]
    layers["perf.shard_hit_ratio"] = (
        layers["perf.shard_hits"] / shard_total if shard_total else 0.0
    )
    responds = [
        (s[spans.END] - s[spans.START]) * 1000.0
        for s in tracer.spans
        if s[spans.NAME] == "serving.ArtifactServer.respond"
    ]
    layers["serving.respond_p50_ms"] = (
        statistics.median(responds) if responds else 0.0
    )
    layers["serving.respond_p90_ms"] = (
        statistics.quantiles(responds, n=10)[-1] if len(responds) > 1 else 0.0
    )
    coverage = {
        phase: spans.coverage(tracer.spans, f"phase.{phase}")
        for phase in ("setup", "pipeline", "warm_rerun")
    }
    layers["trace.coverage"] = coverage["pipeline"]
    return {"layers": layers, "coverage": coverage}


def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    run = KINDS[spec["kind"]]
    tracer = spans.Tracer() if spec["trace"] else None
    if tracer is None:
        result = run(spec, tracer)
    else:
        with spans.instrument(tracer):
            result = run(spec, tracer)
        result["wrappers_restored"] = not spans.wrapped_targets()
        result.update(_layer_report(tracer, result["counters"]))
        Path(spec["trace_file"]).write_text(
            json.dumps(tracer.spans), encoding="utf-8"
        )
        result["spans_file"] = spec["trace_file"]
    result["maxrss_mb"] = _maxrss_mb()
    result["traced"] = tracer is not None
    _emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
