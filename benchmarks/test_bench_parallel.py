"""A9 — parallel cleaning tier, indexed matching and stage-cache wins.

The perf layer added on top of the pipeline promises three things: the
indexed gazetteer matcher keeps serial throughput high, ``n_jobs > 1``
never changes results while sharding the Levenshtein-heavy work, and the
content-hash stage cache turns repeated ``preprocess()``/``analyze()``
calls into hash lookups.  This experiment measures all three on the same
collection and writes both a machine-readable ``BENCH_parallel.json``
and the human-readable ``A9_parallel.txt`` summary.
"""

import json
import time
from pathlib import Path

from conftest import write_report

from repro import Indice, IndiceConfig
from repro.dataset import (
    NoiseConfig,
    SyntheticConfig,
    apply_noise,
    generate_epc_collection,
)

BENCH_N = 8000
JOB_COUNTS = (1, 2, 4)


def _make_collection():
    collection = generate_epc_collection(
        SyntheticConfig(n_certificates=BENCH_N, seed=5)
    )
    noisy = apply_noise(collection, NoiseConfig(seed=5))
    collection.table = noisy.table
    return collection


def _config(**overrides) -> IndiceConfig:
    base = dict(
        kmeans_n_init=2, k_range=(2, 6), run_multivariate_outliers=False
    )
    base.update(overrides)
    return IndiceConfig(**base)


def _time_pipeline(collection, config):
    """``(elapsed_seconds, preprocessing_outcome)`` for one cold run."""
    engine = Indice(collection, config)
    start = time.perf_counter()
    preprocessed = engine.preprocess()
    engine.analyze()
    return time.perf_counter() - start, preprocessed


def test_a9_parallel_and_cache(benchmark):
    collection = _make_collection()

    # cold runs, stage cache off, per worker count
    cold: dict[int, float] = {}
    reference = None
    for jobs in JOB_COUNTS:
        elapsed, preprocessed = _time_pipeline(
            collection, _config(stage_cache=False, n_jobs=jobs)
        )
        cold[jobs] = elapsed
        addresses = list(preprocessed.table["address"])
        if reference is None:
            reference = addresses
        else:  # parallel output must be bit-identical to serial
            assert addresses == reference

    # cold vs warm with the stage cache on (same engine, repeated calls)
    cached_engine = Indice(collection, _config(stage_cache=True))
    start = time.perf_counter()
    cached_engine.preprocess()
    cached_engine.analyze()
    cache_cold = time.perf_counter() - start
    start = time.perf_counter()
    cached_engine.preprocess()
    cached_engine.analyze()
    cache_warm = time.perf_counter() - start
    assert cached_engine.cache.hits >= 2
    speedup = cache_cold / max(cache_warm, 1e-9)
    # later work roughly halved the cold run, so the warm ratio's
    # denominator stayed put while its numerator shrank; 5x still proves
    # the cache turns stages into hash lookups
    assert speedup >= 5.0, f"warm cache only {speedup:.1f}x faster"

    benchmark.pedantic(
        lambda: _time_pipeline(collection, _config(stage_cache=False)),
        rounds=1,
        iterations=1,
    )

    payload = {
        "experiment": "A9_parallel",
        "certificates": BENCH_N,
        "cold_seconds_by_jobs": {str(j): round(cold[j], 4) for j in JOB_COUNTS},
        "certs_per_second_by_jobs": {
            str(j): round(BENCH_N / cold[j], 1) for j in JOB_COUNTS
        },
        "cache_cold_seconds": round(cache_cold, 4),
        "cache_warm_seconds": round(cache_warm, 4),
        "warm_speedup": round(speedup, 1),
    }
    out = Path(__file__).parent / "results" / "BENCH_parallel.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    write_report(
        "A9_parallel",
        [
            "A9 — parallel cleaning tier + stage cache "
            f"({BENCH_N} certificates)",
            "",
            "cold pipeline (stage cache off)",
            "n_jobs   seconds   certs/second",
            *[
                f"{j:<8} {cold[j]:<9.2f} {BENCH_N / cold[j]:.0f}"
                for j in JOB_COUNTS
            ],
            "",
            "stage cache (preprocess + analyze, same engine)",
            f"cold   {cache_cold:.3f} s",
            f"warm   {cache_warm:.3f} s   ({speedup:.0f}x faster)",
            "",
            "parallel runs verified bit-identical to serial (addresses).",
            "note: single-core hosts see no n_jobs win; the speedup there",
            "comes from the indexed matcher and the cache.",
        ],
    )
