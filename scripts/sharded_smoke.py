#!/usr/bin/env python
"""CI smoke for the sharded pipeline tier (budgeted, no benchmark gates).

Runs one cold by-district sharded pass at a CI-sized certificate count,
invalidates a single shard's spill, and re-runs warm — asserting the
incremental contract (one recompute, every sibling reused, byte-equal
output) and that the merged outcome carries the whole plan's quality
profile and cleaning summary, rather than any hardware-dependent
throughput number.  The full
1M-certificate experiment with RSS and speedup gates is A16
(``pytest -m bench`` in benchmarks/).
"""

import argparse
import pathlib
import sys
import tempfile
import time

from repro import Indice, IndiceConfig
from repro.dataset import NoiseConfig, SyntheticConfig
from repro.perf.cache import StageCache
from repro.perf.shards import ShardPlan


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--certificates", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=414)
    args = parser.parse_args()

    plan = ShardPlan.from_generator(
        SyntheticConfig(n_certificates=args.certificates, seed=args.seed),
        "by-district",
        noise=NoiseConfig(seed=args.seed + 1),
    )
    # the spills (about 79 MB at 100k certificates) go with the run
    with tempfile.TemporaryDirectory(prefix="repro-ci-shards-") as spill_dir:
        return _smoke(args, plan, spill_dir)


def _smoke(args: argparse.Namespace, plan: ShardPlan, spill_dir: str) -> int:
    """Cold run, one spill corrupted, warm run; 1 on any failed check."""
    cache = StageCache()
    config = IndiceConfig(
        geocoder_quota=10**9, stage_cache=True, spill_dir=spill_dir
    )

    start = time.perf_counter()
    cold = Indice(plan.collection, config, cache=cache).run_sharded(plan)
    cold_s = time.perf_counter() - start
    print(
        f"cold sharded run: {args.certificates} certificates, "
        f"{len(plan.shards)} shards, {cold_s:.1f}s "
        f"({args.certificates / cold_s:.0f} certs/s), "
        f"{cold.preprocessing.table.n_rows} rows kept"
    )

    victim = sorted(pathlib.Path(spill_dir).glob("*.spill"))[0]
    blob = bytearray(victim.read_bytes())
    blob[-10] ^= 0xFF
    victim.write_bytes(bytes(blob))

    start = time.perf_counter()
    warm = Indice(plan.collection, config, cache=cache).run_sharded(plan)
    warm_s = time.perf_counter() - start
    print(
        f"warm re-run (1 shard invalidated): {warm_s:.1f}s, "
        f"{cache.shard_hits} shards reused / "
        f"{cache.shard_misses - len(plan.shards)} recomputed"
    )

    failures = []
    merged = cold.preprocessing
    if merged.quality.n_rows != plan.n_rows:
        failures.append(
            f"merged quality profiles {merged.quality.n_rows} rows, "
            f"the plan has {plan.n_rows}"
        )
    if merged.cleaning.n_checked <= 0:
        failures.append("merged cleaning summary checked no rows")
    if cache.shard_hits != len(plan.shards) - 1:
        failures.append(
            f"expected {len(plan.shards) - 1} warm shard hits, "
            f"got {cache.shard_hits}"
        )
    if cache.shard_misses != len(plan.shards) + 1:
        failures.append(
            f"expected {len(plan.shards) + 1} total shard misses, "
            f"got {cache.shard_misses}"
        )
    if warm.preprocessing.table != cold.preprocessing.table:
        failures.append("warm preprocessing table differs from cold")
    if warm.analytics.table != cold.analytics.table:
        failures.append("warm analytics table differs from cold")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("sharded smoke OK: warm output byte-equal to cold")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
