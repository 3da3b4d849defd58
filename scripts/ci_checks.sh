#!/usr/bin/env bash
# CI gate for the static-analysis tier.
#
# Runs the full repro.checks sweep over src/ and tests/ plus the generic
# lint tools (ruff, mypy) when they are installed — `--all` skips any
# tool that is missing rather than failing, so the script works in the
# minimal container and in a fully tooled dev checkout alike.
set -euo pipefail

cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:${PYTHONPATH}}"

# the usage examples in the text, geo-distance, GeoJSON, DBSCAN, SVG and
# colour-scale docstrings are tests too: a kernel change that breaks a
# documented result fails here (the SVG and colour examples pin that the
# column-at-a-time `circles`, `text_rows` and `colors` give the per-row
# bytes, NaN and a flat scale included)
python -m pytest --doctest-modules src/repro/text src/repro/geo/distance.py \
    src/repro/geo/geojson.py src/repro/preprocessing/dbscan.py \
    src/repro/dashboard/svg.py src/repro/dashboard/colors.py -q

# the chaos sweep over the 8000-certificate pipeline (deselected from the
# default run): the only suite that drives every pool — row chunks and
# coarse tasks — under injected worker crashes and stragglers
timeout 300 python -m pytest -m chaos tests/test_chaos_pipeline.py -q

# the spill codec's round-trip oracle: seeded cases and a hypothesis
# property over NaN, signed zero, None vs "", surrogates and empty tables
python -m pytest tests/test_spill_codec.py -q

# the vectorized Lloyd loop's differential oracle: the plain loop it
# replaced, kept in the test, against it bit for bit over ties, empty
# clusters, one dimension, signed zeros, NaN rows and far-off data
python -m pytest tests/test_kmeans_oracle.py -q

# the serving tier's concurrency harness (coalescing, 304s, shedding,
# graceful reload) and its routing/path-policy suite (HEAD and abrupt
# disconnects on the pooled handler) — real sockets, so both carry a
# wall-clock budget (a wedged lock, leaked slot or dead worker shows up
# as a hang, not a failure); its lock-discipline bursts record every
# serving lock and fail if a thread ever holds two or renders under one
timeout 180 python -m pytest tests/test_serving_concurrency.py -q
timeout 180 python -m pytest tests/test_serve.py -q

# sharded-tier smoke at a CI-budgeted 100k certificates: a cold
# by-district run must beat the wall-clock budget, and a warm re-run
# after invalidating one shard must reuse every other shard (the full
# 1M experiment stays in `pytest -m bench`, see benchmarks/)
# It runs under its own TMPDIR, which must be empty afterwards: the
# smoke's spill directory and any runner-made one go with their runs.
smoke_tmp="$(mktemp -d)"
TMPDIR="$smoke_tmp" timeout 300 python scripts/sharded_smoke.py --certificates 100000
leftover="$(find "$smoke_tmp" -mindepth 1 -maxdepth 1 \( -name 'repro-ci-shards-*' -o -name 'repro-shards-*' \))"
if [ -n "$leftover" ]; then
    echo "sharded smoke left spill directories behind: $leftover" >&2
    exit 1
fi
rm -rf "$smoke_tmp"

# the end-to-end benchmark's own suite, a smoke run of every workload,
# and the two pipeline workloads at the golden seed and sizes: a perf
# change that alters any output digest fails here, before a benchmark run
python -m pytest benchmarks/e2e/tests -q
timeout 300 python3 benchmarks/e2e/run.py --smoke --trace 0
for workload in cold sharded; do
    timeout 300 python3 benchmarks/e2e/run.py --workload "$workload" \
        --seconds 1 --trace 0
done

exec python -m repro.checks src/repro tests/test_checks.py --all
