"""District/ZIP-keyed sharded execution of the INDICE pipeline.

The monolithic pipeline holds the whole collection (and every
intermediate) in memory and fingerprints it as one blob: a single dirty
row invalidates the world, and the 25k-scale memory ceiling blocks the
million-certificate tier.  This module turns the flow into the G-ETL
shape — extract → per-shard transform → deterministic merge → post-merge
aggregation:

* a :class:`ShardPlan` names the shards (one per Turin district or ZIP
  code, an ``other`` shard for the remaining towns, or ``N`` equal
  parts) and knows how to *extract* each one — either generated
  independently per shard key (:func:`repro.dataset.synthetic
  .generate_epc_shard`) or sliced out of an existing collection;
* the :class:`ShardRunner` cleans each shard with the same
  :class:`~repro.core.engine.Indice` machinery the monolithic path uses
  (same geocoder, same :class:`~repro.perf.parallel.ParallelMap` fan-out)
  and *spills* the cleaned shard to disk in the columnar codec of
  :mod:`repro.perf.spill` — so peak RSS stays bounded by the largest
  shard's working set, never the dataset;
* the merge runs the engine's one global outlier pass
  (:meth:`~repro.core.engine.Indice._outlier_pass`, the code
  ``Indice.preprocess`` runs) and supplies only each full analysis column
  and the kept rows' features, gathered from the spills **in original
  row order** — so the pass returns the monolithic keep mask, and the
  merged table gathered from it (then selection, K-means, rules) is
  bit-identical (``Table.__eq__``) to the monolithic serial pipeline;
* every per-shard transform is memoized under the shard-granular key
  ``(config_fingerprint, shard_key, shard_content_hash)``
  (:meth:`StageCache.shard_key`), so editing one district re-runs one
  shard plus the cheap post-merge stages only; the cache's
  ``shard_hits``/``shard_misses`` land in the provenance log.

Equivalence caveat: the geocoder quota is metered *per cleaning pass*,
so a sharded run gives each shard a fresh quota.  When the quota never
binds (the normal case) per-row cleaning is a pure function and sharded
output is bit-identical; a quota exhausted mid-shard is a logged
degradation in either mode, exactly like the monolithic path.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from ..core.engine import (
    AnalyticsOutcome,
    Indice,
    PreprocessingOutcome,
    _PREPROCESS_FIELDS,
)
from ..dataset.noise import NoiseConfig, apply_noise
from ..dataset.synthetic import (
    EpcCollection,
    ShardRecipe,
    SyntheticConfig,
    generate_epc_shard,
    generate_street_map,
    plan_generation_shards,
    shard_seed_sequence,
)
from ..dataset.table import Column, ColumnKind, Table
from ..faults.plan import InjectedIOError, TransientServiceError
from ..faults.policy import retry_with_backoff
from ..preprocessing.address_cleaner import CleaningReport
# bound only so the benchmark span targets (benchmarks/e2e/spans.py) resolve
from ..preprocessing.dbscan import dbscan  # noqa: F401
from ..preprocessing.kdistance import estimate_dbscan_params  # noqa: F401
from ..preprocessing.outliers import detect_outliers  # noqa: F401
from .cache import StageCache, fingerprint_table, fingerprint_value
from .spill import SpillError, SpillFile, write_spill

__all__ = [
    "ShardPlan",
    "ShardRunner",
    "ShardSpec",
    "ShardStat",
    "ShardedOutcome",
]


@dataclass(frozen=True)
class ShardSpec:
    """One shard of a plan: identity plus where its rows live globally.

    ``base`` is the shard's offset in the merged (original) row order;
    generator shards occupy ``[base, base + n_rows)``, partition shards
    carry their explicit original ``rows`` instead.
    """

    key: str
    n_rows: int
    base: int
    rows: np.ndarray | None = None
    recipe: ShardRecipe | None = None

    def original_rows(self) -> np.ndarray:
        """The merged-order row indices this shard owns."""
        if self.rows is not None:
            return self.rows
        return np.arange(self.base, self.base + self.n_rows, dtype=np.intp)


@dataclass
class ShardStat:
    """What one shard's transform cost (for the outcome and the log)."""

    key: str
    rows: int
    cache_hit: bool
    elapsed_s: float
    spill_bytes: int
    degradations: int = 0


@dataclass
class ShardedOutcome:
    """What :meth:`Indice.run_sharded` produced."""

    preprocessing: PreprocessingOutcome
    analytics: AnalyticsOutcome
    shard_stats: list[ShardStat] = field(default_factory=list)
    spill_dir: str = ""
    #: The column projection the merge materialized (None = every column).
    columns: tuple[str, ...] | None = None


@dataclass
class _ShardRecord:
    """The picklable per-shard cache entry: where the cleaned bytes live.

    Deliberately tiny — the cleaned rows themselves stay in the spill
    file the record points at; a warm hit revalidates the spill (magic,
    size, payload checksum) before trusting it, so a deleted or corrupted
    spill degrades to an ordinary miss, never to wrong data.
    """

    key: str
    spill_name: str
    n_rows: int
    sha256: str
    city_rows: int
    resolution_rate: float
    geocoder_requests: int


class ShardPlan:
    """A deterministic decomposition of one collection into shards.

    Build one with :meth:`from_generator` (shards are *generated*
    independently per key — the million-certificate path) or
    :meth:`from_collection` (an existing in-memory table is partitioned
    by district / ZIP / count).  The plan owns everything the runner
    needs: the shard specs in merge order, the shared street map and
    hierarchy, and the per-shard extraction and fingerprinting logic.
    """

    def __init__(
        self,
        collection: EpcCollection,
        shards: tuple[ShardSpec, ...],
        scheme: str,
        generator: SyntheticConfig | None = None,
        noise: NoiseConfig | None = None,
        columns: tuple[str, ...] | None = None,
    ):
        self.collection = collection
        self.shards = shards
        self.scheme = scheme
        self.generator = generator
        self.noise = noise
        #: Optional column projection for the merged analytics table.
        #: ``None`` materializes every column (bit-identical to the
        #: monolithic pipeline); a narrow tuple bounds merge memory for
        #: million-row runs (it must cover the analysis + dashboard
        #: columns the downstream stages read).
        self.columns = columns

    @property
    def n_rows(self) -> int:
        """Total rows across every shard."""
        return sum(spec.n_rows for spec in self.shards)

    @classmethod
    def from_generator(
        cls,
        config: SyntheticConfig | None,
        by: str | int,
        noise: NoiseConfig | None = None,
        columns: tuple[str, ...] | None = None,
    ) -> "ShardPlan":
        """Plan sharded *generation*: every shard extracted from its key.

        *noise* (when given) dirties each shard with a seed derived from
        ``(noise.seed, shard key)``, so a shard's dirty bytes are as
        independent and reproducible as its clean ones.
        """
        cfg = config or SyntheticConfig()
        recipes = plan_generation_shards(cfg, by)
        street_map, hierarchy = generate_street_map(
            seed=cfg.seed,
            streets_per_neighbourhood=cfg.streets_per_neighbourhood,
        )
        # a zero-row recipe yields the full wide schema with shared maps:
        # the engine wants a collection even though rows arrive per shard
        base = generate_epc_shard(
            cfg, ShardRecipe("schema", 0, 0), street_map, hierarchy
        )
        specs = []
        offset = 0
        for recipe in recipes:
            specs.append(
                ShardSpec(
                    key=recipe.key,
                    n_rows=recipe.n_certificates,
                    base=offset,
                    recipe=recipe,
                )
            )
            offset += recipe.n_certificates
        scheme = by if isinstance(by, str) else str(by)
        return cls(
            base, tuple(specs), scheme,
            generator=cfg, noise=noise, columns=columns,
        )

    @classmethod
    def from_collection(
        cls,
        collection: EpcCollection,
        by: str | int,
        columns: tuple[str, ...] | None = None,
    ) -> "ShardPlan":
        """Plan sharding of an existing in-memory collection.

        ``"by-district"`` / ``"by-zip"`` group rows on the named column
        (missing values form their own ``other`` shard); an integer cuts
        the table into that many contiguous near-equal parts.  Any
        partitioning merges back to the same original row order, so the
        choice is purely a locality/caching decision.
        """
        table = collection.table
        n = table.n_rows
        if isinstance(by, int) or (isinstance(by, str) and by.isdigit()):
            count = max(1, int(by))
            bounds = [round(i * n / count) for i in range(count + 1)]
            specs = tuple(
                ShardSpec(
                    key=f"part:{i:02d}",
                    n_rows=bounds[i + 1] - bounds[i],
                    base=bounds[i],
                    rows=np.arange(bounds[i], bounds[i + 1], dtype=np.intp),
                )
                for i in range(count)
            )
            return cls(collection, specs, str(count), columns=columns)
        if by in ("by-district", "district"):
            column = "district"
        elif by in ("by-zip", "zip"):
            column = "zip_code"
        else:
            raise ValueError(
                f"unknown shard scheme {by!r}; use 'by-district', 'by-zip' "
                "or a shard count"
            )
        groups = table.group_indices(column)
        keys = sorted((k for k in groups if k is not None), key=str)
        specs = []
        for key in keys:
            rows = np.asarray(groups[key], dtype=np.intp)
            specs.append(
                ShardSpec(
                    key=f"{column}:{key}", n_rows=len(rows),
                    base=int(rows[0]) if len(rows) else 0, rows=rows,
                )
            )
        if None in groups:
            rows = np.asarray(groups[None], dtype=np.intp)
            specs.append(
                ShardSpec(
                    key="other", n_rows=len(rows),
                    base=int(rows[0]) if len(rows) else 0, rows=rows,
                )
            )
        return cls(collection, tuple(specs), str(by), columns=columns)

    # -- extraction ------------------------------------------------------

    def _shard_noise(self, key: str) -> NoiseConfig | None:
        """The per-shard noise config (seed derived from the shard key).

        Mixing the base noise seed and the shard key through the same
        :func:`shard_seed_sequence` the generator uses keeps a shard's
        dirty bytes independent of every other shard and stable across
        runs.
        """
        if self.noise is None:
            return None
        mixer = np.random.default_rng(
            shard_seed_sequence(self.noise.seed, key)
        )
        return replace(self.noise, seed=int(mixer.integers(0, 2**31)))

    def extract(self, spec: ShardSpec) -> Table:
        """Materialize one shard's input rows (generate or slice)."""
        if spec.recipe is not None:
            assert self.generator is not None
            shard = generate_epc_shard(
                self.generator, spec.recipe,
                self.collection.street_map, self.collection.hierarchy,
            )
            noise = self._shard_noise(spec.key)
            if noise is not None:
                return apply_noise(shard, noise).table
            return shard.table
        return self.collection.table.take(spec.original_rows())

    def shard_fingerprint(self, spec: ShardSpec, table: Table | None) -> str:
        """The shard's content hash for the shard-granular cache key.

        Generator shards are content-addressed by their *recipe* (the
        generation is deterministic, so the recipe **is** the content),
        which lets a warm run skip even the extraction.  Partition shards
        hash the extracted rows.
        """
        if spec.recipe is not None:
            return fingerprint_value(
                {
                    "generator": self.generator,
                    "recipe": spec.recipe,
                    "noise": self._shard_noise(spec.key),
                }
            )
        assert table is not None
        return fingerprint_table(table)

    def merged_input_table(self) -> Table:
        """The monolithic-equivalent input (all shards, original order).

        This is what the equivalence tests feed the monolithic serial
        pipeline; production runs never materialize it.
        """
        tables = [self.extract(spec) for spec in self.shards]
        merged = tables[0]
        for other in tables[1:]:
            merged = merged.vstack(other)
        order = np.argsort(
            np.concatenate([spec.original_rows() for spec in self.shards]),
            kind="stable",
        )
        return merged.take(order)


class _SpillPool:
    """An LRU of open spill maps bounding resident shards during merge.

    At most *max_open* :class:`SpillFile` handles stay mapped at once;
    column reads re-open evicted shards on demand (a header parse — the
    payload itself is only touched per requested column).  Always close
    the pool (``with`` / ``finally``): it owns every handle it opened.
    """

    def __init__(self, paths: dict[str, Path], max_open: int, injector=None):
        self._paths = paths
        self._max = max(1, max_open)
        self._injector = injector
        self._open: dict[str, SpillFile] = {}

    def handle(self, key: str) -> SpillFile:
        """The (possibly re-opened) spill of shard *key*, LRU-refreshed."""
        spill = self._open.pop(key, None)
        if spill is None:
            spill = SpillFile.open(self._paths[key], self._injector)
            try:
                while len(self._open) >= self._max:
                    oldest = next(iter(self._open))
                    self._open.pop(oldest).close()
            except BaseException:
                spill.close()
                raise
        self._open[key] = spill
        return spill

    def close(self) -> None:
        """Close every resident handle (idempotent)."""
        for spill in self._open.values():
            spill.close()
        self._open.clear()

    def __enter__(self) -> "_SpillPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ShardRunner:
    """Execute one :class:`ShardPlan` through an :class:`Indice` engine.

    The runner borrows the engine's config, cache, executor, fault
    injector and provenance log, so a sharded run reads exactly like a
    monolithic one in the log — plus the per-shard transform records and
    the shard-cache counters.
    """

    def __init__(self, engine: Indice, plan: ShardPlan):
        if plan.collection.street_map is not engine.collection.street_map:
            raise ValueError(
                "plan and engine must share one street map; build the "
                "engine from plan.collection"
            )
        self.engine = engine
        self.plan = plan

    # -- per-shard transform ----------------------------------------------

    def _spill_paths(self, spill_dir: Path, records: list[_ShardRecord]) -> dict[str, Path]:
        return {rec.key: spill_dir / rec.spill_name for rec in records}

    def _validate_spill(self, record: _ShardRecord, spill_dir: Path) -> bool:
        """Whether a warm record's spill is present and checksum-clean."""
        path = spill_dir / record.spill_name
        try:
            spill = SpillFile.open(path, self.engine.injector)
            try:
                spill.verify()
            finally:
                spill.close()
        except (SpillError, OSError):
            return False
        return True

    def _transform_shard(
        self, spec: ShardSpec, config_fp: str, spill_dir: Path
    ) -> tuple[_ShardRecord, ShardStat, str]:
        """Clean one shard and spill it, or reuse the warm spill.

        The cache key is ``(preprocess-config fingerprint, shard key,
        shard content hash)``; a record only counts as a hit when its
        spill file still verifies, so cache state and spill state can
        never disagree silently.  Returns the shard's content
        fingerprint too — :meth:`run` folds the ordered fingerprints
        into the post-merge memo key.
        """
        engine = self.engine
        cache = engine.cache
        started = time.perf_counter()
        table: Table | None = None
        if spec.recipe is None:
            table = self.plan.extract(spec)
        content_fp = self.plan.shard_fingerprint(spec, table)
        cache_key = None
        if cache is not None:
            cache_key = cache.shard_key(
                "preprocess", config_fp, spec.key, content_fp
            )
            found, record = engine._cache_get("sharding", cache_key)
            if found and self._validate_spill(record, spill_dir):
                cache.count_shard_hit()
                elapsed = time.perf_counter() - started
                stat = ShardStat(
                    spec.key, record.n_rows, True, elapsed,
                    (spill_dir / record.spill_name).stat().st_size,
                )
                return record, stat, content_fp
            cache.count_shard_miss()
        if table is None:
            table = self.plan.extract(spec)
        cleaned, report, city_rows = engine._clean_city_rows(table)
        spill_name = f"{cache_key or fingerprint_value((config_fp, spec.key, content_fp))[:32]}.spill"
        path = spill_dir / spill_name
        # a transiently failing spill write is retried against a
        # still-consistent world (the write is atomic), so a retry can
        # never duplicate or drop rows — re-spilling is idempotent
        retry = engine.config.resilience.retry_policy(seed=engine.config.seed)
        spill_bytes = retry_with_backoff(
            lambda: write_spill(cleaned, path, engine.injector),
            policy=retry,
            retry_on=(TransientServiceError, InjectedIOError),
        )
        record = _ShardRecord(
            key=spec.key,
            spill_name=spill_name,
            n_rows=cleaned.n_rows,
            sha256="",
            city_rows=len(city_rows),
            resolution_rate=report.resolution_rate(),
            geocoder_requests=report.geocoder_requests,
        )
        if cache_key is not None and not report.output_degraded:
            engine._cache_put("sharding", cache_key, record)
        elapsed = time.perf_counter() - started
        stat = ShardStat(
            spec.key, cleaned.n_rows, False, elapsed, spill_bytes,
            degradations=len(report.degradations),
        )
        return record, stat, content_fp

    # -- merge-side gathers ----------------------------------------------

    def _gather_full_numeric(
        self, pool: _SpillPool, name: str, total: int
    ) -> np.ndarray:
        """One numeric column over every row, in original row order."""
        out = np.empty(total, dtype=np.float64)
        for spec in self.plan.shards:
            column = pool.handle(spec.key).column(name)
            out[spec.original_rows()] = column.values
        return out

    def _gather_selected(
        self,
        pool: _SpillPool,
        name: str,
        keep: np.ndarray,
    ) -> Column:
        """One column over the rows *keep* selects, in original row order.

        Each shard scatters its surviving values into their rank positions
        among the kept original indices, so the result is exactly the
        monolithic ``column[keep]``.
        """
        kept_sorted = np.flatnonzero(keep)
        kind = None
        out: np.ndarray | None = None
        for spec in self.plan.shards:
            spill = pool.handle(spec.key)
            column = spill.column(name)
            if out is None:
                kind = column.kind
                out = (
                    np.empty(len(kept_sorted), dtype=np.float64)
                    if kind is ColumnKind.NUMERIC
                    else np.empty(len(kept_sorted), dtype=object)
                )
            orig = spec.original_rows()
            inside = keep[orig]
            if inside.any():
                positions = np.searchsorted(kept_sorted, orig[inside])
                out[positions] = column.values[inside]
        assert out is not None and kind is not None
        return Column(name, kind, out)

    # -- the full sharded pipeline ----------------------------------------

    def run(self) -> ShardedOutcome:
        """extract → per-shard transform → merge → post-merge analytics."""
        engine = self.engine
        cfg = engine.config
        log = engine.log
        plan = self.plan
        total = plan.n_rows
        started = time.perf_counter()
        deadline = engine._stage_deadline()
        if cfg.spill_dir:
            spill_dir = Path(cfg.spill_dir)
            spill_dir.mkdir(parents=True, exist_ok=True)
        else:
            spill_dir = Path(tempfile.mkdtemp(prefix="repro-shards-"))
        log.record(
            "sharding", "plan",
            scheme=plan.scheme, shards=len(plan.shards), rows=total,
            spill_dir=str(spill_dir),
            max_resident_shards=cfg.max_resident_shards,
        )
        config_fp = engine._config_fingerprint(_PREPROCESS_FIELDS)

        records: list[_ShardRecord] = []
        stats: list[ShardStat] = []
        content_fps: list[str] = []
        for spec in plan.shards:
            record, stat, content_fp = self._transform_shard(
                spec, config_fp, spill_dir
            )
            records.append(record)
            stats.append(stat)
            content_fps.append(content_fp)
            log.record(
                "sharding", "shard_transform",
                shard=spec.key, rows=stat.rows, cache_hit=stat.cache_hit,
                elapsed_s=stat.elapsed_s, spill_bytes=stat.spill_bytes,
                resolution_rate=round(record.resolution_rate, 4),
            )
        if engine.cache is not None:
            log.record(
                "sharding", "shard_cache",
                hits=engine.cache.shard_hits,
                misses=engine.cache.shard_misses,
            )

        # post-merge memo: the merged outcome is a pure function of
        # (preprocess config, ordered shard contents, merge projection),
        # so when no shard's content changed the fences / DBSCAN / gather
        # phase is skipped entirely — editing one district re-runs one
        # shard plus the post-merge stages only, and re-running with
        # nothing edited re-runs nothing
        merge_key = None
        if engine.cache is not None:
            merge_key = StageCache.key(
                "sharded_merge",
                config_fp,
                fingerprint_value(
                    {
                        "scheme": plan.scheme,
                        "columns": (
                            list(plan.columns)
                            if plan.columns is not None
                            else None
                        ),
                        "shards": [
                            [spec.key, fp]
                            for spec, fp in zip(plan.shards, content_fps)
                        ],
                    }
                ),
            )
            found, cached = engine._cache_get("sharding", merge_key)
            if found:
                elapsed = time.perf_counter() - started
                log.record(
                    "sharding", "merge_cache",
                    hit=True, key=merge_key, elapsed_s=elapsed,
                )
                engine._preprocessed = cached
                selected = engine.select_case_study(table=cached.table)
                analytics = engine.analyze(table=selected)
                return ShardedOutcome(
                    preprocessing=cached,
                    analytics=analytics,
                    shard_stats=stats,
                    spill_dir=str(spill_dir),
                    columns=plan.columns,
                )

        paths = self._spill_paths(spill_dir, records)
        merge_started = time.perf_counter()
        with _SpillPool(paths, cfg.max_resident_shards, engine.injector) as pool:
            # the global outlier pass reads full columns and the kept rows'
            # features gathered back in original row order — exactly what
            # the monolithic pass reads, so the keep mask is bit-identical
            univariate, noise_mask, keep, pass_degraded = engine._outlier_pass(
                lambda name: self._gather_full_numeric(pool, name, total),
                lambda kept: np.column_stack(
                    [
                        self._gather_selected(pool, name, kept).values
                        for name in cfg.features
                    ]
                ),
                total,
                deadline,
            )

            # deterministic ordered merge: only the configured columns are
            # ever resident, and only their kept rows
            first = pool.handle(plan.shards[0].key)
            names = (
                list(plan.columns)
                if plan.columns is not None
                else first.column_names
            )
            merged = Table(
                [
                    self._gather_selected(pool, name, keep)
                    for name in names
                ]
            )
        merge_elapsed = time.perf_counter() - merge_started
        log.record(
            "sharding", "merge",
            rows_in=total, rows_out=merged.n_rows, columns=len(names),
            elapsed_s=merge_elapsed,
        )

        report = CleaningReport(
            table=merged.take(np.empty(0, dtype=np.intp)),
            geocoder_requests=sum(r.geocoder_requests for r in records),
        )
        preprocessing = PreprocessingOutcome(
            table=merged,
            cleaning_report=report,
            univariate_outliers=univariate,
            multivariate_noise=noise_mask,
            n_rows_in=total,
            n_rows_out=merged.n_rows,
            quality=None,
        )
        engine._preprocessed = preprocessing
        # a degraded merge (deadline-skipped DBSCAN, degraded shards) is
        # not a pure function of the inputs — never memoize it
        merge_degraded = pass_degraded or any(
            stat.degradations for stat in stats
        )
        if merge_key is not None and not merge_degraded:
            engine._cache_put("sharding", merge_key, preprocessing)
        elapsed = time.perf_counter() - started
        log.record(
            "preprocessing", "stage_complete",
            elapsed_s=elapsed,
            rows_per_s=total / elapsed if elapsed > 0 else None,
            rows_in=total, rows_out=merged.n_rows,
        )

        # post-merge aggregation: the ordinary selection + analytics
        # stages over the merged table — same code, same caches, same log
        selected = engine.select_case_study(table=merged)
        analytics = engine.analyze(table=selected)
        return ShardedOutcome(
            preprocessing=preprocessing,
            analytics=analytics,
            shard_stats=stats,
            spill_dir=str(spill_dir),
            columns=plan.columns,
        )
