"""District/ZIP-keyed sharded execution: tier 1's one driver.

Preprocessing has the G-ETL shape — extract → per-shard transform →
deterministic merge — and the unsharded run is the plan of one shard.
Shards bound memory (the million-certificate tier) and confine a dirty
row's cache invalidation to its own shard:

* a :class:`ShardPlan` names the shards (one per Turin district or ZIP
  code, an ``other`` shard for the remaining towns, or ``N`` equal
  parts) and knows how to *extract* each one — either generated
  independently per shard key (:func:`repro.dataset.synthetic
  .generate_epc_shard`) or sliced out of an existing collection;
* the :class:`ShardRunner` profiles and cleans each shard
  (:func:`repro.core.engine._transform_rows`) and *spills* it to disk in
  the columnar codec of :mod:`repro.perf.spill`.  The missed shards run
  as coarse tasks on the engine's pool (one shard per task, each
  cleaning serially); cache lookups, spill validation, every log record
  and every cache write stay in the parent, in shard order.  A single
  miss runs inline, and so does every task when the engine has a fault
  injector — the injector's per-site arrival order is parent state.
  Peak RSS stays bounded by two resident shards across processes;
* the merge runs the engine's one global outlier pass
  (:meth:`~repro.core.engine.Indice._outlier_pass`) over the analysis
  columns gathered from the spills **in original row order**, then
  gathers the kept rows, each gather opening every spill once — so the
  merged table (then selection, K-means, rules) is bit-identical
  (``Table.__eq__``) to the one-shard plan over the same rows.  The
  outcome's quality profile sums the shards' counts but recounts
  duplicate ids over the gathered ids (a duplicate can straddle shards);
  its cleaning summary is summed over the shards;
* each shard's transform is memoized under ``(config_fingerprint,
  shard_key, shard_content_hash)`` (:meth:`StageCache.shard_key`), so
  editing one district re-runs one shard plus the post-merge stages;
  the merged outcome is memoized under the ordered shard contents.

**The one-shard plan** (:meth:`Indice.preprocess`) keeps its cleaned
rows in memory: its extract is the table itself, it writes no spill and
no shard-level cache record, it fingerprints its input only for the
merge key (so only when the engine has a cache), and it logs no
``sharding`` records.  Spilling rows that fit in memory anyway would add
a spill write, a fingerprint and the gathers' re-reads to every cold run.

Equivalence caveat for plans of more than one shard: the geocoder quota
is metered *per cleaning pass*, so each shard gets a fresh quota.  When
the quota never binds (the normal case) sharded output is bit-identical;
a quota exhausted mid-shard is a logged degradation, never cached.
"""

from __future__ import annotations

import contextlib
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from ..core.config import PREPROCESS_FIELDS
from ..core.engine import (
    AnalyticsOutcome,
    Indice,
    PreprocessingOutcome,
    _transform_rows,
)
from ..dataset.noise import NoiseConfig, apply_noise
from ..dataset.synthetic import (
    EpcCollection,
    ShardRecipe,
    SyntheticConfig,
    generate_epc_shard,
    generate_street_map,
    plan_generation_shards,
    shard_scheme,
    shard_seed_sequence,
)
from ..dataset.table import Column, ColumnKind, Table
from ..faults.plan import InjectedIOError, TransientServiceError
from ..faults.policy import retry_with_backoff
from ..preprocessing.address_cleaner import CleaningSummary
from ..preprocessing.quality import QualityProfile, merge_quality
# bound only so the benchmark span targets (benchmarks/e2e/spans.py) resolve
from ..preprocessing.dbscan import dbscan  # noqa: F401
from ..preprocessing.kdistance import estimate_dbscan_params  # noqa: F401
from ..preprocessing.outliers import detect_outliers  # noqa: F401
from .cache import StageCache, fingerprint_table, fingerprint_value
from .parallel import ParallelMap
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
    carry their explicit original ``rows`` (ascending) instead.
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


@dataclass
class ShardedOutcome:
    """What :meth:`Indice.run_sharded` produced."""

    preprocessing: PreprocessingOutcome
    analytics: AnalyticsOutcome
    shard_stats: list[ShardStat] = field(default_factory=list)
    #: Where the spills live: the configured ``spill_dir`` of a plan of
    #: more than one shard, else "" (the one-shard plan spills nothing,
    #: and a run's temporary spill directory is gone when it returns).
    spill_dir: str = ""


@dataclass
class _ShardRecord:
    """The picklable per-shard cache entry: where the cleaned bytes live.

    Deliberately small — the cleaned rows themselves stay in the spill
    file the record points at, next to the shard's cleaning summary and
    input quality profile; a warm hit revalidates the spill (magic,
    size, payload checksum) before trusting it, so a deleted or corrupted
    spill degrades to an ordinary miss, never to wrong data.
    """

    key: str
    spill_name: str
    n_rows: int
    cleaning: CleaningSummary
    quality: QualityProfile


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
        #: one-shard plan); a narrow tuple bounds merge memory for
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
        by = shard_scheme(by)
        if isinstance(by, int):
            count = by
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
        column = "district" if by in ("by-district", "district") else "zip_code"
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
        """Materialize one shard's input rows (generate or slice).

        A partition shard holding every row is the table itself (its rows
        are ascending), so the one-shard plan copies nothing.
        """
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
        table = self.collection.table
        if spec.n_rows == table.n_rows:
            return table
        return table.take(spec.original_rows())

    def shard_fingerprint(self, spec: ShardSpec) -> str:
        """The shard's content hash for the shard-granular cache key.

        Generator shards are content-addressed by their *recipe* (the
        generation is deterministic, so the recipe **is** the content),
        which lets a warm run skip even the extraction.  Partition shards
        hash the extracted rows, one shard at a time.
        """
        if spec.recipe is not None:
            return fingerprint_value(
                {
                    "generator": self.generator,
                    "recipe": spec.recipe,
                    "noise": self._shard_noise(spec.key),
                }
            )
        return fingerprint_table(self.extract(spec))

    def merged_input_table(self) -> Table:
        """The whole input of the plan (all shards, original order).

        This is what the equivalence tests feed the one-shard plan
        (``Indice.preprocess``); production runs never materialize it.
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


@dataclass(frozen=True)
class _ShardTask:
    """One missed shard's transform: its plan position and spill name."""

    index: int
    spec: ShardSpec
    spill_name: str


@dataclass
class _ShardResult:
    """What one transform task hands back to the parent (picklable)."""

    record: _ShardRecord
    stat: ShardStat
    #: the transform's provenance steps, replayed by the parent
    steps: list[tuple[str, str, dict]]
    #: gazetteer lookups the task's index copy resolved, for the parent's
    #: index to adopt — so a later in-process re-run finds them memoized,
    #: as it would had the parent cleaned the shard itself
    resolved: list
    #: the cleaned rows of a one-shard plan, which are never spilled
    table: Table | None = None


def _transform_shard(state: tuple, task: _ShardTask) -> _ShardResult:
    """Extract, profile, clean and spill one shard (a pool worker, or inline).

    *state* is ``(plan, config, injector, cleaning executor, spill dir)``,
    shared by every transform task of one run.  With no spill dir (the
    one-shard plan) the cleaned rows come back in the result instead.
    Logs nothing and touches no cache: the parent replays the returned
    provenance steps and writes the cache entry, in shard order.
    """
    plan, config, injector, executor, spill_dir = state
    started = time.perf_counter()
    spec = task.spec
    index = plan.collection.street_map.match_index()
    mark = index.memo_size()
    cleaned, cleaning, quality, steps = _transform_rows(
        plan.extract(spec), plan.collection, config, injector, executor
    )
    spill_bytes = 0
    if spill_dir is not None:
        path = spill_dir / task.spill_name
        # a transiently failing spill write is retried against a
        # still-consistent world (the write is atomic), so a retry can
        # never duplicate or drop rows — re-spilling is idempotent
        spill_bytes = retry_with_backoff(
            lambda: write_spill(cleaned, path, injector),
            policy=config.resilience.retry_policy(seed=config.seed),
            retry_on=(TransientServiceError, InjectedIOError),
        )
    record = _ShardRecord(
        spec.key, task.spill_name, cleaned.n_rows, cleaning, quality
    )
    elapsed = time.perf_counter() - started
    stat = ShardStat(spec.key, cleaned.n_rows, False, elapsed, spill_bytes)
    resident = cleaned if spill_dir is None else None
    return _ShardResult(record, stat, steps, index.memo_since(mark), resident)


class ShardRunner:
    """Execute one :class:`ShardPlan` through an :class:`Indice` engine.

    The one preprocessing driver: :meth:`preprocess` is the engine's
    tier 1 over the plan, :meth:`run` adds selection and analytics.  The
    runner borrows the engine's config, cache, executor, fault injector
    and provenance log, so every plan reads alike in the log — plus, with
    more than one shard, the per-shard transform records and the
    shard-cache counters.
    """

    def __init__(self, engine: Indice, plan: ShardPlan):
        if plan.collection.street_map is not engine.collection.street_map:
            raise ValueError(
                "plan and engine must share one street map; build the "
                "engine from plan.collection"
            )
        self.engine = engine
        self.plan = plan
        #: where the spills live while :meth:`preprocess` runs; None for
        #: the one-shard plan, and after a run that spilled into a
        #: temporary directory
        self.spill_dir: Path | None = None
        #: the last run's per-shard transform costs, in shard order
        self.stats: list[ShardStat] = []
        #: the one-shard plan's cleaned rows, held until the merge
        self._resident: Table | None = None

    # -- per-shard transform ----------------------------------------------

    def _validate_spill(self, record: _ShardRecord) -> bool:
        """Whether a warm record's spill is present and checksum-clean."""
        path = self.spill_dir / record.spill_name
        try:
            with SpillFile.open(path, self.engine.injector) as spill:
                spill.verify()
        except (SpillError, OSError):
            return False
        return True

    def _transform_shards(
        self, config_fp: str, content_fps: list[str] | None
    ) -> list[_ShardRecord]:
        """Clean every missed shard; reuse every warm spill.

        The cache key is ``(preprocess-config fingerprint, shard key,
        shard content hash)``; a record only counts as a hit when its
        spill file still verifies, so cache state and spill state can
        never disagree silently.  Lookups, spill validation and hit
        counting run here in the parent; only the misses become
        :func:`_transform_shard` tasks.  The parent then writes each
        shard's provenance steps (tagged with the shard key) and cache
        entry in shard order, however the tasks ran.  The one-shard plan
        has no shard-level memo and keeps its rows resident instead.
        Returns the records in shard order and sets :attr:`stats`.
        """
        engine = self.engine
        cache = engine.cache
        plan = self.plan
        spilled = self.spill_dir is not None
        hits: dict[int, tuple[_ShardRecord, ShardStat]] = {}
        tasks: list[_ShardTask] = []
        lookups: dict[int, tuple[str | None, float]] = {}
        for index, spec in enumerate(plan.shards):
            started = time.perf_counter()
            cache_key, spill_name = None, ""
            if spilled:
                if cache is not None:
                    cache_key = cache.shard_key(
                        "transform", config_fp, spec.key, content_fps[index]
                    )
                    found, record = engine._cache_get("sharding", cache_key)
                    if found and self._validate_spill(record):
                        cache.count_shard_hit()
                        hits[index] = (record, ShardStat(
                            spec.key, record.n_rows, True,
                            time.perf_counter() - started,
                            (self.spill_dir / record.spill_name).stat().st_size,
                        ))
                        continue
                    cache.count_shard_miss()
                spill_key = cache_key or fingerprint_value(
                    (config_fp, spec.key, content_fps[index])
                )[:32]
                spill_name = f"{spill_key}.spill"
            tasks.append(_ShardTask(index, spec, spill_name))
            lookups[index] = (cache_key, time.perf_counter() - started)

        results = dict(
            zip((task.index for task in tasks), self._run_tasks(tasks))
        )
        gazetteer = plan.collection.street_map.match_index()
        records, self.stats = [], []
        for index, spec in enumerate(plan.shards):
            if index in results:
                result = results[index]
                gazetteer.adopt(result.resolved)
                cache_key, lookup_s = lookups[index]
                tag = {"shard": spec.key} if spilled else {}
                for stage, action, detail in result.steps:
                    engine.log.record(stage, action, **tag, **detail)
                # a degraded shard is not the fault-free one: never cache it
                if cache_key is not None and not result.record.cleaning.output_degraded:
                    engine._cache_put("sharding", cache_key, result.record)
                result.stat.elapsed_s += lookup_s
                record, stat = result.record, result.stat
                self._resident = result.table
            else:
                record, stat = hits[index]
            records.append(record)
            self.stats.append(stat)
            if spilled:
                engine.log.record(
                    "sharding", "shard_transform",
                    shard=spec.key, rows=stat.rows, cache_hit=stat.cache_hit,
                    elapsed_s=stat.elapsed_s, spill_bytes=stat.spill_bytes,
                    resolution_rate=round(record.cleaning.resolution_rate(), 4),
                )
        return records

    def _run_tasks(self, tasks: list[_ShardTask]) -> list[_ShardResult]:
        """Run the transform *tasks* on the engine's pool or inline.

        Two or more misses with two jobs run one task per worker, each
        cleaning serially (no nested pools).  With a fault injector the
        tasks run inline in shard order instead: the injector's per-site
        arrival order is parent state, and it is what makes a chaos run
        reproducible.  Inline tasks clean through the engine's executor.
        """
        engine = self.engine
        pooled = engine.injector is None and (
            engine.executor.should_parallelize_tasks(len(tasks))
        )
        if pooled:
            executor, cleaner = engine.executor, ParallelMap()
            watch = engine._logged_fallbacks("sharding", "the shard transforms")
        else:
            # inline, a fallback can only happen inside cleaning, whose
            # own provenance steps already log it
            executor, cleaner = ParallelMap(), engine.executor
            watch = contextlib.nullcontext()
        state = (self.plan, engine.config, engine.injector, cleaner, self.spill_dir)
        with watch:
            return executor.map_tasks(_transform_shard, tasks, args=state)

    # -- merge-side reads --------------------------------------------------

    def _rows(
        self,
        records: list[_ShardRecord],
        names: list[str] | tuple[str, ...] | None,
        keep: np.ndarray | None,
    ) -> Table:
        """The named columns over the rows *keep* selects, in row order.

        ``names=None`` reads every column, ``keep=None`` every row.  The
        one-shard plan slices its resident rows; otherwise each spill is
        opened once, one at a time, and scatters the kept rows of every
        named column into their rank positions among the kept original
        indices — so each column is exactly the resident ``column[keep]``.
        """
        if self._resident is not None:
            table = self._resident if names is None else self._resident.select(names)
            return table if keep is None else table.where(keep)
        if keep is None:
            keep = np.ones(self.plan.n_rows, dtype=bool)
        kept_sorted = np.flatnonzero(keep)
        columns: list[Column] = []
        for spec, record in zip(self.plan.shards, records):
            path = self.spill_dir / record.spill_name
            with SpillFile.open(path, self.engine.injector) as spill:
                if not columns:
                    kinds = {col.name: col.kind for col in spill.specs}
                    columns = [
                        Column(name, kinds[name], np.empty(
                            len(kept_sorted),
                            np.float64 if kinds[name] is ColumnKind.NUMERIC else object,
                        ))
                        for name in (spill.column_names if names is None else names)
                    ]
                orig = spec.original_rows()
                inside = keep[orig]
                if not inside.any():
                    continue
                positions = np.searchsorted(kept_sorted, orig[inside])
                for column in columns:
                    column.values[positions] = spill.column(column.name).values[inside]
        return Table(columns)

    # -- the driver --------------------------------------------------------

    def preprocess(self) -> PreprocessingOutcome:
        """extract → per-shard transform → merge: the engine's tier 1.

        A plan of more than one shard spills into the configured
        ``spill_dir``, which stays for warm runs; without one, into a
        temporary directory that is removed once the merge has gathered
        its rows (the outcome then reports no ``spill_dir``).
        """
        self.spill_dir = None
        if len(self.plan.shards) == 1:
            return self._preprocess()
        configured = self.engine.config.spill_dir
        if configured:
            self.spill_dir = Path(configured)
            self.spill_dir.mkdir(parents=True, exist_ok=True)
            return self._preprocess()
        with tempfile.TemporaryDirectory(prefix="repro-shards-") as scratch:
            self.spill_dir = Path(scratch)
            try:
                return self._preprocess()
            finally:
                self.spill_dir = None

    def _preprocess(self) -> PreprocessingOutcome:
        """:meth:`preprocess` with :attr:`spill_dir` resolved."""
        engine = self.engine
        cfg = engine.config
        log = engine.log
        plan = self.plan
        total = plan.n_rows
        started = time.perf_counter()
        deadline = engine._stage_deadline()
        config_fp = engine._config_fingerprint(PREPROCESS_FIELDS)
        spilled = self.spill_dir is not None
        content_fps = None
        if spilled or engine.cache is not None:
            content_fps = [plan.shard_fingerprint(spec) for spec in plan.shards]

        if spilled:
            log.record(
                "sharding", "plan",
                scheme=plan.scheme, shards=len(plan.shards), rows=total,
                spill_dir=str(self.spill_dir),
            )
            records = self._transform_shards(config_fp, content_fps)
            if engine.cache is not None:
                log.record(
                    "sharding", "shard_cache",
                    hits=engine.cache.shard_hits,
                    misses=engine.cache.shard_misses,
                )

        # merge memo: the outcome is a pure function of (preprocess
        # config, ordered shard contents, merge projection), so when no
        # shard's content changed the fences / DBSCAN / gather phase is
        # skipped entirely — and the one-shard plan skips its cleaning too
        merge_key = None
        if engine.cache is not None:
            merge_key = StageCache.key(
                "preprocess",
                config_fp,
                fingerprint_value(
                    {
                        "scheme": plan.scheme,
                        "columns": (
                            list(plan.columns) if plan.columns is not None else None
                        ),
                        "shards": [
                            [spec.key, fp]
                            for spec, fp in zip(plan.shards, content_fps)
                        ],
                    }
                ),
            )
            found, cached = engine._cache_get("preprocessing", merge_key)
            if found:
                elapsed = time.perf_counter() - started
                log.record(
                    "preprocessing", "merge_cache",
                    hit=True, key=merge_key, elapsed_s=elapsed,
                    rows_per_s=total / elapsed if elapsed > 0 else None,
                )
                engine._preprocessed = cached
                return cached
        if not spilled:
            records = self._transform_shards(config_fp, content_fps)

        merge_started = time.perf_counter()
        analysis = self._rows(
            records,
            list(dict.fromkeys([*cfg.features, cfg.response, "certificate_id"])),
            None,
        )
        quality = merge_quality(
            [record.quality for record in records], analysis["certificate_id"]
        )
        log.record(
            "preprocessing", "quality_assessment",
            missing_rate=round(quality.overall_missing_rate(), 4),
            unlocated=quality.n_unlocated,
            outside_region=quality.n_outside_region,
            duplicates=quality.n_duplicate_certificates,
        )
        univariate, noise_mask, keep, pass_degraded = engine._outlier_pass(
            analysis, deadline
        )
        merged = self._rows(records, plan.columns, keep)
        self._resident = None
        if spilled:
            log.record(
                "sharding", "merge",
                rows_in=total, rows_out=merged.n_rows, columns=merged.n_columns,
                elapsed_s=time.perf_counter() - merge_started,
            )

        cleaning = CleaningSummary.combine([record.cleaning for record in records])
        outcome = PreprocessingOutcome(
            table=merged,
            cleaning=cleaning,
            quality=quality,
            univariate_outliers=univariate,
            multivariate_noise=noise_mask,
            n_rows_in=total,
            n_rows_out=merged.n_rows,
        )
        engine._preprocessed = outcome
        elapsed = time.perf_counter() - started
        log.record(
            "preprocessing", "stage_complete",
            elapsed_s=elapsed,
            rows_per_s=total / elapsed if elapsed > 0 else None,
            rows_in=total, rows_out=merged.n_rows,
        )
        # the key promises the fault-free result: a degraded outcome (a
        # geocoder shortfall, a deadline-shed DBSCAN) is never cached,
        # serving it from cache would be silent
        if merge_key is not None and not (pass_degraded or cleaning.output_degraded):
            engine._cache_put("preprocessing", merge_key, outcome)
        return outcome

    def run(self) -> ShardedOutcome:
        """:meth:`preprocess`, then the ordinary selection + analytics
        stages over the merged table — same code, same caches, same log."""
        preprocessing = self.preprocess()
        return ShardedOutcome(
            preprocessing=preprocessing,
            analytics=self.engine.analyze(),
            shard_stats=self.stats,
            spill_dir=str(self.spill_dir or ""),
        )
