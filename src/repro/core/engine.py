"""The INDICE engine: the full Figure 1 pipeline behind one façade.

``Indice`` wires the three tiers together:

1. **Data pre-processing** — geospatial cleaning against the referenced
   street map (with the metered geocoder fallback), then univariate outlier
   filtering on the analysis attributes and optional DBSCAN multivariate
   filtering with auto-estimated parameters;
2. **Data selection and analytics** — the case-study selection (city +
   building type), correlation-eligibility check, K-means with
   elbow-selected K, CART discretization and association-rule mining;
3. **Data and knowledge visualization** — stakeholder-tailored dashboards
   combining the three energy maps, frequency distributions, the rules
   table and the correlation matrix.

Each phase returns a typed outcome object and appends to the session's
provenance log, so the pipeline can be run piecemeal (as the benchmarks
do) or end-to-end via :meth:`Indice.run`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..analytics.correlation import CorrelationMatrix, correlation_matrix
from ..analytics.discretize import Discretization, discretize_table
from ..analytics.kmeans import AutoKMeansResult, kmeans_auto, standardize
from ..analytics.rules import AssociationRule, RuleMiner
from ..analytics.stats import grouped_histograms, summarize_table
from ..analytics.temporal import temporal_summary
from ..dashboard.charts import boxplot_chart
from ..dashboard.dashboard import Panel
from ..preprocessing.outliers import boxplot_outliers
from ..dataset.synthetic import EpcCollection
from ..dataset.table import Column, ColumnKind, Table
from ..dashboard.dashboard import Dashboard, DashboardBuilder, NavigableDashboard
from ..dashboard.maps import (
    choropleth_map,
    choropleth_with_scatter_map,
    cluster_marker_map,
    scatter_map,
)
from ..checks import effectaudit as _effectaudit
from ..faults.plan import FaultInjector
from ..faults.policy import Deadline
from ..geo.regions import Granularity
from ..perf.cache import StageCache, fingerprint_table, fingerprint_value
from ..perf.parallel import ParallelMap, feature_matrix, grouped_mean
from ..preprocessing.address_cleaner import AddressCleaner, CleaningReport
from ..preprocessing.dbscan import dbscan
from ..preprocessing.geocoder import SimulatedGeocoder
from ..preprocessing.kdistance import estimate_dbscan_params
from ..preprocessing.outliers import OutlierResult, detect_outliers
from ..preprocessing.quality import QualityProfile, assess_quality
from ..query.engine import Query, QueryEngine
from ..query.predicates import Comparison
from ..query.stakeholders import Stakeholder, profile_for
from .config import IndiceConfig
from .session import ProvenanceLog

__all__ = ["Indice", "PreprocessingOutcome", "AnalyticsOutcome"]

#: Config fields the preprocessing outcome depends on.  Stage-cache keys
#: fingerprint only these, so changing an analytics knob (e.g. ``k_range``)
#: never invalidates a cached preprocessing result — and vice versa.
#: Perf-only knobs (``n_jobs``, cache settings) appear in neither.
_PREPROCESS_FIELDS = (
    "city",
    "features",
    "response",
    "cleaning",
    "geocoder_quota",
    "outlier_method",
    "outlier_params",
    "outlier_overrides",
    "run_multivariate_outliers",
)

#: Config fields the analytics outcome depends on.
_ANALYZE_FIELDS = (
    "city",
    "building_type",
    "features",
    "response",
    "k_range",
    "kmeans_n_init",
    "seed",
    "discretization_plan",
    "rule_constraints",
    "rule_template",
    "correlation_threshold",
)


def _render_panel(add: Callable[[DashboardBuilder], object]) -> Panel:
    """The one panel *add* puts on a fresh :class:`DashboardBuilder`."""
    builder = DashboardBuilder("")
    add(builder)
    (panel,) = builder.dashboard.panels
    return panel


@dataclass
class PreprocessingOutcome:
    """What tier 1 produced."""

    table: Table
    cleaning_report: CleaningReport
    univariate_outliers: dict[str, OutlierResult] = field(default_factory=dict)
    multivariate_noise: np.ndarray | None = None
    n_rows_in: int = 0
    n_rows_out: int = 0
    quality: QualityProfile | None = None

    @property
    def n_outlier_rows(self) -> int:
        """Rows removed by the outlier filters."""
        return self.n_rows_in - self.n_rows_out


@dataclass
class AnalyticsOutcome:
    """What tier 2 produced."""

    table: Table  # analysis selection with the cluster column attached
    correlation: CorrelationMatrix
    clustering: AutoKMeansResult
    discretizations: dict[str, Discretization] = field(default_factory=dict)
    rules: list[AssociationRule] = field(default_factory=list)
    #: Memo for the dashboard invariants below (not part of the outcome's
    #: value; excluded from comparison so cached outcomes stay equal).
    _memo: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def cluster_column(self) -> str:
        """Name of the attached cluster-label column."""
        return "cluster"

    # -- per-outcome dashboard invariants ------------------------------------
    #
    # Every tab of the navigable dashboard renders the same analytics table;
    # the aggregates below depend only on (outcome, response), never on the
    # tab's granularity, so they are computed once and memoized here instead
    # of once per tab.  The same holds for every panel that does not depend
    # on the stakeholder: the three dashboards share one rendering of it.

    def region_means(
        self, region_column: str, response: str, executor=None
    ) -> dict:
        """Mean *response* per region (memoized; missing regions dropped).

        *executor* (a :class:`~repro.perf.parallel.ParallelMap`, as the
        engine passes when building dashboards) routes the aggregation
        through the columnar parallel path; results are bit-identical
        either way, so the memo never cares which path filled it.
        """
        key = ("region_means", region_column, response)
        if key not in self._memo:
            means = grouped_mean(self.table, region_column, response, executor)
            means.pop(None, None)
            self._memo[key] = means
        return self._memo[key]

    def response_histograms(self, response: str, by: str = "cluster") -> dict:
        """Histogram of *response* per *by* group (memoized; no-key dropped)."""
        key = ("histograms", response, by)
        if key not in self._memo:
            hists = grouped_histograms(self.table, response, by=by)
            hists.pop(None, None)
            self._memo[key] = hists
        return self._memo[key]

    def summary(self, attributes: tuple[str, ...]):
        """Descriptive statistics of *attributes* (memoized)."""
        key = ("summary", attributes)
        if key not in self._memo:
            self._memo[key] = summarize_table(self.table, list(attributes))
        return self._memo[key]

    def panel(self, key: tuple, render: Callable[[], Panel]) -> Panel:
        """A stakeholder-independent dashboard panel (memoized).

        *key* must hold every input of the panel the outcome does not fix
        (the engine passes panel kind, zoom, response and a hierarchy
        fingerprint), because engines with different collections can share
        one cached outcome.  A :class:`Panel` keeps only title, caption and
        body, so a memoized map never pins its GeoJSON.
        """
        key = ("panel",) + key
        if key not in self._memo:
            self._memo[key] = render()
        return self._memo[key]


class Indice:
    """INformative DynamiC dashboard Engine (reproduction).

    Parameters
    ----------
    collection:
        The EPC collection (table + referenced street map + hierarchy).
        The table may be dirty — that is the expected input.
    config:
        All pipeline knobs; defaults reproduce the Section 3 case study.
    cache:
        Optional externally-shared :class:`StageCache`.  By default the
        engine builds its own when ``config.stage_cache`` is on (backed by
        ``config.cache_dir`` when set); pass an instance to share cached
        stage outcomes across engines, or ``config.stage_cache=False`` to
        disable memoization entirely.
    injector:
        Optional :class:`~repro.faults.plan.FaultInjector` threaded
        through every fault site the engine owns (geocoder, stage cache,
        parallel executor).  ``None`` (the default) leaves the hooks
        dormant at the cost of one identity comparison each.
    """

    def __init__(
        self,
        collection: EpcCollection,
        config: IndiceConfig | None = None,
        cache: StageCache | None = None,
        injector: FaultInjector | None = None,
    ):
        self.collection = collection
        self.config = config or IndiceConfig()
        self.log = ProvenanceLog()
        self.injector = injector
        self.cache = cache
        if self.cache is None and self.config.stage_cache:
            self.cache = StageCache(self.config.cache_dir, injector=injector)
        self.executor = ParallelMap(n_jobs=self.config.n_jobs, injector=injector)
        self._preprocessed: PreprocessingOutcome | None = None
        self._analyzed: AnalyticsOutcome | None = None

    def _config_fingerprint(self, fields: tuple[str, ...]) -> str:
        """Fingerprint of the config fields a cached stage depends on."""
        return fingerprint_value(
            {name: getattr(self.config, name) for name in fields}
        )

    # -- resilient cache access (degradations logged, never raised) -------

    def _cache_get(self, stage: str, key: str):
        """``cache.get`` with read failures recorded as degradations."""
        errors_before = self.cache.read_errors
        found, value = self.cache.get(key)
        if self.cache.read_errors > errors_before:
            self.log.record(
                stage, "degradation",
                kind="cache_read_failed",
                detail="corrupt or unreadable stage-cache entry treated "
                "as a miss; stage recomputed (results unchanged)",
            )
        return found, value

    def _cache_put(self, stage: str, key: str, value) -> None:
        """``cache.put`` with write failures recorded as degradations."""
        errors_before = self.cache.write_errors
        self.cache.put(key, value)
        if self.cache.write_errors > errors_before:
            self.log.record(
                stage, "degradation",
                kind="cache_write_failed",
                detail="stage-cache entry could not be persisted; "
                "kept in memory only",
            )

    def _stage_deadline(self) -> Deadline:
        """A fresh deadline from the configured per-stage budget."""
        return Deadline(self.config.resilience.stage_timeout_s)

    # ------------------------------------------------------------------
    # Tier 1: data pre-processing
    # ------------------------------------------------------------------

    @_effectaudit.audited("preprocess")
    def preprocess(self, table: Table | None = None) -> PreprocessingOutcome:
        """Clean geospatial attributes, then drop outlier rows.

        Cleaning is :meth:`_clean_city_rows`; the outlier filter is the
        global :meth:`_outlier_pass`, which the sharded merge runs too.
        """
        cfg = self.config
        table = table if table is not None else self.collection.table
        n_in = table.n_rows
        start = time.perf_counter()
        deadline = self._stage_deadline()

        cache_key = None
        if self.cache is not None:
            cache_key = StageCache.key(
                "preprocess",
                fingerprint_table(table),
                self._config_fingerprint(_PREPROCESS_FIELDS),
            )
            found, cached = self._cache_get("preprocessing", cache_key)
            if found:
                elapsed = time.perf_counter() - start
                self.log.record(
                    "preprocessing", "stage_cache",
                    hit=True, key=cache_key,
                    elapsed_s=elapsed,
                    rows_per_s=n_in / elapsed if elapsed > 0 else None,
                )
                self._preprocessed = cached
                return cached

        # diagnostic pass first: how dirty is the input? (never mutates)
        quality = assess_quality(
            table,
            schema=self.collection.schema,
            hierarchy=self.collection.hierarchy,
            attributes=list(cfg.features)
            + [cfg.response, "certificate_id", "latitude", "longitude"],
        )
        self.log.record(
            "preprocessing", "quality_assessment",
            missing_rate=round(quality.overall_missing_rate(), 4),
            unlocated=quality.n_unlocated,
            outside_region=quality.n_outside_region,
            duplicates=quality.n_duplicate_certificates,
        )

        cleaned, report, __ = self._clean_city_rows(table)
        univariate, noise_mask, keep, pass_degraded = self._outlier_pass(
            lambda name: cleaned[name],
            lambda kept: feature_matrix(
                cleaned.where(kept), cfg.features, self.executor
            ),
            cleaned.n_rows,
            deadline,
        )
        filtered = cleaned.where(keep)

        outcome = PreprocessingOutcome(
            table=filtered,
            cleaning_report=report,
            univariate_outliers=univariate,
            multivariate_noise=noise_mask,
            n_rows_in=n_in,
            n_rows_out=filtered.n_rows,
            quality=quality,
        )
        elapsed = time.perf_counter() - start
        self.log.record(
            "preprocessing", "stage_complete",
            elapsed_s=elapsed,
            rows_per_s=n_in / elapsed if elapsed > 0 else None,
            rows_in=n_in, rows_out=filtered.n_rows,
        )
        # the cache key promises the fault-free result: never cache a
        # degraded one, serving it from cache would be silent
        if cache_key is not None and not (report.output_degraded or pass_degraded):
            self._cache_put("preprocessing", cache_key, outcome)
        self._preprocessed = outcome
        return outcome

    def _clean_city_rows(
        self, table: Table
    ) -> tuple[Table, CleaningReport, np.ndarray]:
        """Clean the configured city's rows of *table*, scatter them back.

        The referenced street map covers the city under analysis (the
        paper downloads it per city), so cleaning is scoped to that
        city's rows: matching out-of-city addresses against it would
        mis-geocode them.  This is the per-row half of preprocessing:
        :meth:`preprocess` runs it once over the whole table, the
        sharded tier (:meth:`run_sharded`) once per shard, and both then
        hand the cleaned rows to the one global :meth:`_outlier_pass`.
        Returns the full-width cleaned table, the cleaning report and the
        cleaned row indices.
        """
        cfg = self.config
        city_mask = Comparison("city", "==", cfg.city).mask(table)
        city_rows = np.flatnonzero(city_mask)
        geocoder = SimulatedGeocoder(
            self.collection.street_map, quota=cfg.geocoder_quota,
            injector=self.injector,
        )
        cleaner = AddressCleaner(
            self.collection.street_map, cfg.cleaning, geocoder,
            executor=self.executor,
            retry=cfg.resilience.retry_policy(seed=cfg.seed),
            breaker=cfg.resilience.breaker(),
        )
        clean_start = time.perf_counter()
        report = cleaner.clean_table(table.take(city_rows))
        clean_elapsed = time.perf_counter() - clean_start
        self.log.record(
            "preprocessing", "geospatial_cleaning",
            elapsed_s=clean_elapsed,
            rows_per_s=(
                len(city_rows) / clean_elapsed if clean_elapsed > 0 else None
            ),
            city=cfg.city,
            phi=cfg.cleaning.phi,
            n_jobs=self.executor.resolve_jobs(),
            rows_cleaned=len(city_rows),
            resolution_rate=round(report.resolution_rate(), 4),
            geocoder_requests=report.geocoder_requests,
        )
        for degradation in report.degradations:
            self.log.record("preprocessing", "degradation", **degradation)
        cleaned = self._scatter_cleaned(table, report.table, city_rows)
        return cleaned, report, city_rows

    def _outlier_pass(
        self,
        column: Callable[[str], np.ndarray],
        kept_features: Callable[[np.ndarray], np.ndarray],
        n_rows: int,
        deadline: Deadline,
    ) -> tuple[dict[str, OutlierResult], np.ndarray | None, np.ndarray, bool]:
        """The global outlier filter over *n_rows* cleaned rows.

        Rows flagged by the univariate detector on any analysis attribute
        are dropped (Section 2.1.2), then optional DBSCAN drops the noise
        among the survivors (rows with a missing feature are kept).  The
        caller supplies where rows live: *column* gives one full numeric
        column in original row order, *kept_features* the feature matrix
        of the rows a keep mask selects — from the cleaned table in
        :meth:`preprocess`, from the spills in the sharded merge.  Returns
        ``(univariate results, noise mask over the survivors or None,
        final keep mask, degraded)``; *degraded* means the *deadline* shed
        DBSCAN, and such an output must never be cached.
        """
        cfg = self.config
        keep = np.ones(n_rows, dtype=bool)
        univariate: dict[str, OutlierResult] = {}
        for name in tuple(cfg.features) + (cfg.response,):
            method, params = cfg.outlier_overrides.get(
                name, (cfg.outlier_method, cfg.outlier_params)
            )
            result = detect_outliers(column(name), method, **params)
            univariate[name] = result
            keep &= ~result.mask
            self.log.record(
                "preprocessing", "univariate_outliers",
                attribute=name, method=method.value,
                flagged=result.n_outliers,
            )
        if not cfg.run_multivariate_outliers:
            return univariate, None, keep, False
        if deadline.expired():
            # the optional DBSCAN pass is the first thing shed under time
            # pressure; the mandatory cleaning/filtering above always runs
            self.log.record(
                "preprocessing", "degradation",
                kind="deadline_exceeded",
                detail="stage budget spent; multivariate outlier pass "
                "skipped (univariate filtering already applied)",
                budget_s=cfg.resilience.stage_timeout_s,
            )
            return univariate, None, keep, True
        matrix, __ = standardize(kept_features(keep))
        estimate = estimate_dbscan_params(matrix)
        result = dbscan(matrix, estimate.eps, estimate.min_points)
        complete = ~np.isnan(matrix).any(axis=1)
        noise_mask = result.noise_mask & complete  # missing rows are kept
        keep[np.flatnonzero(keep)[noise_mask]] = False
        self.log.record(
            "preprocessing", "multivariate_outliers",
            eps=round(estimate.eps, 4), min_points=estimate.min_points,
            flagged=int(noise_mask.sum()),
        )
        return univariate, noise_mask, keep, False

    def run_sharded(self, plan):
        """Run the pipeline sharded per *plan* (out-of-core merge).

        The sharded tier extracts, cleans and spills one shard at a time
        (peak memory bounded by the largest shard), memoizes each shard
        under a shard-granular cache key, and runs the global stages on
        columns gathered back in original row order — so the outcome is
        bit-identical to the monolithic pipeline over the same rows.  See
        :mod:`repro.perf.shards`; returns its ``ShardedOutcome``.
        """
        # function-scope import: repro.perf.shards imports this module at
        # top level, so the reverse edge (even a types-only one, which
        # IMP001 counts) must stay out of the module graph — hence no
        # ShardPlan / ShardedOutcome annotations here
        from ..perf.shards import ShardRunner

        return ShardRunner(self, plan).run()

    # ------------------------------------------------------------------
    # Tier 2: data selection and analytics
    # ------------------------------------------------------------------

    def select_case_study(self, table: Table | None = None) -> Table:
        """The paper's selection: configured city + building type."""
        cfg = self.config
        table = table if table is not None else self._require_preprocessed().table
        query = Query(
            where=Comparison("city", "==", cfg.city)
            & Comparison("building_type", "==", cfg.building_type)
        )
        result = QueryEngine(table).execute(query)
        self.log.record(
            "selection", "case_study",
            city=cfg.city, building_type=cfg.building_type,
            rows=result.n_rows, selectivity=round(result.selectivity, 4),
        )
        return result.table

    @_effectaudit.audited("analyze")
    def analyze(self, table: Table | None = None) -> AnalyticsOutcome:
        """Correlation check, clustering, discretization and rule mining."""
        cfg = self.config
        table = table if table is not None else self.select_case_study()
        start = time.perf_counter()
        deadline = self._stage_deadline()

        cache_key = None
        if self.cache is not None:
            cache_key = StageCache.key(
                "analyze",
                fingerprint_table(table),
                self._config_fingerprint(_ANALYZE_FIELDS),
            )
            found, cached = self._cache_get("analytics", cache_key)
            if found:
                elapsed = time.perf_counter() - start
                self.log.record(
                    "analytics", "stage_cache",
                    hit=True, key=cache_key,
                    elapsed_s=elapsed,
                    rows_per_s=(
                        table.n_rows / elapsed if elapsed > 0 else None
                    ),
                )
                self._analyzed = cached
                return cached

        correlation = correlation_matrix(table, list(cfg.features))
        self.log.record(
            "analytics", "correlation",
            max_abs_rho=round(correlation.max_abs_off_diagonal(), 4),
            eligible=correlation.is_eligible(cfg.correlation_threshold),
        )

        kmeans_start = time.perf_counter()
        matrix, __ = standardize(
            feature_matrix(table, cfg.features, self.executor)
        )
        clustering = kmeans_auto(
            matrix, cfg.k_range, seed=cfg.seed, n_init=cfg.kmeans_n_init
        )
        kmeans_elapsed = time.perf_counter() - kmeans_start
        self.log.record(
            "analytics", "kmeans",
            elapsed_s=kmeans_elapsed,
            rows_per_s=(
                table.n_rows / kmeans_elapsed if kmeans_elapsed > 0 else None
            ),
            chosen_k=clustering.chosen_k,
            sse=round(clustering.result.sse, 2),
        )
        cluster_values = np.array(
            [str(c) if c >= 0 else None for c in clustering.result.labels],
            dtype=object,
        )
        with_clusters = table.with_column(
            Column("cluster", ColumnKind.CATEGORICAL, cluster_values)
        )

        plan = {
            name: classes
            for name, classes in cfg.discretization_plan.items()
            if name in table
        }
        discretized, discretizations = discretize_table(
            with_clusters, plan, response=cfg.response
        )
        self.log.record(
            "analytics", "discretization",
            plan={k: v for k, v in plan.items()},
        )

        output_degraded = False
        if deadline.expired():
            # rule mining is the sheddable tail of the analytics stage;
            # clustering and correlation (which every dashboard panel
            # needs) always run
            rules: list[AssociationRule] = []
            output_degraded = True
            self.log.record(
                "analytics", "degradation",
                kind="deadline_exceeded",
                detail="stage budget spent; association-rule mining "
                "skipped (dashboards render an empty rules table)",
                budget_s=cfg.resilience.stage_timeout_s,
            )
        else:
            miner = RuleMiner(cfg.rule_constraints, cfg.rule_template)
            rule_attributes = [n for n in plan if n != cfg.response] + [cfg.response]
            rules = miner.mine(discretized, rule_attributes)
            self.log.record("analytics", "rules", mined=len(rules))

        outcome = AnalyticsOutcome(
            table=with_clusters,
            correlation=correlation,
            clustering=clustering,
            discretizations=discretizations,
            rules=rules,
        )
        elapsed = time.perf_counter() - start
        self.log.record(
            "analytics", "stage_complete",
            elapsed_s=elapsed,
            rows_per_s=table.n_rows / elapsed if elapsed > 0 else None,
            rows=table.n_rows,
        )
        if cache_key is not None and not output_degraded:
            self._cache_put("analytics", cache_key, outcome)
        self._analyzed = outcome
        return outcome

    # ------------------------------------------------------------------
    # Tier 3: data and knowledge visualization
    # ------------------------------------------------------------------

    def build_dashboard(
        self,
        stakeholder: Stakeholder,
        granularity: Granularity | None = None,
        analytics: AnalyticsOutcome | None = None,
    ) -> Dashboard:
        """An informative dashboard for *stakeholder* at *granularity*.

        All dashboards combine the energy maps with the distribution /
        correlation / rules panels the stakeholder profile recommends.
        """
        cfg = self.config
        analytics = analytics or self._require_analyzed()
        profile = profile_for(stakeholder)
        granularity = granularity or profile.default_granularity
        table = analytics.table
        hierarchy = self.collection.hierarchy

        builder = DashboardBuilder(
            f"INDICE — {cfg.city} energy overview "
            f"({stakeholder.value.replace('_', ' ')})",
            f"{table.n_rows} certificates of type {cfg.building_type}; "
            f"{granularity.name.lower()} granularity",
        )

        lat, lon = table["latitude"], table["longitude"]
        response = table[cfg.response]
        # the panels below do not depend on the stakeholder: each renders
        # once per outcome and argument set, and every dashboard reuses it
        shared_inputs = (cfg.response, fingerprint_value(hierarchy))

        def add_shared(key: tuple, add) -> None:
            builder.dashboard.add(
                analytics.panel(key + shared_inputs, lambda: _render_panel(add))
            )

        if granularity in (Granularity.CITY, Granularity.DISTRICT, Granularity.NEIGHBOURHOOD):
            level = granularity if granularity != Granularity.CITY else Granularity.DISTRICT
            region_column = (
                "district" if level is Granularity.DISTRICT else "neighbourhood"
            )
            means = analytics.region_means(
                region_column, cfg.response, self.executor
            )
            if granularity is Granularity.NEIGHBOURHOOD:
                # Figure 2 (upper): area averages with per-certificate markers
                add_shared(("choropleth_with_scatter_map", level), lambda b: b.add_map(
                    choropleth_with_scatter_map(
                        hierarchy, level, means, lat, lon, response, cfg.response,
                    ),
                    caption="Area averages (choropleth) with the scatter marker "
                            "of each single certificate on one shared scale.",
                ))
            else:
                add_shared(("choropleth_map", level), lambda b: b.add_map(
                    choropleth_map(hierarchy, level, means, cfg.response),
                    caption="Each area is colored by its average value "
                            "(choropleth energy map).",
                ))
        add_shared(("cluster_marker_map", granularity), lambda b: b.add_map(
            cluster_marker_map(
                lat, lon, response, cfg.response, granularity,
                hierarchy=hierarchy,
                cluster_labels=analytics.clustering.result.labels,
            ),
            caption="Marker size and inner label give the number of aggregated "
                    "certificates; fill encodes the mean response; stroke the "
                    "analytic cluster.",
        ))
        if granularity in (Granularity.NEIGHBOURHOOD, Granularity.UNIT):
            add_shared(("scatter_map",), lambda b: b.add_map(
                scatter_map(
                    lat, lon, response, cfg.response,
                    hierarchy=hierarchy, max_points=4000,
                ),
                caption="One point per certificate (housing-unit zoom).",
            ))

        add_shared(("histogram",), lambda b: b.add_grouped_histogram(
            analytics.response_histograms(cfg.response),
            cfg.response,
            caption="Response distribution inside each K-means cluster.",
        ))
        add_shared(("correlation",), lambda b: b.add_correlation_matrix(
            analytics.correlation,
            caption="Gray level encodes |Pearson rho|; a light matrix means the "
                    "feature set is eligible for clustering.",
        ))
        add_shared(("rules",), lambda b: b.add_rules_table(
            RuleMiner.top_k(analytics.rules, 15, by="lift"),
            caption="Top correlations as association rules "
                    "(support / confidence / lift / conviction).",
        ))
        attributes = tuple(cfg.features) + (cfg.response,)
        add_shared(("summary", attributes), lambda b: b.add_summary_table(
            analytics.summary(attributes),
            caption="Count, mean, standard deviation and quartiles of the "
                    "selected attributes.",
        ))
        if stakeholder is Stakeholder.ENERGY_SCIENTIST:
            # the expert's whiskers plot of the response with its outliers
            box = boxplot_outliers(response)
            builder.dashboard.add(
                Panel(
                    f"Boxplot of {cfg.response}",
                    "Whiskers plot with Tukey fences; red points are values "
                    "the graphic method would filter.",
                    boxplot_chart(box, response, cfg.response),
                    kind="frequency_distribution",
                )
            )
        if stakeholder is Stakeholder.PUBLIC_ADMINISTRATION and "certificate_year" in table:
            timeline = temporal_summary(table, response=cfg.response)
            builder.add_bar_chart(
                [(str(s.year), s.n_certificates) for s in timeline.slices],
                "certificate_year",
                caption="Certificates issued per year in the selection "
                        f"(mean {cfg.response} trend: "
                        f"{timeline.response_trend():+.1f}/year).",
            )

        self.log.record(
            "visualization", "dashboard",
            stakeholder=stakeholder.value, granularity=granularity.name,
            panels=len(builder.dashboard.panels),
        )
        return builder.build()

    def mine_rules_by_group(
        self,
        by: str,
        analytics: AnalyticsOutcome | None = None,
        min_group_size: int = 100,
    ) -> dict[str, list[AssociationRule]]:
        """Rules mined separately per group ("Rules can be extracted at
        different granularity levels, e.g., for each city, neighbourhood or
        downstream of the clustering algorithm" — Section 2.3).

        *by* is a categorical column of the analyzed table, typically
        ``"district"``, ``"neighbourhood"`` or ``"cluster"``.  Groups
        smaller than *min_group_size* are skipped (their supports would be
        meaningless).
        """
        cfg = self.config
        analytics = analytics or self._require_analyzed()
        plan = {
            name: classes
            for name, classes in cfg.discretization_plan.items()
            if name in analytics.table
        }
        miner = RuleMiner(cfg.rule_constraints, cfg.rule_template)
        attributes = [n for n in plan if n != cfg.response] + [cfg.response]
        out: dict[str, list[AssociationRule]] = {}
        for key, group in analytics.table.group_by(by).items():
            if key is None or group.n_rows < min_group_size:
                continue
            discretized, __ = discretize_table(group, plan, response=cfg.response)
            out[str(key)] = miner.mine(discretized, attributes)
            self.log.record(
                "analytics", "rules_by_group",
                group=str(key), rows=group.n_rows, mined=len(out[str(key)]),
            )
        return out

    def build_navigable_dashboard(
        self,
        stakeholder: Stakeholder,
        granularities: tuple[Granularity, ...] = (
            Granularity.CITY,
            Granularity.DISTRICT,
            Granularity.NEIGHBOURHOOD,
            Granularity.UNIT,
        ),
        analytics: AnalyticsOutcome | None = None,
    ) -> NavigableDashboard:
        """The paper's navigable dashboard: one tab per zoom level.

        Each tab holds the full stakeholder dashboard rendered at that
        granularity; switching tabs is the drill-down of Section 2.3.
        """
        analytics = analytics or self._require_analyzed()
        nav = NavigableDashboard(
            title=f"INDICE — {self.config.city} navigable energy maps "
                  f"({stakeholder.value.replace('_', ' ')})",
            subtitle="Switch tabs to change the analysis zoom "
                     "(city → district → neighbourhood → housing unit).",
        )
        for granularity in granularities:
            dash = self.build_dashboard(stakeholder, granularity, analytics)
            nav.add_tab(granularity.name.title(), dash)
        return nav

    # ------------------------------------------------------------------

    def run(
        self,
        stakeholder: Stakeholder = Stakeholder.PUBLIC_ADMINISTRATION,
        granularity: Granularity | None = None,
    ) -> Dashboard:
        """The full pipeline: preprocess -> select -> analyze -> dashboard."""
        self.preprocess()
        self.analyze()
        return self.build_dashboard(stakeholder, granularity)

    @staticmethod
    def _scatter_cleaned(table: Table, cleaned_city: Table, city_rows: np.ndarray) -> Table:
        """Write the cleaned city rows back into the full table (the
        geospatial attributes only; everything else is untouched)."""
        out = table
        for name in ("address", "house_number", "zip_code", "latitude", "longitude"):
            column = table.column(name)
            values = column.values.copy()
            values[city_rows] = cleaned_city[name]
            out = out.with_column(Column(name, column.kind, values))
        return out.select(table.column_names)

    def analysis_version(self) -> str:
        """Content-addressed version of the current analyzed outcome.

        The serving tier keys its immutable artifact store on this: the
        same (analyzed table, analytics config) always yields the same
        version, so pre-rendered artifacts can be reused across restarts,
        while any change that could alter a dashboard re-keys the store —
        which is what makes a graceful reload safe to skip when nothing
        actually changed.  Raises like :meth:`_require_analyzed` when the
        session has not been analyzed yet.
        """
        outcome = self._require_analyzed()
        return fingerprint_value(
            {
                "table": fingerprint_table(outcome.table),
                "analytics_config": self._config_fingerprint(_ANALYZE_FIELDS),
                "n_rules": len(outcome.rules),
            }
        )[:16]

    def _require_preprocessed(self) -> PreprocessingOutcome:
        if self._preprocessed is None:
            raise RuntimeError("call preprocess() first")
        return self._preprocessed

    def _require_analyzed(self) -> AnalyticsOutcome:
        if self._analyzed is None:
            raise RuntimeError("call analyze() first")
        return self._analyzed
