"""Configuration of an INDICE analysis run.

One object gathers every knob of the three tiers (pre-processing, data
selection & analytics, visualization), with defaults reproducing the
paper's Section 3 case study: Turin, housing units of type E.1.1, the five
thermo-physical features, EP_H as response, MAD outlier filtering with the
3.5 cut-off, elbow-selected K in [2, 10], footnote-4 discretization plan
and the default rule-quality thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..dataset.schema import PAPER_CLUSTERING_FEATURES, PAPER_RESPONSE
from ..faults.policy import ResiliencePolicy
from ..preprocessing.address_cleaner import CleaningConfig
from ..preprocessing.outliers import OutlierMethod
from ..analytics.rules import RuleConstraints, RuleTemplate

__all__ = ["IndiceConfig", "DEFAULT_DISCRETIZATION_PLAN"]

#: Footnote 4: U_w -> 4 classes, U_o -> 3 classes, ETAH -> 3 classes; the
#: response is discretized into 3 classes so it can appear in rules.
DEFAULT_DISCRETIZATION_PLAN = {
    "u_value_windows": 4,
    "u_value_opaque": 3,
    "eta_h": 3,
    PAPER_RESPONSE: 3,
}


@dataclass
class IndiceConfig:
    """All tunables of one analysis run (paper defaults)."""

    # -- selection (Section 3 case study) --
    city: str = "Turin"
    building_type: str = "E.1.1"
    features: tuple[str, ...] = PAPER_CLUSTERING_FEATURES
    response: str = PAPER_RESPONSE

    # -- pre-processing --
    cleaning: CleaningConfig = field(default_factory=CleaningConfig)
    geocoder_quota: int = 2500
    outlier_method: OutlierMethod = OutlierMethod.MAD
    outlier_params: dict = field(default_factory=dict)
    #: Per-attribute overrides of the global method, e.g. the stored
    #: expert choices of Section 2.1.2: {"eta_h": (OutlierMethod.GESD,
    #: {"alpha": 0.01})}.
    outlier_overrides: dict = field(default_factory=dict)
    run_multivariate_outliers: bool = True

    # -- analytics --
    k_range: tuple[int, int] = (2, 10)
    kmeans_n_init: int = 5
    seed: int = 0
    discretization_plan: dict = field(
        default_factory=lambda: dict(DEFAULT_DISCRETIZATION_PLAN)
    )
    rule_constraints: RuleConstraints = field(default_factory=RuleConstraints)
    rule_template: RuleTemplate | None = None
    correlation_threshold: float = 0.5

    # -- performance (never changes results, only how fast they arrive) --
    #: Worker processes for the parallelizable stages (1 = serial,
    #: 0 / negative = all cores).
    n_jobs: int = 1
    #: Memoize whole preprocess() / analyze() outcomes on content hashes.
    stage_cache: bool = True
    #: Optional directory persisting stage-cache entries across processes.
    cache_dir: str | None = None
    #: Shard scheme for :meth:`Indice.run_sharded` via the CLI:
    #: ``"by-district"``, ``"by-zip"`` or a shard count (as a string).
    #: ``None`` (the default) keeps the monolithic path.  Sharding never
    #: changes results — the merged output is bit-identical to the
    #: monolithic serial pipeline — so this is a perf-only knob.
    shards: str | None = None
    #: Directory for the per-shard columnar spill files (``None`` = a
    #: temporary directory per run).
    spill_dir: str | None = None

    # -- resilience (how failures are absorbed; never changes a successful
    # run's results, so excluded from stage-cache fingerprints like the
    # perf knobs) --
    resilience: ResiliencePolicy = field(default_factory=ResiliencePolicy)

    def __post_init__(self):
        if self.rule_template is None:
            # default template: explain the response variable
            self.rule_template = RuleTemplate(consequent_attributes=(self.response,))
        if self.response in self.features:
            raise ValueError("the response variable cannot be a clustering feature")
