"""Configuration of an INDICE analysis run.

One object gathers every knob of the three tiers (pre-processing, data
selection & analytics, visualization), with defaults reproducing the
paper's Section 3 case study: Turin, housing units of type E.1.1, the five
thermo-physical features, EP_H as response, MAD outlier filtering with the
3.5 cut-off, elbow-selected K in [2, 10], footnote-4 discretization plan
and the default rule-quality thresholds.

Every field declares its role once, through :func:`knob`:

* ``stages`` — the stages whose cache key the field feeds
  (:data:`PREPROCESS`, :data:`ANALYZE`, both, or none for the perf and
  resilience knobs, which change how fast or how robustly a result
  arrives, never what it is).  :data:`PREPROCESS_FIELDS` and
  :data:`ANALYZE_FIELDS` are derived from these tags, and a field without
  a tag fails at import (:func:`stage_tagged`), so no field can silently
  escape the stage-cache fingerprints.
* ``flag`` — for the knobs exposed on the command line, the flag name
  plus its argparse keyword arguments; the CLI generates its options from
  these (:data:`CLI_FIELDS`), with the field name as destination and the
  field default as default.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields

from ..dataset.schema import PAPER_CLUSTERING_FEATURES, PAPER_RESPONSE
from ..faults.policy import ResiliencePolicy
from ..preprocessing.address_cleaner import CleaningConfig
from ..preprocessing.outliers import OutlierMethod
from ..analytics.rules import RuleConstraints, RuleTemplate

__all__ = [
    "IndiceConfig",
    "DEFAULT_DISCRETIZATION_PLAN",
    "PREPROCESS_FIELDS",
    "ANALYZE_FIELDS",
    "CLI_FIELDS",
    "knob",
    "stage_tagged",
]

#: Footnote 4: U_w -> 4 classes, U_o -> 3 classes, ETAH -> 3 classes; the
#: response is discretized into 3 classes so it can appear in rules.
DEFAULT_DISCRETIZATION_PLAN = {
    "u_value_windows": 4,
    "u_value_opaque": 3,
    "eta_h": 3,
    PAPER_RESPONSE: 3,
}

#: The cached stages a config field can feed.
PREPROCESS = "preprocess"
ANALYZE = "analyze"
_BOTH = (PREPROCESS, ANALYZE)


def knob(
    default=MISSING,
    *,
    stages: tuple[str, ...],
    factory=MISSING,
    flag: str | None = None,
    **cli,
):
    """A config field tagged with the *stages* whose cache key it feeds.

    *flag* (with argparse keyword arguments *cli*) exposes the field on
    the command line.
    """
    unknown = set(stages) - set(_BOTH)
    if unknown:
        raise ValueError(f"unknown stage(s) {sorted(unknown)}")
    metadata = {"stages": frozenset(stages)}
    if flag is not None:
        metadata["cli"] = (flag, cli)
    return field(default=default, default_factory=factory, metadata=metadata)


def stage_tagged(cls):
    """Class decorator: reject a dataclass with a field :func:`knob` did not tag."""
    untagged = [f.name for f in fields(cls) if "stages" not in f.metadata]
    if untagged:
        raise TypeError(
            f"{cls.__name__} field(s) {', '.join(untagged)} declare no "
            "stages; use knob(..., stages=...) so the stage-cache "
            "fingerprints cover them (stages=() for outcome-neutral knobs)"
        )
    return cls


@stage_tagged
@dataclass(slots=True)
class IndiceConfig:
    """All tunables of one analysis run (paper defaults)."""

    # -- selection (Section 3 case study) --
    city: str = knob("Turin", stages=_BOTH)
    building_type: str = knob("E.1.1", stages=(ANALYZE,))
    features: tuple[str, ...] = knob(PAPER_CLUSTERING_FEATURES, stages=_BOTH)
    response: str = knob(PAPER_RESPONSE, stages=_BOTH)

    # -- pre-processing --
    cleaning: CleaningConfig = knob(factory=CleaningConfig, stages=(PREPROCESS,))
    geocoder_quota: int = knob(2500, stages=(PREPROCESS,))
    outlier_method: OutlierMethod = knob(OutlierMethod.MAD, stages=(PREPROCESS,))
    outlier_params: dict = knob(factory=dict, stages=(PREPROCESS,))
    #: Per-attribute overrides of the global method, e.g. the stored
    #: expert choices of Section 2.1.2: {"eta_h": (OutlierMethod.GESD,
    #: {"alpha": 0.01})}.
    outlier_overrides: dict = knob(factory=dict, stages=(PREPROCESS,))
    run_multivariate_outliers: bool = knob(True, stages=(PREPROCESS,))

    # -- analytics --
    k_range: tuple[int, int] = knob((2, 10), stages=(ANALYZE,))
    kmeans_n_init: int = knob(5, stages=(ANALYZE,))
    seed: int = knob(0, stages=(ANALYZE,))
    discretization_plan: dict = knob(
        factory=lambda: dict(DEFAULT_DISCRETIZATION_PLAN), stages=(ANALYZE,)
    )
    rule_constraints: RuleConstraints = knob(
        factory=RuleConstraints, stages=(ANALYZE,)
    )
    rule_template: RuleTemplate | None = knob(None, stages=(ANALYZE,))
    correlation_threshold: float = knob(0.5, stages=(ANALYZE,))

    # -- performance (never changes results, only how fast they arrive) --
    #: Worker processes for the parallelizable stages (1 = serial,
    #: 0 / negative = all cores).
    n_jobs: int = knob(
        1, stages=(), flag="--jobs", type=int, metavar="N",
        help="worker processes for the parallel stages "
             "(1 = serial, 0 = all cores; default: 1)",
    )
    #: Memoize whole preprocess() / analyze() outcomes on content hashes.
    stage_cache: bool = knob(
        True, stages=(), flag="--no-cache", action="store_false",
        help="disable the content-hash stage cache (always recompute)",
    )
    #: Optional directory persisting stage-cache entries across processes.
    cache_dir: str | None = knob(
        None, stages=(), flag="--cache-dir", metavar="DIR",
        help="persist stage-cache entries under DIR (reused across runs)",
    )
    #: Directory for the per-shard columnar spill files (``None`` = a
    #: temporary directory, removed when the run has merged its shards).
    spill_dir: str | None = knob(
        None, stages=(), flag="--spill-dir", metavar="DIR",
        help="keep the per-shard columnar spill files under DIR (with "
             "--cache-dir this makes warm runs skip unchanged shards; "
             "default: a temporary directory removed after the merge)",
    )

    # -- resilience (how failures are absorbed; never changes a successful
    # run's results, so excluded from stage-cache fingerprints like the
    # perf knobs) --
    resilience: ResiliencePolicy = knob(factory=ResiliencePolicy, stages=())

    def __post_init__(self):
        if self.rule_template is None:
            # default template: explain the response variable
            self.rule_template = RuleTemplate(consequent_attributes=(self.response,))
        if self.response in self.features:
            raise ValueError("the response variable cannot be a clustering feature")


#: Config fields the preprocessing outcome depends on.  Stage-cache keys
#: fingerprint only these, so changing an analytics knob (e.g. ``k_range``)
#: never invalidates a cached preprocessing result — and vice versa.
PREPROCESS_FIELDS = tuple(
    f.name for f in fields(IndiceConfig) if PREPROCESS in f.metadata["stages"]
)
#: Config fields the analytics outcome depends on.
ANALYZE_FIELDS = tuple(
    f.name for f in fields(IndiceConfig) if ANALYZE in f.metadata["stages"]
)
#: The fields exposed as command-line flags (``metadata["cli"]`` holds the
#: flag and its argparse keyword arguments).
CLI_FIELDS = tuple(f for f in fields(IndiceConfig) if "cli" in f.metadata)
