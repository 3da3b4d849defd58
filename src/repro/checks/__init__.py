"""``repro.checks`` — an AST-based project analyzer for the pipeline.

The reproduction's value rests on contracts that code review alone
cannot hold: every analytic stage is **deterministic** (seeded,
replayable — the paper's INDICE pipeline end-to-end), every failure
either recovers **bit-identically or logs a degradation**, and — because
the pipeline is a fixed chain of stages — the **cross-module contracts**
hold: columns flow schema → stages → dashboards, state crosses the
``ParallelMap`` process boundary only via ``initializer``/``initargs``,
and the module graph stays acyclic.  (That stage-cache fingerprints
cover exactly the config fields that affect outcomes, and that the CLI
flags match the config, is structural: each ``IndiceConfig`` field
declares its stages and flag once, see :mod:`repro.core.config`.  So
is the release of shared memory and spill maps: they release only
through ``with``, see :mod:`repro.perf.shm` and :mod:`repro.perf.spill`.)
This package walks the project's own AST (with a content-hash
incremental cache, see :mod:`.cache`) and fails the build when any of
them drifts:

=========  ===========================  =========================================
code       name                         contract
=========  ===========================  =========================================
DET001     unseeded-rng                 determinism: no hidden global RNG state
DET002     wall-clock                   determinism: no entropy/wall-clock inputs
DET003     unordered-iteration          determinism: no hash-order in outputs
FAULT001   fault-site-parity            faults: registered sites <-> inject hooks
EXC001     silent-broad-except          faults: recover loudly or re-raise
MUT001     mutable-default              determinism: no cross-call shared state
FLOAT001   float-equality               analytics: no exact float comparison
COL001     column-read-without-producer lineage: every read column has a producer
COL002     column-dead-write            lineage: every produced column is read
COL003     spec-references-unknown-col  lineage: specs only name schema columns
PAR001     unpicklable-or-stale-capture fork-safety: workers pickle cleanly and
                                        receive state via initializer/initargs
PAR002     worker-side-mutation         fork-safety: workers return, never write
IMP001     import-cycle                 architecture: the module graph is a DAG
LOCK002    lock-order-cycle             concurrency: the cross-module lock graph
                                        is acyclic (no ABBA deadlock)
LOCK003    inconsistent-guard           concurrency: attributes mutated under a
                                        lock are never mutated outside it
LOCK004    blocking-call-under-lock     concurrency: no IO/sleep/render while
                                        holding a lock (latency convoy)
CACHE002   unfingerprinted-cache-read   effects: a cached stage or render never
                                        reads state its key did not fingerprint
DET004     tainted-serialized-sink      effects: no clock/RNG/set-order taint
                                        reaches a serialized sink interprocedurally
FAULT002   non-idempotent-retry         effects: retried callables are replay-safe
                                        (no appends or global writes)
PURE001    impure-worker                effects: pool workers return values, never
                                        write state across a module boundary
=========  ===========================  =========================================

The static story has a dynamic twin: :mod:`.lockdep` wraps the serving
tier's real locks (``REPRO_SANITIZE_LOCKS=1`` or ``repro serve
--sanitize-locks``) and raises on the first *attempted* lock-order
inversion or fork-while-held at runtime — the observed order graph
cross-checks what LOCK002 proved statically.  The effect rules have the
same twin: :mod:`.effectaudit` (``REPRO_AUDIT_EFFECTS=1`` or ``repro run
--audit-effects``) records every ambient read inside the cached-stage
and render regions, raises on the first un-fingerprinted ``os.environ``
read, and the recorded sets are asserted to be a subset of what the
:class:`~repro.checks.effects.EffectModel` summarized statically.

Run it with ``python -m repro.checks src/repro`` (or ``repro check``);
suppress an intentional site with ``# repro: noqa[RULE] — justification``.
Exit codes distinguish findings (1) from analyzer errors (2).
"""

from .baseline import Baseline
from .cache import AnalysisCache, analysis_fingerprint
from .checker import Checker, CheckResult, check_tree, collect_python_files
from .cli import main
from .concurrency import ConcurrencyModel, extract_concurrency
from .effectaudit import EffectAudit, EffectAuditError
from .effects import EffectModel, extract_effects
from .lockdep import LockDep, LockOrderError, SanitizedLock
from .model import Finding, Rule, SourceFile, all_rules, register, rule_codes
from .pragmas import PragmaIndex, parse_pragmas
from .project import FileSummary, ProjectIndex, extract_facts, module_name_for
from .sarif import to_sarif

__all__ = [
    "AnalysisCache",
    "Baseline",
    "Checker",
    "CheckResult",
    "ConcurrencyModel",
    "EffectAudit",
    "EffectAuditError",
    "EffectModel",
    "FileSummary",
    "Finding",
    "LockDep",
    "LockOrderError",
    "SanitizedLock",
    "PragmaIndex",
    "ProjectIndex",
    "Rule",
    "SourceFile",
    "all_rules",
    "analysis_fingerprint",
    "check_tree",
    "collect_python_files",
    "extract_concurrency",
    "extract_effects",
    "extract_facts",
    "main",
    "module_name_for",
    "parse_pragmas",
    "register",
    "rule_codes",
    "to_sarif",
]
