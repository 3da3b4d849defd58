"""``repro.checks`` — an AST-based project analyzer for the pipeline.

The reproduction's value rests on contracts that code review alone
cannot hold: every analytic stage is **deterministic** (seeded,
replayable — the paper's INDICE pipeline end-to-end), every failure
either recovers **bit-identically or logs a degradation**, and — because
the pipeline is a fixed chain of stages — the **cross-module contracts**
hold: columns flow schema → stages → dashboards and the module graph
stays acyclic.  (That stage-cache fingerprints cover exactly the config
fields that affect outcomes, and that the CLI flags match the config, is
structural: each ``IndiceConfig`` field declares its stages and flag
once, see :mod:`repro.core.config`.  So is the release of spill maps:
they release only through ``with``, see :mod:`repro.perf.spill`.  So
are fork safety and fault sites: :class:`~repro.perf.parallel.ParallelMap`
owns worker state and rejects callables that do not pickle, and
:meth:`~repro.faults.plan.FaultInjector.arrive` rejects a site outside
``KNOWN_SITES``.)
This package walks the project's own AST, one parse per file in a
single in-memory pass, and fails the build when any of them drifts:

=========  ===========================  =========================================
code       name                         contract
=========  ===========================  =========================================
DET001     unseeded-rng                 determinism: no hidden global RNG state
DET002     wall-clock                   determinism: no entropy/clock/env inputs
DET003     unordered-iteration          determinism: no hash-order in outputs
EXC001     silent-broad-except          faults: recover loudly or re-raise
MUT001     mutable-default              determinism: no cross-call shared state
FLOAT001   float-equality               analytics: no exact float comparison
COL001     column-read-without-producer lineage: every read column has a producer
COL002     column-dead-write            lineage: every produced column is read
COL003     spec-references-unknown-col  lineage: specs only name schema columns
IMP001     import-cycle                 architecture: the module graph is a DAG
LOCK003    inconsistent-guard           concurrency: attributes written under a
                                        class's lock are never written bare
=========  ===========================  =========================================

Lock order is structural rather than policed: the serving tier never
holds a lock across a render or inside another lock (single-flight
renders claim a key in an in-flight map and render with no lock held,
see :mod:`repro.serving.store`), so only the per-class guard rule
(LOCK003) remains.  Ambient inputs are flagged where they are
read: DET002 covers ``os.environ`` / ``os.getenv`` / ``os.putenv`` next
to the clock and entropy calls.  Runtime code imports nothing from this
package.

Run it with ``python -m repro.checks src/repro`` (or ``repro check``);
suppress an intentional site with ``# repro: noqa[RULE] — justification``.
Exit codes distinguish findings (1) from analyzer errors (2).
"""

from .checker import Checker, CheckResult, check_tree, collect_python_files
from .cli import main
from .model import Finding, Rule, SourceFile, all_rules, register, rule_codes
from .pragmas import PragmaIndex, parse_pragmas
from .project import FileSummary, ProjectIndex, extract_facts, module_name_for

__all__ = [
    "Checker",
    "CheckResult",
    "FileSummary",
    "Finding",
    "PragmaIndex",
    "ProjectIndex",
    "Rule",
    "SourceFile",
    "all_rules",
    "check_tree",
    "collect_python_files",
    "extract_facts",
    "main",
    "module_name_for",
    "parse_pragmas",
    "register",
    "rule_codes",
]
