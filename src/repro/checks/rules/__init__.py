"""The rule set — importing this package registers every rule.

Modules group rules by the contract they defend:

* :mod:`.determinism` — DET001 (unseeded RNG), DET002 (wall clock /
  entropy), DET003 (unordered iteration escaping into results);
* :mod:`.contracts` — FAULT001 (fault-site registry/hook parity);
* :mod:`.crossmodule` — COL001/COL002/COL003 (column lineage),
  PAR001/PAR002 (ParallelMap fork-safety), IMP001 (import cycles);
* :mod:`.hygiene` — EXC001 (silent broad except), MUT001 (mutable
  defaults), FLOAT001 (float equality);
* :mod:`.concurrency` — LOCK002 (lock-order cycle), LOCK003
  (inconsistent guard), LOCK004 (blocking call under lock);
* :mod:`.effects` — CACHE002 (un-fingerprinted cache read), DET004
  (tainted serialized sink), FAULT002 (non-idempotent retry), PURE001
  (impure cross-module worker), all over the interprocedural
  :class:`~repro.checks.effects.EffectModel`.
"""

from . import (
    concurrency,
    contracts,
    crossmodule,
    determinism,
    effects,
    hygiene,
)

__all__ = [
    "concurrency",
    "contracts",
    "crossmodule",
    "determinism",
    "effects",
    "hygiene",
]
