"""The rule set — importing this package registers every rule.

Modules group rules by the contract they defend:

* :mod:`.determinism` — DET001 (unseeded RNG), DET002 (wall clock /
  entropy), DET003 (unordered iteration escaping into results);
* :mod:`.crossmodule` — COL001/COL002/COL003 (column lineage), IMP001
  (import cycles);
* :mod:`.hygiene` — EXC001 (silent broad except), MUT001 (mutable
  defaults), FLOAT001 (float equality), LOCK003 (an attribute written
  both under its class's lock and bare).

Lock order, cache soundness, fork safety and fault sites are structural
rather than policed: the serving tier never holds a lock across a render
or inside another lock (see :mod:`repro.serving.store`), an ambient
environment read is a DET002 finding at its read site,
:class:`~repro.perf.parallel.ParallelMap` owns its workers' state and
rejects callables that do not pickle, and
:meth:`~repro.faults.plan.FaultInjector.arrive` rejects an unknown site.
"""

from . import (
    crossmodule,
    determinism,
    hygiene,
)

__all__ = [
    "crossmodule",
    "determinism",
    "hygiene",
]
