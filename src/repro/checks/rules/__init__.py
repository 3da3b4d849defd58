"""The rule set — importing this package registers every rule.

Modules group rules by the contract they defend:

* :mod:`.determinism` — DET001 (unseeded RNG), DET002 (wall clock /
  entropy), DET003 (unordered iteration escaping into results);
* :mod:`.contracts` — FAULT001 (fault-site registry/hook parity);
* :mod:`.crossmodule` — COL001/COL002/COL003 (column lineage),
  PAR001/PAR002 (ParallelMap fork-safety), IMP001 (import cycles);
* :mod:`.hygiene` — EXC001 (silent broad except), MUT001 (mutable
  defaults), FLOAT001 (float equality), LOCK003 (an attribute written
  both under its class's lock and bare).

Lock order and cache soundness are structural rather than policed: the
serving tier never holds a lock across a render or inside another lock
(see :mod:`repro.serving.store`), and an ambient environment read is a
DET002 finding at its read site.
"""

from . import (
    contracts,
    crossmodule,
    determinism,
    hygiene,
)

__all__ = [
    "contracts",
    "crossmodule",
    "determinism",
    "hygiene",
]
