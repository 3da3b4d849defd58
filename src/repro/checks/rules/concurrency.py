"""Concurrency contract rules: lock ordering, guard coverage, blocking.

Three rules over :class:`~repro.checks.concurrency.ConcurrencyModel`, the
cross-module aggregate of the per-file lock facts (so a warm incremental
run pays nothing beyond a dict merge):

* **LOCK002** — lock-order cycles.  The model joins every observed
  nested acquisition (``with a:`` … ``with b:`` plus ``.acquire()``
  regions) into one global order graph, interprocedural one call deep
  (calls made under a lock are resolved through the import bindings to
  the callee's top-level acquisitions).  Tarjan SCCs of size > 1 — and
  self-edges on non-reentrant primitives — are deadlocks waiting for the
  right interleaving.
* **LOCK003** — inconsistent guard.  If an attribute is mutated under a
  lock anywhere, that lock is its inferred *majority guard*; a bare
  mutation of the same attribute from a thread-reachable class (one that
  owns locks or spawns ``threading.Thread`` — the serving pool workers,
  ``ParallelMap`` initializers and explicit thread targets all land
  there) is a race.  ``__init__``/``__post_init__`` writes are exempt:
  no second thread can hold the instance yet.
* **LOCK004** — blocking call under lock.  ``sleep``/socket/file-IO/
  HTTP-wait/``render*`` calls inside an acquisition region serialize
  every sibling on IO latency.  Waiting on the held primitive itself
  (the ``Condition.wait`` protocol) is exempt; the intentional
  single-flight coalescing render is sanctioned via a justified
  ``# repro: noqa[LOCK004]`` pragma rather than silently allowlisted.

Acquire/release *balance* is not a rule: the shared-memory and spill
resources release only through ``with``, the single-flight lock is a
``with`` region, and the one timed admission acquire
(``ArtifactServer.respond``) releases in its ``finally`` — pinned by the
exit-path matrix in ``tests/test_serving_concurrency.py``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from ..concurrency import ConcurrencyModel
from ..model import Finding, Rule, register

if TYPE_CHECKING:  # pragma: no cover — import cycle guard, types only
    from ..project import ProjectIndex

__all__ = [
    "LockOrderCycle",
    "InconsistentGuard",
    "BlockingCallUnderLock",
]


def _short(gid: str) -> str:
    """``module:Class.attr`` → ``Class.attr`` for message brevity."""
    return gid.partition(":")[2] or gid


@register
class LockOrderCycle(Rule):
    """LOCK002 — a cycle in the cross-module lock acquisition order."""

    code = "LOCK002"
    name = "lock-order-cycle"
    rationale = (
        "two code paths acquiring the same locks in opposite orders "
        "deadlock under the right interleaving; the acquisition graph "
        "(nested with/.acquire() regions, one call deep across modules) "
        "must stay acyclic, and non-reentrant locks must never be "
        "re-acquired while held"
    )

    def check_index(self, index: "ProjectIndex") -> Iterator[Finding]:
        """One finding per SCC (or non-reentrant self-edge), first site."""
        model = ConcurrencyModel.of(index)
        for cycle in model.order_cycles():
            ring = cycle["ring"]
            if len(ring) == 1:
                message = (
                    f"non-reentrant lock '{_short(ring[0])}' is acquired "
                    "while already held on this path; a Lock (unlike an "
                    "RLock) self-deadlocks on re-acquisition"
                )
            else:
                # drop the module prefix only when the whole ring shares it
                modules = {gid.partition(":")[0] for gid in ring}
                label = _short if len(modules) == 1 else (lambda gid: gid)
                shown = " -> ".join(label(gid) for gid in ring + ring[:1])
                message = (
                    f"lock-order cycle {shown}: paths acquire these locks "
                    "in conflicting orders and can deadlock; pick one "
                    "global order and restructure the inner acquisition"
                )
            yield Finding(
                cycle["display"], cycle["lineno"], cycle["col"],
                self.code, message,
            )


@register
class InconsistentGuard(Rule):
    """LOCK003 — an attribute mutated both under and outside its lock."""

    code = "LOCK003"
    name = "inconsistent-guard"
    rationale = (
        "an attribute mutated under a lock on some paths and bare on "
        "others is only protected on the slow path; the bare write races "
        "with every locked reader once worker threads (serving pool, "
        "ParallelMap initializers, threading.Thread targets) touch the "
        "instance"
    )

    def check_index(self, index: "ProjectIndex") -> Iterator[Finding]:
        """Flag bare writes to attributes that have a majority lock."""
        model = ConcurrencyModel.of(index)
        for violation in model.guard_violations():
            yield Finding(
                violation["display"], violation["lineno"], violation["col"],
                self.code,
                f"attribute '{_short(violation['attr'])}' is written "
                f"{violation['n_guarded']}x under lock "
                f"'{_short(violation['lock'])}' but bare in "
                f"{violation['qual']}; guard every mutation with the same "
                "lock (or document why this write cannot race)",
            )


@register
class BlockingCallUnderLock(Rule):
    """LOCK004 — sleep/IO/socket/render call inside an acquisition region."""

    code = "LOCK004"
    name = "blocking-call-under-lock"
    rationale = (
        "a blocking call (sleep, socket op, file IO, render) while "
        "holding a lock serializes every thread contending for it on IO "
        "latency — the admission semaphore and single-flight locks exist "
        "to bound concurrency, not to queue it behind the disk; move the "
        "blocking work outside the region, or sanction an intentional "
        "coalescing render with '# repro: noqa[LOCK004]' and a reason"
    )

    def check_index(self, index: "ProjectIndex") -> Iterator[Finding]:
        """Every blocking-call-under-lock fact becomes a finding."""
        model = ConcurrencyModel.of(index)
        for holder, what, display, lineno, col in sorted(
            model.blocking, key=lambda site: (site[2], site[3], site[4])
        ):
            yield Finding(
                display, lineno, col, self.code,
                f"blocking call {what} while holding lock "
                f"'{_short(holder)}'; every contender queues behind this "
                "IO — hoist it out of the locked region",
            )
