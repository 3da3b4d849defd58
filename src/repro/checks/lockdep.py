"""Runtime lock-order sanitizer — the dynamic half of the LOCK rules.

The static rules (LOCK002–LOCK004) prove ordering over the
*code*; this module proves it over an actual *run*.  A
:class:`SanitizedLock` wraps any lock-like primitive and reports every
acquisition to a shared :class:`LockDep`, which keeps a per-thread stack
of held locks and folds each (held → acquiring) pair into an observed
order graph.  An acquisition that would close a cycle in that graph — a
lock-order inversion, the dynamic shadow of LOCK002 — raises
:class:`LockOrderError` at the acquisition site, deterministically, on
the *first* inverted attempt: no need for the unlucky interleaving that
turns the inversion into a real deadlock.  Forking while any sanitized
lock is held is recorded too (the child inherits a lock nobody will ever
release); ``os.register_at_fork`` swallows hook exceptions, so fork
violations land in :attr:`LockDep.violations` for the harness to assert
on rather than propagating.

Everything is opt-in: production constructs plain primitives unless the
``REPRO_SANITIZE_LOCKS`` environment flag (or ``repro serve
--sanitize-locks``, which sets it) is on, so the serving hot path pays
nothing by default.  The concurrency tests run their bursts under an
explicit :class:`LockDep` instance and assert the run was silent —
turning the A14-style load tests into a dynamic race detector.
"""

from __future__ import annotations

import os
import threading

__all__ = [
    "ENV_FLAG",
    "LockDep",
    "LockOrderError",
    "SanitizedLock",
    "enabled",
    "resolve",
    "wrap",
]

#: Environment flag that arms the shared default sanitizer.
ENV_FLAG = "REPRO_SANITIZE_LOCKS"


def enabled() -> bool:
    """True when the environment opts into lock sanitizing."""
    return os.environ.get(ENV_FLAG, "") not in ("", "0")


class LockOrderError(RuntimeError):
    """An acquisition that inverts the observed lock order."""


class LockDep:
    """Observed lock-order graph + per-thread held stacks.

    One instance is shared by every :class:`SanitizedLock` it watches;
    all graph state is guarded by its own internal lock (which is a
    plain primitive — the watcher does not watch itself).
    """

    def __init__(self, name: str = "lockdep"):
        self.name = name
        self._graph_lock = threading.Lock()
        #: observed order edges: ``outer name -> set of inner names``.
        self.order: dict[str, set[str]] = {}
        #: ``(outer, inner)`` pairs in first-observed order (stable).
        self.edges: list[tuple[str, str]] = []
        #: violations recorded instead of raised (fork-while-held).
        self.violations: list[str] = []
        self.n_acquires = 0
        self._local = threading.local()
        self._fork_armed = False

    # -- per-thread stack ----------------------------------------------------

    def _stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def held(self) -> tuple[str, ...]:
        """Names of sanitized locks the calling thread holds, outermost first."""
        return tuple(self._stack())

    # -- acquisition protocol ------------------------------------------------

    def _reaches(self, start: str, goal: str) -> bool:
        """Is *goal* reachable from *start* in the observed order graph?"""
        seen = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            if node == goal:
                return True
            for nxt in self.order.get(node, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return False

    def before_acquire(self, name: str) -> None:
        """Record intent; raise if the edge would invert the order."""
        stack = self._stack()
        if not stack:
            return
        with self._graph_lock:
            for outer in stack:
                if outer == name:
                    continue  # re-entrant wrappers police themselves
                if self._reaches(name, outer):
                    chain = " -> ".join(stack + [name])
                    raise LockOrderError(
                        f"[{self.name}] lock-order inversion acquiring "
                        f"'{name}' while holding {chain!r}: the observed "
                        f"order already requires '{name}' before '{outer}'"
                    )
                if name not in self.order.get(outer, ()):
                    self.order.setdefault(outer, set()).add(name)
                    self.edges.append((outer, name))

    def after_acquire(self, name: str) -> None:
        """The acquisition succeeded: push it on this thread's stack."""
        self._stack().append(name)
        with self._graph_lock:
            self.n_acquires += 1

    def after_release(self, name: str) -> None:
        """Pop the most recent holding of *name* (release order is free)."""
        stack = self._stack()
        for position in range(len(stack) - 1, -1, -1):
            if stack[position] == name:
                del stack[position]
                return

    # -- fork safety ---------------------------------------------------------

    def arm_fork_check(self) -> None:
        """Record a violation if this thread ever forks while holding."""
        if self._fork_armed or not hasattr(os, "register_at_fork"):
            return
        self._fork_armed = True
        os.register_at_fork(before=self._before_fork)

    def _before_fork(self) -> None:
        """The registered before-fork hook (also callable directly in tests).

        ``os.register_at_fork`` swallows exceptions from hooks (the fork
        proceeds and the error is merely printed), so the violation is
        durably recorded first; the raise still surfaces in direct calls
        and in interpreter stderr.
        """
        self.check_fork("fork()")

    def check_fork(self, context: str) -> None:
        """Record + raise if the calling thread holds any sanitized lock.

        Called by the before-fork hook and explicitly by pool spawners
        (``ParallelMap``) right before they fork workers: a child process
        inherits a locked lock that no child thread will ever release.
        """
        held = self.held()
        if not held:
            return
        message = (
            f"[{self.name}] {context} while holding sanitized lock(s) "
            f"{', '.join(repr(name) for name in held)}: the child "
            "inherits a locked lock that no child thread will release"
        )
        with self._graph_lock:
            self.violations.append(message)
        raise LockOrderError(message)

    def assert_clean(self) -> None:
        """Raise the first recorded (non-raising) violation, if any."""
        with self._graph_lock:
            if self.violations:
                raise LockOrderError(self.violations[0])


class SanitizedLock:
    """A lock-like proxy reporting acquisitions to a :class:`LockDep`.

    Wraps anything with ``acquire``/``release`` — ``Lock``, ``RLock``,
    ``(Bounded)Semaphore``, ``Condition`` — and forwards every other
    attribute untouched, so it drops into code expecting the raw
    primitive.  Only *successful* acquisitions are pushed on the held
    stack (a timed-out semaphore acquire holds nothing); order edges are
    recorded at the attempt, which is when the inversion exists.
    """

    __slots__ = ("_inner", "name", "_dep")

    def __init__(self, inner, name: str, dep: LockDep):
        self._inner = inner
        self.name = name
        self._dep = dep

    def acquire(self, *args, **kwargs):
        """Forward to the primitive, recording order around the attempt."""
        self._dep.before_acquire(self.name)
        # The wrapper *is* the primitive: its caller (or __exit__) owns
        # the release, exactly as for the raw lock it stands in for.
        got = self._inner.acquire(*args, **kwargs)
        if got or got is None:  # Condition.wait-style APIs return None
            self._dep.after_acquire(self.name)
        return got

    def release(self, *args, **kwargs):
        """Forward to the primitive, then pop the held stack."""
        result = self._inner.release(*args, **kwargs)
        self._dep.after_release(self.name)
        return result

    def locked(self):
        """Forward ``locked()`` where the primitive has it."""
        return self._inner.locked()

    def __enter__(self):
        # context-manager protocol: __exit__ is the provable release
        self.acquire()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.release()
        return False

    def __getattr__(self, attr):
        return getattr(self._inner, attr)

    def __repr__(self):  # pragma: no cover — debugging aid
        return f"SanitizedLock({self.name!r}, {self._inner!r})"


#: The process-wide sanitizer the env flag arms.
DEFAULT = LockDep("default")


def resolve(dep: "LockDep | None") -> "LockDep | None":
    """The sanitizer to use: an explicit one, else the armed default.

    Constructors thread their ``lockdep=`` parameter through here so an
    explicit instance (tests) always wins, the shared :data:`DEFAULT` is
    used when :func:`enabled`, and otherwise instrumentation is off.
    """
    if dep is not None:
        return dep
    if enabled():
        DEFAULT.arm_fork_check()
        return DEFAULT
    return None


def wrap(primitive, name: str, dep: "LockDep | None"):
    """*primitive* unchanged when *dep* is None, else sanitized."""
    if dep is None:
        return primitive
    dep.arm_fork_check()
    return SanitizedLock(primitive, name, dep)
