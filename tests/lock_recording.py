"""A test-local recorder of who holds which serving-tier lock.

The serving tier promises two things about its locks, and this module
lets a test watch them under real concurrency:

* **no thread ever holds two locks** — the store's ``_meta`` lock and the
  server's admission :class:`threading.Condition` are leaves, never taken
  inside one another (so no lock-order cycle can exist);
* **every render runs with zero locks held** — a slow or failing render
  can never block a sibling key, an admission or a ``/healthz`` probe.

:meth:`LockRecorder.instrument` swaps recording wrappers in for those
locks (and around every render thunk) on a live store/server pair; the
recorder then lists every nested acquisition and every render that ran
under a lock.
"""

from __future__ import annotations

import threading


class RecordingLock:
    """A lock that reports each acquire/release to its recorder.

    It has the ``acquire``/``release``/context-manager surface a
    :class:`threading.Condition` needs from its lock, so it can stand in
    under a condition too (the condition's wait releases and re-acquires
    it through the same two methods, and the recorder sees both).
    """

    def __init__(self, lock, name: str, recorder: "LockRecorder"):
        self._lock = lock
        self.name = name
        self._recorder = recorder

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        """Acquire the wrapped lock, recording a successful acquisition."""
        acquired = self._lock.acquire(blocking, timeout)
        if acquired:
            self._recorder._acquired(self.name)
        return acquired

    def release(self) -> None:
        """Record the release, then release the wrapped lock."""
        self._recorder._released(self.name)
        self._lock.release()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc_info) -> None:
        self.release()


class LockRecorder:
    """Per-thread held-lock stacks plus every violation seen."""

    def __init__(self):
        self._guard = threading.Lock()  # protects the records, unrecorded
        self._held: dict[int, list[str]] = {}
        self.n_acquires = 0
        self.n_renders = 0
        #: ``(thread name, locks already held, lock being acquired)``
        self.nested: list[tuple[str, tuple[str, ...], str]] = []
        #: ``(thread name, locks held when a render thunk started)``
        self.locked_renders: list[tuple[str, tuple[str, ...]]] = []

    def wrap(self, lock, name: str) -> RecordingLock:
        """*lock* behind a recording wrapper named *name*."""
        return RecordingLock(lock, name, self)

    def holding(self) -> tuple[str, ...]:
        """The recorded locks the calling thread holds right now."""
        with self._guard:
            return tuple(self._held.get(threading.get_ident(), ()))

    def held_anywhere(self) -> tuple[str, ...]:
        """Every recorded lock some thread holds right now."""
        with self._guard:
            return tuple(name for names in self._held.values() for name in names)

    def instrument(self, store, server=None) -> None:
        """Record *store*'s lock and renders, and *server*'s condition.

        Call it before the pair serves its first request.
        """
        store._meta = self.wrap(store._meta, "store.meta")
        store._renderers = {
            path: (content_type, self._unlocked(render))
            for path, (content_type, render) in store._renderers.items()
        }
        if server is not None:
            server._cond = threading.Condition(
                self.wrap(threading.Lock(), "server.cond")
            )

    def assert_clean(self) -> None:
        """No nested acquisition and no render under a lock was seen."""
        assert self.nested == [], f"a thread held two locks: {self.nested}"
        assert self.locked_renders == [], (
            f"a render ran under a lock: {self.locked_renders}"
        )

    def _unlocked(self, render):
        def checked():
            held = self.holding()
            with self._guard:
                self.n_renders += 1
                if held:
                    self.locked_renders.append(
                        (threading.current_thread().name, held)
                    )
            return render()

        return checked

    def _acquired(self, name: str) -> None:
        with self._guard:
            stack = self._held.setdefault(threading.get_ident(), [])
            if stack:
                self.nested.append(
                    (threading.current_thread().name, tuple(stack), name)
                )
            stack.append(name)
            self.n_acquires += 1

    def _released(self, name: str) -> None:
        with self._guard:
            stack = self._held[threading.get_ident()]
            stack.remove(name)
            if not stack:
                del self._held[threading.get_ident()]
