"""Deterministic fault plans and the injector that executes them.

A :class:`FaultPlan` is data — a seed plus a list of :class:`FaultSpec`
entries, each naming a *site* (a stable string like ``geocoder.request``),
a :class:`FaultKind`, and when it applies (probability per arrival, a
maximum number of injections, an arrival offset).  A
:class:`FaultInjector` executes the plan: call sites announce each arrival
(``injector.arrive(site)``) and get back the fault kind to simulate, or
``None``.  Decisions are drawn from a per-spec RNG seeded from
``(plan.seed, spec index, site, kind)``, so two injectors built from the
same plan produce the same fault sequence at every site regardless of how
sites interleave — which is what makes a chaos run reproducible from a
``--fault-plan`` string alone.

Plans round-trip through a compact spec string (the CLI format) and JSON::

    geocoder.request:transient@0.3*5 ; cache.read:corrupt ; seed=42

means "the first 5 geocoder requests each fail transiently with
probability 0.3; every cache read returns corrupted bytes; seed 42".
"""

from __future__ import annotations

import enum
import hashlib
import json
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "FaultKind",
    "FaultSpec",
    "FaultPlan",
    "FaultInjector",
    "InjectedFault",
    "InjectedIOError",
    "TransientServiceError",
    "WorkerCrashError",
    "GEOCODER_REQUEST",
    "CACHE_READ",
    "CACHE_WRITE",
    "PARALLEL_WORKER",
    "DATASET_READ",
    "DATASET_WRITE",
    "SERVE_REQUEST",
]

# -- the named fault sites threaded through the pipeline ----------------------

GEOCODER_REQUEST = "geocoder.request"
CACHE_READ = "cache.read"
CACHE_WRITE = "cache.write"
PARALLEL_WORKER = "parallel.worker"
DATASET_READ = "dataset.read"
DATASET_WRITE = "dataset.write"
SERVE_REQUEST = "serve.request"

#: Every site with an injection hook, for validation and ``--help`` text.
KNOWN_SITES = (
    GEOCODER_REQUEST,
    CACHE_READ,
    CACHE_WRITE,
    PARALLEL_WORKER,
    DATASET_READ,
    DATASET_WRITE,
    SERVE_REQUEST,
)


class FaultKind(enum.Enum):
    """What kind of failure an injection simulates."""

    TRANSIENT = "transient"   # retryable service error (timeouts, 5xx)
    QUOTA = "quota"           # metered service out of free requests
    CORRUPT = "corrupt"       # bytes arrive, but they are garbage
    TRUNCATE = "truncate"     # a partial write / partial read
    IO_ERROR = "io_error"     # the operation itself fails with an OSError
    CRASH = "crash"           # a worker process dies mid-chunk
    DELAY = "delay"           # a straggler: the work completes, slowly


# -- injected exception types -------------------------------------------------


class InjectedFault(RuntimeError):
    """Base class of every exception raised by fault injection."""


class TransientServiceError(InjectedFault):
    """A retryable failure of an external service (the geocoder)."""


class WorkerCrashError(InjectedFault):
    """A process-pool worker died before finishing its chunk."""


class InjectedIOError(OSError, InjectedFault):
    """An injected I/O failure (dataset or cache file operations)."""


_SPEC_RE = re.compile(
    r"^(?P<site>[a-z_.]+):(?P<kind>[a-z_]+)"
    r"(?:@(?P<rate>[0-9.]+))?"
    r"(?:\*(?P<times>\d+))?"
    r"(?:\+(?P<after>\d+))?$"
)


@dataclass(frozen=True)
class FaultSpec:
    """One rule of a fault plan.

    Parameters
    ----------
    site:
        The injection site the rule applies to (e.g. ``geocoder.request``).
    kind:
        The failure to simulate when the rule fires.
    rate:
        Probability that an eligible arrival fires, in ``[0, 1]``.
    times:
        Maximum number of injections (``None`` = unlimited).
    after:
        Number of leading arrivals that are always spared.
    """

    site: str
    kind: FaultKind
    rate: float = 1.0
    times: int | None = None
    after: int = 0

    def __post_init__(self) -> None:
        if self.site not in KNOWN_SITES:
            valid = ", ".join(KNOWN_SITES)
            raise ValueError(
                f"unknown fault site {self.site!r} — a plan naming it would "
                f"silently never fire (valid sites: {valid})"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")
        if self.times is not None and self.times < 0:
            raise ValueError(f"times must be non-negative, got {self.times}")
        if self.after < 0:
            raise ValueError(f"after must be non-negative, got {self.after}")

    def render(self) -> str:
        """The spec-string form (inverse of :meth:`FaultSpec.parse`)."""
        out = f"{self.site}:{self.kind.value}"
        # rate is validated into [0, 1], so < 1.0 is exactly "non-default"
        if self.rate < 1.0:
            out += f"@{self.rate:g}"
        if self.times is not None:
            out += f"*{self.times}"
        if self.after:
            out += f"+{self.after}"
        return out

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """Parse ``site:kind[@rate][*times][+after]``."""
        match = _SPEC_RE.match(text.strip())
        if match is None:
            raise ValueError(
                f"bad fault spec {text!r} "
                "(expected site:kind[@rate][*times][+after])"
            )
        try:
            kind = FaultKind(match["kind"])
        except ValueError:
            valid = ", ".join(k.value for k in FaultKind)
            raise ValueError(
                f"unknown fault kind {match['kind']!r} (one of: {valid})"
            ) from None
        return cls(
            site=match["site"],
            kind=kind,
            rate=float(match["rate"]) if match["rate"] else 1.0,
            times=int(match["times"]) if match["times"] else None,
            after=int(match["after"]) if match["after"] else 0,
        )


@dataclass(frozen=True)
class FaultPlan:
    """A seed plus the fault rules to execute — pure data, fully serializable."""

    faults: tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __bool__(self) -> bool:
        return bool(self.faults)

    def sites(self) -> tuple[str, ...]:
        """Distinct sites the plan touches, in first-appearance order."""
        return tuple(dict.fromkeys(s.site for s in self.faults))

    # -- spec-string form ---------------------------------------------------

    def render(self) -> str:
        """The ``--fault-plan`` string form of this plan."""
        parts = [spec.render() for spec in self.faults]
        if self.seed:
            parts.append(f"seed={self.seed}")
        return ";".join(parts)

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse a ``spec;spec;...;seed=N`` string (see module docstring)."""
        specs: list[FaultSpec] = []
        seed = 0
        for part in text.split(";"):
            part = part.strip()
            if not part:
                continue
            if part.startswith("seed="):
                try:
                    seed = int(part[len("seed="):])
                except ValueError:
                    raise ValueError(
                        f"bad fault plan seed {part!r} (expected seed=N)"
                    ) from None
            else:
                specs.append(FaultSpec.parse(part))
        return cls(faults=tuple(specs), seed=seed)

    @classmethod
    def load(cls, source: str) -> "FaultPlan":
        """Parse a CLI argument: a spec string, or ``@path`` to a JSON file."""
        if source.startswith("@"):
            return cls.from_json(Path(source[1:]).read_text(encoding="utf-8"))
        return cls.parse(source)

    # -- JSON form ----------------------------------------------------------

    def to_json(self) -> str:
        """JSON document round-tripping through :meth:`from_json`."""
        return json.dumps(
            {
                "seed": self.seed,
                "faults": [
                    {
                        "site": s.site,
                        "kind": s.kind.value,
                        "rate": s.rate,
                        "times": s.times,
                        "after": s.after,
                    }
                    for s in self.faults
                ],
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Parse the JSON document written by :meth:`to_json`; a document
        of another shape raises :class:`ValueError`."""
        payload = json.loads(text)
        try:
            return cls(
                faults=tuple(
                    FaultSpec(
                        site=f["site"],
                        kind=FaultKind(f["kind"]),
                        rate=f.get("rate", 1.0),
                        times=f.get("times"),
                        after=f.get("after", 0),
                    )
                    for f in payload.get("faults", ())
                ),
                seed=payload.get("seed", 0),
            )
        except (KeyError, TypeError, AttributeError) as exc:
            raise ValueError(
                f"malformed fault plan JSON ({type(exc).__name__}: {exc}); "
                "expected {\"seed\": N, \"faults\": [{\"site\": ..., "
                "\"kind\": ...}, ...]}"
            ) from None


def _spec_seed(plan_seed: int, index: int, spec: FaultSpec) -> int:
    """A stable RNG seed for one spec, independent of the other specs."""
    digest = hashlib.sha256(
        f"{plan_seed}:{index}:{spec.site}:{spec.kind.value}".encode()
    ).digest()
    return int.from_bytes(digest[:8], "big")


class _SpecState:
    """Runtime counters and RNG of one :class:`FaultSpec`."""

    __slots__ = ("spec", "rng", "arrivals", "injections")

    def __init__(self, spec: FaultSpec, seed: int):
        self.spec = spec
        self.rng = np.random.default_rng(seed)
        self.arrivals = 0
        self.injections = 0

    def decide(self) -> bool:
        """Whether this arrival fires (advances counters deterministically)."""
        self.arrivals += 1
        spec = self.spec
        if spec.times is not None and self.injections >= spec.times:
            return False
        if self.arrivals <= spec.after:
            return False
        if spec.rate < 1.0 and self.rng.random() >= spec.rate:
            return False
        self.injections += 1
        return True


class FaultInjector:
    """Executes a :class:`FaultPlan` at the pipeline's injection sites.

    Call sites are written so a ``None`` injector costs one identity
    comparison; with an injector present, each arrival at a site advances
    that site's deterministic counters and may return a fault kind.  The
    injector keeps a full ``events`` history (``(site, kind)`` pairs in
    arrival order) so chaos tests can assert exactly what fired.
    """

    def __init__(self, plan: FaultPlan | str | None = None):
        if isinstance(plan, str):
            plan = FaultPlan.parse(plan)
        self.plan = plan or FaultPlan()
        self._by_site: dict[str, list[_SpecState]] = {}
        for index, spec in enumerate(self.plan.faults):
            state = _SpecState(spec, _spec_seed(self.plan.seed, index, spec))
            self._by_site.setdefault(spec.site, []).append(state)
        self.events: list[tuple[str, FaultKind]] = []

    def watches(self, site: str) -> bool:
        """Whether the plan has any rule for *site*."""
        return site in self._by_site

    def arrive(self, site: str) -> FaultKind | None:
        """Announce one arrival at *site*; the fault to simulate, or None.

        When several rules watch the same site, the first (in plan order)
        that fires wins, but every rule's arrival counter still advances —
        so adding a rule never changes *when* an existing rule fires.  A
        *site* outside :data:`KNOWN_SITES` raises :class:`ValueError`: no
        plan could ever reach it.
        """
        states = self._by_site.get(site)
        if not states:
            if site not in KNOWN_SITES:
                raise ValueError(
                    f"unknown fault site {site!r} (valid sites: "
                    f"{', '.join(KNOWN_SITES)})"
                )
            return None
        fired: FaultKind | None = None
        for state in states:
            if state.decide() and fired is None:
                fired = state.spec.kind
        if fired is not None:
            self.events.append((site, fired))
        return fired

    def fire(self, site: str) -> None:
        """Like :meth:`arrive`, but raises the matching injected exception.

        Only meaningful for kinds that map to an exception (``transient``,
        ``io_error``, ``crash``); data-shaping kinds (``corrupt``,
        ``truncate``) must be handled by the call site via :meth:`arrive`.
        An unknown *site* raises :class:`ValueError`, as in :meth:`arrive`.
        """
        kind = self.arrive(site)
        if kind is None:
            return
        if kind is FaultKind.TRANSIENT:
            raise TransientServiceError(f"injected transient fault at {site}")
        if kind is FaultKind.IO_ERROR:
            raise InjectedIOError(f"injected I/O failure at {site}")
        if kind is FaultKind.CRASH:
            raise WorkerCrashError(f"injected crash at {site}")
        raise InjectedFault(f"injected {kind.value} fault at {site}")

    def arrivals(self, site: str) -> int:
        """Arrivals announced at *site* so far (0 when no rule watches it)."""
        states = self._by_site.get(site)
        return states[0].arrivals if states else 0

    def injections(self, site: str | None = None) -> int:
        """Number of faults injected so far (optionally at one site)."""
        return sum(
            1 for s, __ in self.events if site is None or s == site
        )

    @staticmethod
    def mangle(data: bytes, kind: FaultKind) -> bytes:
        """Apply a data-shaping fault to *data* (corrupt or truncate)."""
        if kind is FaultKind.CORRUPT:
            return b"\x00INJECTED-CORRUPTION\x00" + data[::-1][:32]
        if kind is FaultKind.TRUNCATE:
            return data[: max(1, len(data) // 2)]
        return data
