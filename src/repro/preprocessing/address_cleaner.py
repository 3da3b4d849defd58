"""Geospatial attribute cleaning against a referenced street map.

This is the paper's multi-step algorithm (Section 2.1.1) in full:

1. normalize the EPC address (and every gazetteer street) so harmless
   representational noise never counts as edit distance;
2. try an **exact** lookup of the normalized street;
3. otherwise compute Levenshtein similarity against the gazetteer streets:
   "the referenced address (the most similar to the address under analysis)
   replaces the original one if Levenshtein similarity between the two
   addresses is greater than or equal to phi";
4. "when the association to a referenced address is not possible, i.e.,
   Levenshtein similarities are below phi, a geocoding request is sent"
   — to the metered :class:`~repro.preprocessing.geocoder.SimulatedGeocoder`;
5. once a street is resolved, the civic-level gazetteer record
   "reconstruct[s] missing or incorrect information in the attributes
   ZIP Code, house address, latitude and longitude".

Every row receives an audit entry so experiments can score the cleaner
against the noise log.
"""

from __future__ import annotations

import enum
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from ..dataset.streetmap import AddressRecord, StreetMap
from ..dataset.table import Column, ColumnKind, Table
from ..faults.plan import TransientServiceError
from ..faults.policy import CircuitBreaker, RetryPolicy, retry_with_backoff
from ..geo.distance import equirectangular_km
from ..perf.parallel import ParallelMap
from ..text.levenshtein import GazetteerIndex
from ..text.normalize import canonical_house_number, normalize_address
from .geocoder import GeocodeStatus, QuotaExceededError, SimulatedGeocoder

__all__ = [
    "CleaningConfig", "MatchStatus", "RowAudit", "CleaningSummary",
    "CleaningReport", "AddressCleaner",
]

#: Default acceptance threshold for Levenshtein similarity.
DEFAULT_PHI = 0.80


class MatchStatus(enum.Enum):
    """How a row's address was resolved."""

    EXACT = "exact"              # normalized street found verbatim in the gazetteer
    MATCHED = "matched"          # accepted by Levenshtein similarity >= phi
    GEOCODED = "geocoded"        # resolved by the fallback geocoding service
    UNRESOLVED = "unresolved"    # no association possible
    SKIPPED = "skipped"          # no address value to work with


@dataclass
class CleaningConfig:
    """Tuning knobs of the cleaning algorithm.

    ``phi`` is the user-defined similarity threshold from the paper.
    ``coordinate_tolerance_km`` bounds how far the stored coordinates may
    sit from the gazetteer location before being overwritten.
    """

    phi: float = DEFAULT_PHI
    use_geocoder: bool = True
    coordinate_tolerance_km: float = 0.5
    repair_zip: bool = True
    repair_coordinates: bool = True
    repair_house_number: bool = True


@dataclass
class RowAudit:
    """Per-row record of what the cleaner decided and changed."""

    row: int
    status: MatchStatus
    similarity: float = 0.0
    original_address: str | None = None
    resolved_street: str | None = None
    repaired_fields: tuple[str, ...] = ()


@dataclass
class CleaningSummary:
    """What a cleaning pass did, without its rows.

    The counts a :class:`CleaningReport` reduces to — per-status audit
    counts, repaired rows, geocoder traffic and every degradation — and
    all of them additive, so the summary of a table cleaned shard by
    shard is :meth:`combine` over the shards' summaries.
    """

    counts: dict[MatchStatus, int] = field(default_factory=dict)
    #: Rows with at least one repaired field.
    repaired: int = 0
    geocoder_requests: int = 0
    geocoder_quota_exhausted: bool = False
    degradations: list[dict] = field(default_factory=list)

    @classmethod
    def combine(cls, parts: list["CleaningSummary"]) -> "CleaningSummary":
        """The summary of the parts' cleaning passes taken together."""
        out = cls()
        for part in parts:
            for status, n in part.counts.items():
                out.counts[status] = out.counts.get(status, 0) + n
            out.repaired += part.repaired
            out.geocoder_requests += part.geocoder_requests
            out.geocoder_quota_exhausted |= part.geocoder_quota_exhausted
            out.degradations += part.degradations
        return out

    @property
    def n_checked(self) -> int:
        """Audited rows (every status, skipped ones included)."""
        return sum(self.counts.values())

    @property
    def output_degraded(self) -> bool:
        """Whether a degradation changed the cleaned rows (a geocoder
        shortfall), as opposed to a recovery such as a serial fallback.
        A degraded result is not the fault-free one and is never cached."""
        return any(d["kind"].startswith("geocoder_") for d in self.degradations)

    def resolution_rate(self) -> float:
        """Share of address-bearing rows resolved to a gazetteer street."""
        attempted = self.n_checked - self.counts.get(MatchStatus.SKIPPED, 0)
        if not attempted:
            return 0.0
        resolved = sum(
            self.counts.get(status, 0)
            for status in (MatchStatus.EXACT, MatchStatus.MATCHED, MatchStatus.GEOCODED)
        )
        return resolved / attempted


@dataclass
class CleaningReport:
    """The cleaned table plus the full audit trail.

    ``degradations`` lists every way the pass fell short of full service
    (geocoder quota exhausted mid-batch, circuit opened, retries
    exhausted, parallel tier fell back to serial), each as a dict with at
    least a ``kind`` key — the engine copies them into the provenance log
    so no degradation is ever silent.
    """

    table: Table
    audits: list[RowAudit] = field(default_factory=list)
    geocoder_requests: int = 0
    geocoder_quota_exhausted: bool = False
    degradations: list[dict] = field(default_factory=list)
    #: Rows whose geocoder fallback failed transiently even after retries.
    geocoder_transient_failures: int = 0
    #: Rows that skipped the geocoder because the circuit was open.
    rows_skipped_by_open_circuit: int = 0

    def summary(self) -> CleaningSummary:
        """The report's counts, without the cleaned table or the audits."""
        return CleaningSummary(
            counts=self.counts_by_status(),
            repaired=sum(1 for a in self.audits if a.repaired_fields),
            geocoder_requests=self.geocoder_requests,
            geocoder_quota_exhausted=self.geocoder_quota_exhausted,
            degradations=list(self.degradations),
        )

    def counts_by_status(self) -> dict[MatchStatus, int]:
        """Number of audited rows per match status."""
        return dict(Counter(audit.status for audit in self.audits))

    def resolution_rate(self) -> float:
        """Share of address-bearing rows resolved to a gazetteer street."""
        return self.summary().resolution_rate()


class AddressCleaner:
    """The INDICE geospatial cleaning engine.

    Build it once per referenced street map; :meth:`clean_table` can then
    process any table carrying the five geospatial attributes (``address``,
    ``house_number``, ``zip_code``, ``latitude``, ``longitude``).
    """

    def __init__(
        self,
        street_map: StreetMap,
        config: CleaningConfig | None = None,
        geocoder: SimulatedGeocoder | None = None,
        executor: ParallelMap | None = None,
        retry: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
        sleep=time.sleep,
    ):
        self.config = config or CleaningConfig()
        if not 0.0 <= self.config.phi <= 1.0:
            raise ValueError(f"phi must be in [0, 1], got {self.config.phi}")
        self._by_street = street_map.records_by_street()
        self._streets = sorted(self._by_street)
        self._street_set = set(self._streets)
        # sorted(records_by_street) == street_names(), so the shared index
        # cached on the street map matches self._streets position by position
        self._index = street_map.match_index()
        self._geocoder = geocoder
        self.executor = executor or ParallelMap(n_jobs=1)
        self.retry = retry or RetryPolicy()
        self.breaker = breaker or CircuitBreaker()
        self._sleep = sleep
        if self.config.use_geocoder and geocoder is None:
            self._geocoder = SimulatedGeocoder(street_map)

    # -- street resolution --------------------------------------------------

    def resolve_street(self, raw_address: str | None) -> tuple[str | None, MatchStatus, float]:
        """Resolve one raw address to a gazetteer street name.

        Returns ``(street or None, status, similarity)``; does not consult
        the geocoder (that decision is made per-row in :meth:`clean_table`
        so quota accounting stays centralized).
        """
        return _resolve(
            self._streets, self._street_set, self._index, self.config.phi,
            raw_address,
        )

    # -- table-level cleaning --------------------------------------------------

    def _resolve_distinct(self, address: np.ndarray) -> dict[str, tuple[str | None, MatchStatus, float]]:
        """Street resolution for every distinct raw address in *address*.

        This is the Levenshtein-heavy part of :meth:`clean_table`, and it
        is embarrassingly parallel: resolution touches only the immutable
        gazetteer index, never the geocoder or its quota.  Distinct values
        are sharded across the executor; each worker process builds the
        gazetteer index once (:func:`_resolver_state`, the map's setup)
        and reuses it for every address it receives.  The serial path resolves inline against the
        index cached on the street map; both go through :func:`_resolve`,
        so they return identical mappings.
        """
        distinct = list(dict.fromkeys(a for a in address if a is not None))
        if self.executor.should_parallelize(len(distinct)):
            resolutions = self.executor.map(
                _resolve_one_worker,
                distinct,
                setup=_resolver_state,
                args=(self._streets, self.config.phi),
            )
        else:
            resolutions = [self.resolve_street(raw) for raw in distinct]
        return dict(zip(distinct, resolutions))

    def clean_table(self, table: Table) -> CleaningReport:
        """Clean the geospatial attributes of every row of *table*.

        Returns a new table (the input is untouched) in which resolved rows
        carry the gazetteer's street name and, depending on the config,
        repaired ZIP, house number and coordinates.  Unresolved rows are
        kept as-is — downstream queries can exclude them via the audit.

        The pass runs in three phases so the parallel output is
        row-for-row identical to serial:

        1. **batch pre-pass** — every distinct raw address is resolved
           up-front (sharded across worker processes when the executor
           allows it) and the per-row street/status/similarity arrays are
           filled from that cache;
        2. **sequential geocoder fallback** — still-unresolved rows visit
           the metered geocoder in ascending row order, because quota and
           circuit-breaker accounting must see the same arrival sequence
           regardless of how phase 1 was scheduled;
        3. **grouped repair** — rows are repaired against per-street
           gazetteer caches (candidate records, canonical house numbers)
           so the civic lookup costs one normalization per distinct value
           instead of one per row-candidate pair.
        """
        cfg = self.config
        n = table.n_rows
        address = np.array(table["address"], dtype=object)
        house_number = np.array(table["house_number"], dtype=object)
        zip_code = np.array(table["zip_code"], dtype=object)
        lat = table["latitude"].copy()
        lon = table["longitude"].copy()

        audits: list[RowAudit] = []
        geocoder_requests = 0
        quota_exhausted = False
        transient_failures = 0
        circuit_skipped = 0
        rows_after_quota = 0
        # identical raw strings resolve identically; resolved per distinct
        # value up-front (sharded across workers when the input is large)
        fallbacks_before = self.executor.fallbacks
        resolve_cache = self._resolve_distinct(address)
        parallel_fell_back = self.executor.fallbacks > fallbacks_before

        # -- phase 1: apply the cached resolutions to every row ------------
        streets: list[str | None] = [None] * n
        statuses: list[MatchStatus] = [MatchStatus.SKIPPED] * n
        sims: list[float] = [0.0] * n
        for i in range(n):
            raw = address[i]
            if raw is not None:
                streets[i], statuses[i], sims[i] = resolve_cache[raw]

        # -- phase 2: sequential geocoder fallback -------------------------
        if cfg.use_geocoder and self._geocoder:
            for i in range(n):
                if statuses[i] is not MatchStatus.UNRESOLVED:
                    continue
                # Resilient fallback: the metered service is retried with
                # backoff on transient failures; repeated failures open the
                # circuit and later rows degrade to Levenshtein-only (the
                # row simply stays UNRESOLVED).  Quota exhaustion mid-batch
                # never discards work: rows already geocoded keep their
                # resolution, the remainder stays unresolved and counted.
                if quota_exhausted:
                    rows_after_quota += 1
                elif not self.breaker.allow():
                    circuit_skipped += 1
                else:
                    try:
                        response = retry_with_backoff(
                            lambda raw=address[i], num=house_number[i]: (
                                self._geocoder.geocode(raw, num)
                            ),
                            policy=self.retry,
                            retry_on=(TransientServiceError,),
                            sleep=self._sleep,
                        )
                        geocoder_requests += 1
                        self.breaker.record_success()
                        if response.status == GeocodeStatus.OK and response.record:
                            streets[i] = response.record.street
                            statuses[i] = MatchStatus.GEOCODED
                            sims[i] = response.confidence
                    except TransientServiceError:
                        transient_failures += 1
                        self.breaker.record_failure()
                    except QuotaExceededError:
                        quota_exhausted = True
                        rows_after_quota += 1

        # -- phase 3: grouped repair against per-street caches -------------
        # one canonicalization per distinct raw house number (the per-row
        # loop previously re-normalized every candidate of every row) and
        # one candidate-index build per distinct resolved street
        canonical_memo: dict = {}

        def canon(value: str | None) -> str | None:
            if value not in canonical_memo:
                canonical_memo[value] = canonical_house_number(value)
            return canonical_memo[value]

        street_cache: dict[
            str, tuple[list[AddressRecord], dict[str, AddressRecord]]
        ] = {}

        def street_info(
            street: str,
        ) -> tuple[list[AddressRecord], dict[str, AddressRecord]]:
            info = street_cache.get(street)
            if info is None:
                candidates = self._by_street[street]
                num_to_first: dict[str, AddressRecord] = {}
                for rec in candidates:
                    num = canon(rec.house_number)
                    if num is not None and num not in num_to_first:
                        num_to_first[num] = rec
                info = (candidates, num_to_first)
                street_cache[street] = info
            return info

        for i in range(n):
            raw = address[i]
            street, status, sim = streets[i], statuses[i], sims[i]
            if street is None:
                audits.append(RowAudit(i, status, sim, raw))
                continue

            # civic record: by canonical number when possible (the first
            # civic with that number), else nearest to the stored
            # coordinates, else the street's first civic
            candidates, num_to_first = street_info(street)
            number = canon(house_number[i])
            record = num_to_first.get(number) if number is not None else None
            if record is None:
                if not (np.isnan(lat[i]) or np.isnan(lon[i])):
                    row_lat, row_lon = float(lat[i]), float(lon[i])
                    record = min(
                        candidates,
                        key=lambda r: equirectangular_km(
                            row_lat, row_lon, r.latitude, r.longitude
                        ),
                    )
                else:
                    record = candidates[0]
            repaired: list[str] = []

            if address[i] != record.street:
                address[i] = record.street
                repaired.append("address")
            if cfg.repair_house_number:
                if number is None:
                    house_number[i] = record.house_number
                    repaired.append("house_number")
                elif number != house_number[i]:
                    house_number[i] = number
                    repaired.append("house_number")
            if cfg.repair_zip and zip_code[i] != record.zip_code:
                zip_code[i] = record.zip_code
                repaired.append("zip_code")
            if cfg.repair_coordinates:
                missing = np.isnan(lat[i]) or np.isnan(lon[i])
                if missing or (
                    equirectangular_km(float(lat[i]), float(lon[i]), record.latitude, record.longitude)
                    > cfg.coordinate_tolerance_km
                ):
                    lat[i] = record.latitude
                    lon[i] = record.longitude
                    repaired.append("coordinates")

            audits.append(
                RowAudit(i, status, sim, raw, record.street, tuple(repaired))
            )

        cleaned = (
            table.with_column(Column.text("address", address))
            .with_column(Column.text("house_number", house_number))
            .with_column(Column.categorical("zip_code", zip_code))
            .with_column(Column("latitude", ColumnKind.NUMERIC, lat))
            .with_column(Column("longitude", ColumnKind.NUMERIC, lon))
            .select(table.column_names)
        )
        degradations: list[dict] = []
        if parallel_fell_back:
            degradations.append(
                {
                    "kind": "parallel_fallback",
                    "detail": "worker pool failed; address resolution "
                    "recomputed serially (results unchanged)",
                    "reason": self.executor.last_fallback_reason,
                }
            )
        if quota_exhausted:
            degradations.append(
                {
                    "kind": "geocoder_quota_exhausted",
                    "detail": "geocoding quota spent mid-batch; "
                    "already-resolved rows kept, remainder left unresolved",
                    "rows_not_attempted": rows_after_quota,
                }
            )
        if transient_failures:
            degradations.append(
                {
                    "kind": "geocoder_transient_failures",
                    "detail": "geocoder requests still failing after "
                    f"{self.retry.retries} retries; rows left unresolved",
                    "rows": transient_failures,
                }
            )
        if circuit_skipped:
            degradations.append(
                {
                    "kind": "geocoder_circuit_open",
                    "detail": "geocoder circuit breaker open; rows degraded "
                    "to Levenshtein-only resolution",
                    "rows": circuit_skipped,
                }
            )
        return CleaningReport(
            table=cleaned,
            audits=audits,
            geocoder_requests=geocoder_requests,
            geocoder_quota_exhausted=quota_exhausted,
            degradations=degradations,
            geocoder_transient_failures=transient_failures,
            rows_skipped_by_open_circuit=circuit_skipped,
        )


# -- street resolution --------------------------------------------------------


def _resolve(
    streets: list[str],
    street_set: set[str],
    index: GazetteerIndex,
    phi: float,
    raw: str | None,
) -> tuple[str | None, MatchStatus, float]:
    """Resolve one raw address: normalize, exact hit, indexed match.

    The one resolver of both paths — :meth:`AddressCleaner.resolve_street`
    in the parent and :func:`_resolve_one_worker` in a pool worker — so
    sharded resolution is bit-identical to the serial path.
    """
    normalized = normalize_address(raw)
    if not normalized:
        return None, MatchStatus.SKIPPED, 0.0
    if normalized in street_set:
        return normalized, MatchStatus.EXACT, 1.0
    hit = index.best_match(normalized, phi=phi)
    if hit is None:
        return None, MatchStatus.UNRESOLVED, 0.0
    matched, sim = hit
    return streets[matched], MatchStatus.MATCHED, sim


# -- worker-process resolution ------------------------------------------------


def _resolver_state(
    streets: list[str], phi: float
) -> tuple[list[str], set[str], GazetteerIndex, float]:
    """The per-worker gazetteer index (the setup of the parallel map)."""
    return streets, set(streets), GazetteerIndex(streets), phi


def _resolve_one_worker(
    state: tuple[list[str], set[str], GazetteerIndex, float], raw: str
) -> tuple[str | None, MatchStatus, float]:
    """Resolve one raw address against the worker's gazetteer index."""
    return _resolve(*state, raw)
