"""Simulated geocoding service (the Google Geocoding API substitute).

When Levenshtein matching against the referenced street map fails, INDICE
sends "a geocoding request ... via the Google Geocoding APIs", a reliable
service it uses sparingly "due to a limit on the number of free requests"
(paper, Section 2.1.1).  Offline we substitute
:class:`SimulatedGeocoder`: a stronger, token-based resolver over the same
gazetteer, with exactly the operational properties the paper's control
flow depends on — higher recall than the plain Levenshtein matcher, a hard
request quota, and a small error rate.

Why this preserves behaviour: the pipeline only cares that the fallback
(a) resolves some addresses the primary matcher cannot, and (b) is a
metered resource that can run out.  Both are modelled here.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from ..dataset.streetmap import AddressRecord, StreetMap
from ..faults.plan import GEOCODER_REQUEST, FaultInjector, FaultKind, TransientServiceError
from ..text.levenshtein import Pattern
from ..text.normalize import canonical_house_number, normalize_address, split_house_number

__all__ = ["GeocodeStatus", "GeocodeResponse", "QuotaExceededError", "SimulatedGeocoder"]


class QuotaExceededError(RuntimeError):
    """Raised when a request is attempted after the free quota is spent."""


@dataclass(frozen=True)
class GeocodeResponse:
    """Outcome of one geocoding request."""

    status: str  # "ok" | "not_found"
    record: AddressRecord | None = None
    confidence: float = 0.0


class GeocodeStatus:
    """Response status constants of the geocoding service."""
    OK = "ok"
    NOT_FOUND = "not_found"


def _trigrams(text: str) -> set[str]:
    """Character trigrams of a padded string (standard fuzzy-search index)."""
    padded = f"  {text} "
    return {padded[i : i + 3] for i in range(len(padded) - 2)}


def _soft_token_score(query_tokens: list[Pattern], candidate_tokens: list[str]) -> float:
    """Order-free token similarity: each query token matches its most
    similar candidate token; scores are averaged weighted by token length.

    Robust to token reordering ("roma via" vs "via roma") and to per-token
    typos, which is how production geocoders behave.  The query tokens come
    compiled, so a query re-ranked against a whole shortlist builds each
    token's masks once.
    """
    if not query_tokens or not candidate_tokens:
        return 0.0
    total_weight = 0.0
    total = 0.0
    for token in query_tokens:
        best = max(token.similarity(cand) for cand in candidate_tokens)
        weight = len(token.text)
        total += best * weight
        total_weight += weight
    return total / total_weight


class SimulatedGeocoder:
    """Offline stand-in for the Google Geocoding API.

    Resolution is two-stage: character-trigram shortlisting over the
    gazetteer streets (an inverted index, so it stays fast), then a blended
    re-ranking of the shortlist combining whole-string Levenshtein
    similarity with an order-free soft token score.  This recovers
    heavily-corrupted addresses the plain matcher rejects (token
    reordering, multiple typos), mimicking the robustness of a production
    geocoder.

    Parameters
    ----------
    street_map:
        The gazetteer to resolve against.
    quota:
        Maximum number of requests before :class:`QuotaExceededError`.
        The real free tier was ~2500/day when the paper was written.
    error_rate:
        Probability that a resolvable request returns a *wrong* street
        (production geocoders confidently mis-resolve some queries).  The
        error process is *content-addressed* — a pure function of
        ``(seed, normalized query)`` — so a given query always resolves
        the same way regardless of request order.  That is how production
        geocoders actually misbehave (the same query reproduces the same
        wrong answer), and it makes resolution independent of batching:
        retried, parallel and sharded runs all reproduce the identical
        result.
    seed:
        Seed for the error process, making runs reproducible.
    injector:
        Optional fault injector watching the ``geocoder.request`` site:
        a ``transient`` fault makes the request fail retryably (without
        consuming quota, like a timed-out call), a ``quota`` fault
        exhausts the remaining quota on the spot.
    """

    def __init__(
        self,
        street_map: StreetMap,
        quota: int = 2500,
        error_rate: float = 0.02,
        seed: int = 0,
        injector: FaultInjector | None = None,
    ):
        if quota < 0:
            raise ValueError("quota must be non-negative")
        self._by_street = street_map.records_by_street()
        self._streets = sorted(self._by_street)
        self._tokens = [s.split() for s in self._streets]
        self._trigram_sizes = np.array(
            [len(_trigrams(s)) for s in self._streets], dtype=np.float64
        )
        self._trigram_index: dict[str, list[int]] = {}
        for i, street in enumerate(self._streets):
            for gram in _trigrams(street):
                self._trigram_index.setdefault(gram, []).append(i)
        self.quota = quota
        self.requests_made = 0
        self.error_rate = error_rate
        self._seed = seed
        self._injector = injector

    @property
    def remaining_quota(self) -> int:
        """Requests still available before the quota trips."""
        return max(self.quota - self.requests_made, 0)

    def geocode(self, raw_address: str, house_number: str | None = None) -> GeocodeResponse:
        """Resolve *raw_address* to a gazetteer record.

        Counts against the quota whether or not resolution succeeds, like
        the real API.  Raises :class:`QuotaExceededError` once spent.

        Injected faults fire *before* any quota state is touched, and the
        error process is a pure function of the query — a transiently-
        failed request consumes no state at all, so a successful retry
        returns exactly what the fault-free call would have (the
        bit-identical-recovery invariant).
        """
        if self._injector is not None:
            kind = self._injector.arrive(GEOCODER_REQUEST)
            if kind is FaultKind.TRANSIENT:
                raise TransientServiceError(
                    "injected transient geocoding failure"
                )
            if kind is FaultKind.QUOTA:
                self.requests_made = self.quota
        if self.requests_made >= self.quota:
            raise QuotaExceededError(
                f"geocoding quota of {self.quota} requests exhausted"
            )
        self.requests_made += 1

        text = normalize_address(raw_address)
        street_part, embedded_number = split_house_number(text)
        number = canonical_house_number(house_number) or embedded_number
        query_tokens = street_part.split()
        if not query_tokens:
            return GeocodeResponse(GeocodeStatus.NOT_FOUND)

        # stage 1: trigram shortlist via the inverted index
        query_grams = _trigrams(street_part)
        overlap = np.zeros(len(self._streets), dtype=np.float64)
        for gram in query_grams:
            for i in self._trigram_index.get(gram, ()):
                overlap[i] += 1.0
        jaccard = overlap / (len(query_grams) + self._trigram_sizes - overlap)
        shortlist = np.argsort(jaccard)[::-1][:25]
        shortlist = [int(i) for i in shortlist if jaccard[i] > 0.05]
        if not shortlist:
            return GeocodeResponse(GeocodeStatus.NOT_FOUND)

        # stage 2: blended re-rank (whole-string + order-free token score)
        query = Pattern(street_part)
        token_patterns = [Pattern(token) for token in query_tokens]
        best_i, best_sim = -1, -1.0
        for i in shortlist:
            char_sim = query.similarity(self._streets[i])
            token_sim = _soft_token_score(token_patterns, self._tokens[i])
            blended = 0.4 * char_sim + 0.6 * token_sim
            if blended > best_sim:
                best_i, best_sim = i, blended
        if best_sim < 0.5:
            return GeocodeResponse(GeocodeStatus.NOT_FOUND)

        street = self._streets[best_i]
        if self.error_rate > 0:
            # content-addressed error draw: uniform variate and wrong-street
            # pick both derived from a hash of (seed, query), never from
            # request order — see the class docstring
            digest = hashlib.sha256(
                f"{self._seed}:{street_part}".encode("utf-8")
            ).digest()
            draw = int.from_bytes(digest[:8], "little") / 2.0**64
            if draw < self.error_rate:
                wrong = int.from_bytes(digest[8:16], "little") % len(self._streets)
                street = self._streets[wrong]

        record = self._pick_record(street, number)
        return GeocodeResponse(GeocodeStatus.OK, record, confidence=float(best_sim))

    def _pick_record(self, street: str, number: str | None) -> AddressRecord:
        """The record for (street, civic), or the street's first civic."""
        candidates = self._by_street[street]
        if number is not None:
            for rec in candidates:
                if canonical_house_number(rec.house_number) == number:
                    return rec
        return candidates[0]
