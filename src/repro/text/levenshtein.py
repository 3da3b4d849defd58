"""Levenshtein edit distance and the similarity score used by INDICE.

The geospatial cleaning step (paper, Section 2.1.1) compares each address in
the EPC collection against a referenced street map.  For each pair of
addresses the Levenshtein distance [19] counts the minimum number of
single-character insertions, deletions and substitutions turning one string
into the other; the *similarity* derived from it "takes values in the range
[0-1], where 0 indicates total dissimilarity and 1 equality".

We normalize by the longer string's length::

    similarity(a, b) = 1 - distance(a, b) / max(len(a), len(b))

which satisfies exactly that contract (1 iff the strings are equal, 0 iff
they share no aligned characters at all).

The implementation is Myers' bit-vector algorithm (J. ACM 1999) in Hyyrö's
form for edit distance: one string becomes per-character bit masks, and
each character of the other advances a whole DP column with a handful of
integer operations.  Python ints serve as the bit-vectors, so there is no
limit on string length.  When the caller only cares whether the distance
fits a budget (the INDICE acceptance test, via ``phi``), the scan stops as
soon as the remaining characters can no longer bring it back under.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "distance",
    "similarity",
    "distance_within",
    "best_match",
    "GazetteerIndex",
    "Pattern",
]


def _edit_distance(
    masks: dict[str, int], m: int, text: str, budget: int | None = None
) -> int | None:
    """Levenshtein distance between a pattern and *text*, bit-parallel.

    *masks* maps each character to the bit set of its positions in the
    pattern (bit ``i`` for pattern character ``i``) and *m* >= 1 is the
    pattern length.  Bit ``i`` of ``vp`` / ``vn`` says the DP cell in row
    ``i + 1`` of the current column is one more / one less than the cell
    above it; ``score`` tracks the last row, ``D[m][j]``.  Shifting a 1
    into ``hp`` every column encodes the top boundary ``D[0][j] = j`` of
    global (not substring) edit distance.

    Returns ``None`` once the distance provably exceeds *budget*: each
    remaining text character lowers the last row by at most 1, so a
    ``score`` more than ``budget`` above the characters still to come can
    never recover.
    """
    n = len(text)
    if budget is None:
        budget = max(m, n)  # no distance exceeds the longer length
    full = (1 << m) - 1
    top = 1 << (m - 1)
    vp, vn, score = full, 0, m
    limit = n + budget
    for j, ch in enumerate(text, 1):
        eq = masks.get(ch, 0)
        xv = eq | vn
        xh = (((eq & vp) + vp) ^ vp) | eq
        hp = vn | ~(xh | vp)
        hn = vp & xh
        if hp & top:
            score += 1
        elif hn & top:
            score -= 1
        if score + j > limit:  # score - (n - j) > budget
            return None
        hp = (hp << 1) | 1
        hn <<= 1
        vp = (hn | ~(xv | hp)) & full
        vn = hp & xv
    return score if score <= budget else None


def _budget(longest: int, phi: float) -> int:
    """The largest edit distance at which similarity still reaches *phi*."""
    return int((1.0 - phi) * longest + 1e-9)


class Pattern:
    """One string compiled to character masks, compared against many others.

    Building the masks costs one pass over the string; every comparison
    after that is one kernel scan of the other string, so a query matched
    against a whole gazetteer pays for its masks once.
    """

    __slots__ = ("text", "_masks")

    def __init__(self, text: str):
        self.text = text
        masks: dict[str, int] = {}
        bit = 1
        for ch in text:
            masks[ch] = masks.get(ch, 0) | bit
            bit <<= 1
        self._masks = masks

    def distance_within(self, other: str, budget: int | None = None) -> int | None:
        """The edit distance to *other*, or ``None`` if above *budget*."""
        m, n = len(self.text), len(other)
        if budget is not None and (budget < 0 or abs(m - n) > budget):
            return None
        if self.text == other:
            return 0
        if not m or not n:
            return m or n
        return _edit_distance(self._masks, m, other, budget)

    def similarity(self, other: str) -> float:
        """Levenshtein similarity to *other* in [0, 1] (see :func:`similarity`)."""
        longest = max(len(self.text), len(other))
        if longest == 0:
            return 1.0
        return 1.0 - self.distance_within(other) / longest

    def similarity_at_least(self, other: str, phi: float) -> float | None:
        """The similarity to *other* if it is >= *phi*, else ``None``."""
        longest = max(len(self.text), len(other))
        if longest == 0:
            return 1.0
        d = self.distance_within(other, _budget(longest, phi))
        if d is None:
            return None
        sim = 1.0 - d / longest
        return sim if sim >= phi else None


def distance(a: str, b: str) -> int:
    """The Levenshtein edit distance between *a* and *b*.

    >>> distance("corso duca", "corso duca")
    0
    >>> distance("via roma", "via rome")
    1
    """
    if len(a) < len(b):  # scan the shorter string against the longer's masks
        a, b = b, a
    return Pattern(a).distance_within(b)


def distance_within(a: str, b: str, budget: int) -> int | None:
    """The edit distance if it does not exceed *budget*, else ``None``.

    A length-difference pre-check and an early exit from the column scan
    make this much cheaper than :func:`distance` when most candidates are
    far away, which is the common case when scanning a street gazetteer.
    """
    if len(a) < len(b):
        a, b = b, a
    return Pattern(a).distance_within(b, budget)


def similarity(a: str, b: str) -> float:
    """Levenshtein similarity in [0, 1]; 1 means equality.

    >>> similarity("via roma", "via roma")
    1.0
    >>> similarity("abc", "xyz")
    0.0
    """
    return Pattern(a).similarity(b)


def similarity_at_least(a: str, b: str, phi: float) -> float | None:
    """The similarity if it is >= *phi*, else ``None`` (computed with cut-off)."""
    return Pattern(a).similarity_at_least(b, phi)


def best_match(query: str, candidates: list[str], phi: float = 0.0) -> tuple[int, float] | None:
    """The index and similarity of the candidate most similar to *query*.

    Only candidates with similarity >= *phi* qualify; returns ``None`` when
    no candidate clears the threshold.  Ties keep the first candidate, which
    makes gazetteer lookups deterministic.
    """
    pattern = Pattern(query)
    best_index = -1
    best_sim = phi
    found = False
    for i, cand in enumerate(candidates):
        sim = pattern.similarity_at_least(cand, best_sim)
        if sim is None:
            continue
        if not found or sim > best_sim:
            best_index, best_sim, found = i, sim, True
            if best_sim >= 1.0:  # similarity is capped at 1.0: exact match
                break
    if not found:
        return None
    return best_index, best_sim


class GazetteerIndex:
    """A pruning candidate index for repeated best-match queries.

    Scanning a full gazetteer per query (:func:`best_match`) costs one
    kernel scan per candidate.  Most of those candidates can be rejected
    without any scan, using two valid lower bounds on the edit distance:

    * **length bound** — ``distance(a, b) >= abs(|a| - |b|)``, so whole
      length buckets fall outside the phi-implied edit budget
      ``(1-phi) * max(|a|, |b|)`` at once;
    * **bag bound** — every edit fixes at most one missing and one surplus
      character, so ``distance(a, b) >= max(#missing, #surplus)`` over the
      character multisets; evaluated vectorized per length bucket, it
      rejects most remaining candidates with one NumPy pass.

    Candidates are bucketed by normalized length and, inside each length,
    by first token.  A query scans feasible lengths nearest-first and the
    bucket sharing its first token before the others — a high-similarity
    candidate found early tightens the running threshold, which shrinks
    the edit budget for everything after it.  Results are **identical** to
    the linear :func:`best_match` over the same candidate list (same
    index, same similarity, same tie-breaks): both bounds only skip
    candidates whose budgeted scan would return ``None`` anyway, and ties are
    resolved toward the lowest candidate index regardless of scan order.

    A per-instance memo caches repeated ``(query, phi)`` lookups, since
    real EPC collections repeat the same address strings heavily.
    """

    def __init__(self, candidates: list[str]):
        self.candidates = list(candidates)
        self._first_token = [
            c.split(" ", 1)[0] if c else "" for c in self.candidates
        ]
        # character -> column of the count matrices
        alphabet = sorted({ch for c in self.candidates for ch in c})
        self._alphabet = {ch: k for k, ch in enumerate(alphabet)}
        width = max(len(alphabet), 1)
        # length -> (ascending indices, per-candidate char counts,
        #            first token -> ascending indices)
        self._buckets: dict[
            int, tuple[np.ndarray, np.ndarray, dict[str, list[int]]]
        ] = {}
        by_length: dict[int, list[int]] = {}
        for i, cand in enumerate(self.candidates):
            by_length.setdefault(len(cand), []).append(i)
        for lb, idxs in by_length.items():
            counts = np.zeros((len(idxs), width), dtype=np.int32)
            by_token: dict[str, list[int]] = {}
            for row, i in enumerate(idxs):
                for ch in self.candidates[i]:
                    counts[row, self._alphabet[ch]] += 1
                by_token.setdefault(self._first_token[i], []).append(i)
            self._buckets[lb] = (
                np.asarray(idxs, dtype=np.intp), counts, by_token
            )
        self._memo: dict[tuple[str, float], tuple[int, float] | None] = {}

    def __len__(self) -> int:
        return len(self.candidates)

    def memo_size(self) -> int:
        """How many ``(query, phi)`` lookups the memo holds."""
        return len(self._memo)

    def memo_since(self, mark: int) -> list:
        """The memo entries added after the first *mark*, oldest first.

        A pool worker returns these with its result so the parent's index
        learns what the worker's copy resolved (see :meth:`adopt`).
        """
        return list(self._memo.items())[mark:]

    def adopt(self, entries: list) -> None:
        """Take memo entries computed by another copy of this index.

        Entries are pure functions of ``(candidates, query, phi)``, so an
        entry from an index over the same candidate list is exactly what
        :meth:`best_match` would compute here.
        """
        self._memo.update(entries)

    @staticmethod
    def _length_feasible(la: int, lb: int, phi: float) -> bool:
        """Whether a candidate of length *lb* can clear *phi* at all."""
        return abs(la - lb) <= _budget(max(la, lb), phi)

    def _query_counts(self, query: str) -> tuple[np.ndarray, int]:
        """Alphabet counts of *query* plus its out-of-alphabet char count."""
        counts = np.zeros(max(len(self._alphabet), 1), dtype=np.int32)
        unknown = 0
        for ch in query:
            k = self._alphabet.get(ch)
            if k is None:
                unknown += 1
            else:
                counts[k] += 1
        return counts, unknown

    def best_match(self, query: str, phi: float = 0.0) -> tuple[int, float] | None:
        """Like :func:`best_match` over the indexed candidates.

        Returns the same ``(index, similarity)`` (or ``None``) as the
        linear scan: the maximum similarity >= *phi*, lowest candidate
        index on ties.
        """
        key = (query, phi)
        hit = self._memo.get(key, _MISS)
        if hit is not _MISS:
            return hit
        result = self._scan(query, phi)
        self._memo[key] = result
        return result

    def _scan(self, query: str, phi: float) -> tuple[int, float] | None:
        la = len(query)
        first = query.split(" ", 1)[0] if query else ""
        lengths = sorted(
            (lb for lb in self._buckets if self._length_feasible(la, lb, phi)),
            key=lambda lb: (abs(lb - la), lb),
        )
        q_counts, q_unknown = self._query_counts(query)
        pattern = Pattern(query)  # masks built once, shared by every candidate
        best_index = -1
        best_sim = phi
        found = False

        def consider(i: int) -> bool:
            """Scan candidate *i*; True once an exact match is held."""
            nonlocal best_index, best_sim, found
            sim = pattern.similarity_at_least(self.candidates[i], best_sim)
            if sim is not None and (
                not found
                or sim > best_sim
                or (sim == best_sim and i < best_index)
            ):
                best_index, best_sim, found = i, sim, True
            return found and best_sim >= 1.0  # capped at 1.0: exact match

        # pass 1: buckets sharing the query's first token (likeliest to
        # hold a near-duplicate, so the threshold tightens early)
        for lb in lengths:
            for i in self._buckets[lb][2].get(first, ()):
                if consider(i):
                    # equality lives in exactly this bucket, scanned in
                    # ascending index order: first hit = lowest index
                    return best_index, 1.0

        # pass 2: everything else, bag-bound-filtered per length bucket.
        # Buckets infeasible at the *running* threshold hold only strictly
        # worse candidates, so skipping them never changes the outcome.
        for lb in lengths:
            if not self._length_feasible(la, lb, best_sim):
                continue
            budget = _budget(max(la, lb), best_sim)
            indices, counts, __ = self._buckets[lb]
            deltas = counts - q_counts
            surplus = np.where(deltas > 0, deltas, 0).sum(axis=1)
            missing = np.where(deltas < 0, -deltas, 0).sum(axis=1) + q_unknown
            feasible = np.maximum(surplus, missing) <= budget
            for i in indices[feasible]:
                i = int(i)
                if self._first_token[i] == first:
                    continue  # already scanned in pass 1
                if consider(i):
                    return best_index, 1.0
        if not found:
            return None
        return best_index, best_sim


#: Sentinel distinguishing "memoized None" from "not memoized".
_MISS = object()
