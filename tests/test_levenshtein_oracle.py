"""Differential oracle for the bit-parallel Levenshtein kernel.

The fast path in :mod:`repro.text.levenshtein` advances a whole DP column
per character with integer bit operations and stops early once a budget
is out of reach.  Every entry point built on it — ``distance``,
``distance_within``, ``similarity_at_least`` and the pruned
``GazetteerIndex`` — is checked here against the textbook full-matrix
dynamic program, on adversarial shapes: empty, single-character,
identical and all-same-character strings, repeated tokens, accented and
other non-ASCII characters, and strings longer than one 64-bit word.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.text.levenshtein import (
    GazetteerIndex,
    distance,
    distance_within,
    similarity_at_least,
)


def oracle_distance(a: str, b: str) -> int:
    """Wagner–Fischer: the full (len(a)+1) x (len(b)+1) edit matrix."""
    rows, cols = len(a) + 1, len(b) + 1
    d = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        d[i][0] = i
    for j in range(cols):
        d[0][j] = j
    for i in range(1, rows):
        for j in range(1, cols):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            d[i][j] = min(
                d[i - 1][j] + 1,  # deletion
                d[i][j - 1] + 1,  # insertion
                d[i - 1][j - 1] + cost,  # substitution or match
            )
    return d[rows - 1][cols - 1]


def oracle_similarity(a: str, b: str) -> float:
    """``1 - distance / longer length``; two empty strings are equal."""
    longest = max(len(a), len(b))
    return 1.0 if longest == 0 else 1.0 - oracle_distance(a, b) / longest


def oracle_best_match(query, candidates, phi):
    """Brute force: the highest similarity >= phi, lowest index on ties."""
    best = None
    for i, cand in enumerate(candidates):
        sim = oracle_similarity(query, cand)
        if sim >= phi and (best is None or sim > best[1]):
            best = (i, sim)
    return best


_ALPHABET = "ab cèéà"
_TOKENS = ["via", "roma", "corso", "è", "po"]

#: One string of an adversarial shape.
_STRINGS = st.one_of(
    st.just(""),
    st.text(alphabet=_ALPHABET, min_size=1, max_size=1),
    st.builds(lambda ch, n: ch * n, st.sampled_from(_ALPHABET), st.integers(1, 90)),
    st.lists(st.sampled_from(_TOKENS), max_size=10).map(" ".join),
    st.text(alphabet=_ALPHABET + "øß日ñ", min_size=65, max_size=140),
    st.text(max_size=30),
)


@st.composite
def _pairs(draw):
    """Independent strings, identical strings, or one string and an edit of it."""
    a = draw(_STRINGS)
    shape = draw(st.sampled_from(["independent", "identical", "edited"]))
    if shape == "identical":
        return a, a
    if shape == "independent":
        return a, draw(_STRINGS)
    b = list(a)
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(b)))
        op = draw(st.sampled_from(["insert", "delete", "substitute"]))
        ch = draw(st.sampled_from(_ALPHABET))
        if op == "insert" or not b:
            b.insert(pos, ch)
        elif op == "delete":
            del b[min(pos, len(b) - 1)]
        else:
            b[min(pos, len(b) - 1)] = ch
    return a, "".join(b)


class TestAgainstFullMatrix:
    @given(_pairs())
    @example(("abcd", "xabc"))  # a free text prefix would make this 1
    @settings(max_examples=400, deadline=None)
    def test_distance(self, pair):
        a, b = pair
        assert distance(a, b) == oracle_distance(a, b)

    @given(_pairs())
    @settings(max_examples=300, deadline=None)
    def test_distance_within_every_budget(self, pair):
        a, b = pair
        d = oracle_distance(a, b)
        for budget in (-1, 0, d - 1, d, d + 1000):
            expected = d if 0 <= budget and d <= budget else None
            assert distance_within(a, b, budget) == expected, budget

    @given(_pairs(), st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.8, 1.0])))
    @settings(max_examples=300, deadline=None)
    def test_similarity_at_least(self, pair, phi):
        a, b = pair
        sim = oracle_similarity(a, b)
        assert similarity_at_least(a, b, phi) == (sim if sim >= phi else None)

    @given(_pairs())
    @settings(max_examples=200, deadline=None)
    def test_similarity_at_least_on_the_boundary(self, pair):
        """phi equal to the true similarity must still accept it."""
        a, b = pair
        sim = oracle_similarity(a, b)
        assert similarity_at_least(a, b, sim) == sim


class TestGazetteerAgainstBruteForce:
    @given(
        st.lists(_STRINGS, max_size=12),
        _STRINGS,
        st.one_of(st.sampled_from([0.0, 0.5, 0.8, 0.9, 1.0]), st.floats(0.0, 1.0)),
    )
    @settings(max_examples=300, deadline=None)
    def test_best_match(self, candidates, query, phi):
        index = GazetteerIndex(candidates)
        assert index.best_match(query, phi) == oracle_best_match(query, candidates, phi)

    @given(st.lists(st.sampled_from(["via roma", "via rome", "via è", "", "via"]), max_size=10),
           st.sampled_from(["via roma", "via romà", "via", "", "è"]))
    @settings(max_examples=150, deadline=None)
    def test_ties_resolve_to_the_lowest_index(self, candidates, query):
        index = GazetteerIndex(candidates)
        assert index.best_match(query, 0.0) == oracle_best_match(query, candidates, 0.0)
