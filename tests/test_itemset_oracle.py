"""Differential oracle for the bitset Apriori miner.

:class:`ItemsetMiner` joins frequent itemsets level by level and counts
support with per-item bitsets.  It must return exactly the itemsets, and
exactly the supports, of a brute-force enumeration that tries every
combination of items with distinct attributes and counts its support
row by row.
"""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytics.apriori import ItemsetMiner, transactions_from_table
from repro.analytics.rules import RuleConstraints, generate_rules
from repro.dataset.table import Column, Table


def brute_force_itemsets(transactions, min_support: float, max_length: int) -> dict:
    """Every itemset of distinct attributes, up to *max_length* items,
    whose directly counted support reaches *min_support*."""
    n = len(transactions)
    rows = [set(tx) for tx in transactions]
    items = sorted(set().union(*rows))
    supports = {}
    for k in range(1, max_length + 1):
        for combo in itertools.combinations(items, k):
            if len({item.attribute for item in combo}) < k:
                continue
            count = sum(1 for row in rows if row.issuperset(combo))
            if count >= min_support * n:
                supports[combo] = count / n
    return supports


_SHAPES = (
    "random", "empty", "single", "identical", "single-valued", "none", "non-ascii",
)


def _transactions(shape: str, seed: int):
    """Transactions of one adversarial shape over four attributes."""
    rng = np.random.default_rng(seed)
    n = {"empty": 0, "single": 1}.get(shape, int(rng.integers(2, 40)))
    alphabets = {
        "a": ["x", "y"], "b": ["p", "q", "r"], "c": ["0", "1"], "d": ["m", "n"],
    }
    if shape == "single-valued":
        alphabets["b"] = ["only"]
    if shape == "non-ascii":
        alphabets["a"] = ["città", "日本"]
        alphabets["d"] = ["Ørsted", "é"]
    values = {name: list(rng.choice(pool, n)) for name, pool in alphabets.items()}
    if shape == "identical":
        values = {name: column[:1] * n for name, column in values.items()}
    if shape == "none":
        values = {
            name: [None if rng.random() < 0.3 else v for v in column]
            for name, column in values.items()
        }
    table = Table([Column.categorical(name, column) for name, column in values.items()])
    return transactions_from_table(table, list(alphabets))


@given(
    st.sampled_from(_SHAPES),
    st.integers(0, 10_000),
    st.sampled_from([0.05, 0.1, 0.2, 0.4]),
    st.integers(1, 4),
)
@settings(max_examples=100, deadline=None)
def test_apriori_matches_brute_force(shape, seed, min_support, max_length):
    tx = _transactions(shape, seed)
    mined = ItemsetMiner(min_support=min_support, max_length=max_length).mine(tx)
    assert mined.supports == brute_force_itemsets(tx, min_support, max_length)
    assert all(len(itemset) <= max_length for itemset in mined.supports)
    # every split of every itemset finds its antecedent and consequent
    rules = generate_rules(
        mined,
        RuleConstraints(
            min_support=min_support, min_confidence=0.0, min_lift=0.0,
            min_conviction=0.0,
        ),
    )
    assert len(rules) == sum(
        2 ** len(itemset) - 2 for itemset in mined.supports if len(itemset) > 1
    )
