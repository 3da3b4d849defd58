"""One object per distinct value: how categorical and text cells are stored.

``Column.categorical`` / ``Column.text`` keep one ``str`` per distinct
value and share it between the cells that hold it, and every path that
builds such columns — the generator, the noise model, CSV reading, the
shared-memory and spill codecs, the analytics ``cluster`` column —
inherits that.  The inputs here are built at run time (``"".join``,
f-strings, CSV parsing) so CPython's own constant and small-string
caching cannot make a check pass by accident.

The generator's categorical draws index into their options instead of
calling ``rng.choice(options, ...)``; the oracle below pins that the
rewrite consumes the identical RNG stream and yields equal values.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Indice, IndiceConfig
from repro.dataset import (
    NoiseConfig,
    SyntheticConfig,
    apply_noise,
    generate_epc_collection,
)
from repro.dataset.io import read_csv, write_csv
from repro.dataset.synthetic import _choose
from repro.dataset.table import Column, ColumnKind, Table
from repro.perf import SharedTable, attach_slice
from repro.perf.spill import SpillFile, write_spill


def _unshared(table: Table) -> list[str]:
    """The categorical / text columns holding more ``str`` objects than
    distinct values."""
    offenders = []
    for name in table.column_names:
        column = table.column(name)
        if column.kind is ColumnKind.NUMERIC:
            continue
        present = [v for v in column.values if v is not None]
        if len({id(v) for v in present}) != len(set(present)):
            offenders.append(name)
    return offenders


def _fresh(text: str) -> str:
    """An equal but newly allocated copy of *text*."""
    return "".join(list(text))


@pytest.fixture(scope="module")
def clean():
    return generate_epc_collection(SyntheticConfig(n_certificates=600, seed=41))


@pytest.fixture(scope="module")
def dirty(clean):
    return apply_noise(clean, NoiseConfig(seed=42)).table


class TestConstructors:
    @pytest.mark.parametrize("kind", [ColumnKind.CATEGORICAL, ColumnKind.TEXT])
    def test_equal_cells_share_one_object(self, kind):
        values = [_fresh("via " + w) for w in ("roma", "po", "roma") * 50] + [None]
        assert len({id(v) for v in values[:-1]}) == 150
        column = Column.from_kind("c", kind, values)
        assert list(column.values) == values
        assert len({id(v) for v in column.values[:-1]}) == 2
        assert column.values[-1] is None

    def test_values_equal_as_numbers_keep_their_own_strings(self):
        column = Column.categorical("c", [1, 1.0, True, "1", np.str_("1")])
        assert list(column.values) == ["1", "1.0", "True", "1", "1"]
        assert all(type(v) is str for v in column.values)
        assert column.values[0] is column.values[3] is column.values[4]

    def test_table_builders_share(self):
        kinds = {"zone": ColumnKind.CATEGORICAL, "street": ColumnKind.TEXT}
        rows = [
            {"zone": _fresh(f"zone {i % 3}"), "street": _fresh(f"via {i % 5}")}
            for i in range(60)
        ]
        by_rows = Table.from_rows(rows, kinds)
        by_columns = Table.from_columns(
            {name: [row[name] for row in rows] for name in kinds}, kinds
        )
        assert by_rows == by_columns
        assert _unshared(by_rows) == _unshared(by_columns) == []
        keys = Table([Column.categorical("zone", [_fresh("zone 1")] * 4)])
        assert _unshared(keys.join(by_rows, on="zone")) == []


class TestPipelinePaths:
    def test_generated_collection(self, clean):
        assert _unshared(clean.table) == []

    def test_noisy_collection(self, dirty):
        assert _unshared(dirty) == []

    def test_csv_round_trip(self, dirty, tmp_path):
        path = tmp_path / "epc.csv"
        write_csv(dirty, path)
        assert _unshared(read_csv(path, text_columns=("address",))) == []

    def test_shared_memory_round_trip(self, dirty):
        with SharedTable.create(dirty) as shared:
            back = attach_slice(shared.descriptor())
        assert back == dirty
        assert _unshared(back) == []

    def test_spill_round_trip(self, dirty, tmp_path):
        path = tmp_path / "table.spill"
        write_spill(dirty, path)
        with SpillFile.open(path) as spill:
            back = spill.to_table()
        assert back == dirty
        assert _unshared(back) == []

    def test_cluster_column(self, clean, dirty):
        engine = Indice(
            dataclasses.replace(clean, table=dirty),
            IndiceConfig(kmeans_n_init=1, k_range=(2, 4), stage_cache=False),
        )
        engine.preprocess()
        outcome = engine.analyze()
        cluster = outcome.table.column(outcome.cluster_column)
        labels = outcome.clustering.result.labels
        assert list(cluster.values) == [
            str(c) if c >= 0 else None for c in labels
        ]
        assert _unshared(outcome.table.select([outcome.cluster_column])) == []


class TestChoiceOracle:
    """``_choose`` against the ``rng.choice(options, ...)`` it replaced."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        # no NUL: the old form's fixed-width ``<U`` array drops trailing
        # NULs ("\x00" came back as ""); the generator's options are
        # plain literals, so only the new form's behaviour matters there
        options=st.lists(
            st.text(st.characters(blacklist_characters="\x00"), min_size=1, max_size=6),
            min_size=1, max_size=8, unique=True,
        ),
        n=st.integers(0, 300),
        weighted=st.booleans(),
        data=st.data(),
    )
    def test_same_values_and_same_stream(self, seed, options, n, weighted, data):
        options = tuple(options)
        p = None
        if weighted:
            weights = data.draw(
                st.lists(
                    st.integers(1, 100), min_size=len(options), max_size=len(options)
                )
            )
            p = tuple(w / sum(weights) for w in weights)
        reference = np.random.default_rng(seed)
        rewritten = np.random.default_rng(seed)
        expected = list(reference.choice(options, size=n, p=p))
        got = _choose(rewritten, options, n, p)
        assert got.dtype == object
        assert list(got) == expected
        assert rewritten.bit_generator.state == reference.bit_generator.state
        assert len({id(v) for v in got}) <= len(options)
