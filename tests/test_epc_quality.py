"""Tests for the EpcRecord view, schema validation and quality profiling."""

import numpy as np
import pytest

from repro.dataset import (
    NoiseConfig,
    SyntheticConfig,
    apply_noise,
    epc_schema,
    generate_epc_collection,
    records,
    validate_table,
)
from repro.dataset.epc import EpcRecord
from repro.dataset.table import Column, Table
from repro.preprocessing.quality import assess_quality


@pytest.fixture(scope="module")
def collection():
    return generate_epc_collection(SyntheticConfig(n_certificates=800, seed=12))


@pytest.fixture(scope="module")
def noisy(collection):
    return apply_noise(collection, NoiseConfig(seed=3))


class TestEpcRecord:
    def test_named_accessors(self, collection):
        record = EpcRecord(collection.table, 0)
        assert record.certificate_id.startswith("EPC-")
        assert isinstance(record.eph, float)
        assert record.energy_class in epc_schema().spec("energy_class").categories
        assert record.coordinates is not None

    def test_full_address(self, collection):
        record = EpcRecord(collection.table, 0)
        assert record.address in record.full_address
        assert record.house_number in record.full_address

    def test_nan_becomes_none(self):
        table = Table(
            [
                Column.numeric("eph", [None]),
                Column.numeric("latitude", [None]),
                Column.numeric("longitude", [7.6]),
            ]
        )
        record = EpcRecord(table, 0)
        assert record.eph is None
        assert record.coordinates is None

    def test_records_iterator(self, collection):
        head = collection.table.head(5)
        items = list(records(head))
        assert len(items) == 5
        assert all(isinstance(r, EpcRecord) for r in items)

    def test_repr_is_informative(self, collection):
        text = repr(EpcRecord(collection.table, 0))
        assert "EPC-" in text


class TestValidation:
    def test_clean_collection_valid(self, collection):
        report = validate_table(collection.table)
        assert report.is_valid

    def test_noise_outliers_flagged(self, collection, noisy):
        report = validate_table(noisy.table)
        assert not report.is_valid
        flagged_attrs = set(report.by_attribute())
        planted_attrs = {
            ev.attribute for ev in noisy.events if ev.kind == "outlier"
        }
        assert flagged_attrs & planted_attrs

    def test_numeric_range_violation(self):
        table = Table([Column.numeric("eta_h", [0.8, 99.0])])
        report = validate_table(table)
        assert len(report.issues) == 1
        assert report.issues[0].row == 1
        assert "plausible range" in report.issues[0].reason

    def test_vocabulary_violation(self):
        table = Table([Column.categorical("energy_class", ["A4", "Z9"])])
        report = validate_table(table)
        assert len(report.issues) == 1
        assert report.issues[0].value == "Z9"

    def test_missing_always_acceptable(self):
        table = Table(
            [Column.numeric("eta_h", [None]), Column.categorical("energy_class", [None])]
        )
        assert validate_table(table).is_valid

    def test_max_issues_cap(self):
        table = Table([Column.numeric("eta_h", [99.0] * 100)])
        report = validate_table(table, max_issues=10)
        assert len(report.issues) == 10

    def test_rows_affected(self):
        table = Table([Column.numeric("eta_h", [99.0, 0.8, 99.0])])
        assert validate_table(table).rows_affected() == {0, 2}

    def test_unknown_columns_ignored(self):
        table = Table([Column.numeric("mystery", [1.0])])
        assert validate_table(table).is_valid


class TestQualityProfile:
    def test_clean_collection_profile(self, collection):
        profile = assess_quality(
            collection.table, hierarchy=collection.hierarchy
        )
        assert profile.n_rows == 800
        assert profile.overall_missing_rate() < 0.01
        assert profile.n_duplicate_certificates == 0
        assert profile.n_unlocated == 0

    def test_noisy_collection_profile(self, collection, noisy):
        profile = assess_quality(noisy.table, hierarchy=collection.hierarchy)
        assert profile.n_unlocated > 0          # coords_missing noise
        assert profile.n_outside_region > 0     # gross_error noise
        assert profile.overall_missing_rate() > 0.0
        eph_quality = profile.attributes["eph"]
        assert eph_quality.n_missing > 0
        assert eph_quality.usable_rate < 1.0

    def test_duplicates_detected(self, collection):
        table = collection.table.head(10)
        doubled = table.vstack(table)
        profile = assess_quality(doubled)
        assert profile.n_duplicate_certificates == 10
        assert profile.duplicate_groups[0][1] == 2

    def test_worst_attributes_ranked(self, collection, noisy):
        profile = assess_quality(noisy.table)
        worst = profile.worst_attributes(3)
        rates = [a.missing_rate for a in worst]
        assert rates == sorted(rates, reverse=True)

    def test_describe_mentions_key_facts(self, collection, noisy):
        profile = assess_quality(noisy.table, hierarchy=collection.hierarchy)
        text = profile.describe()
        assert "missing rate" in text
        assert "unlocated" in text

    def test_implausible_counted(self, collection, noisy):
        profile = assess_quality(noisy.table)
        total_implausible = sum(a.n_implausible for a in profile.attributes.values())
        assert total_implausible > 0

    def test_implausible_counts_are_exact_past_the_issue_cap(self):
        """More bad cells than ``validate_table`` collects issues for: the
        attribute profiled first and the one profiled after it are both
        counted exactly."""
        n = 12_000
        table = Table([
            Column.numeric("eta_h", [99.0] * n),
            Column.categorical("energy_class", ["Z9", "A4"] * (n // 2)),
        ])
        assert len(validate_table(table).issues) == 10_000  # the cap binds
        profile = assess_quality(table)
        assert profile.attributes["eta_h"].n_implausible == n
        assert profile.attributes["energy_class"].n_implausible == n // 2

    def test_empty_table(self):
        profile = assess_quality(Table([Column.numeric("eph", [])]))
        assert profile.n_rows == 0
        assert profile.overall_missing_rate() == 0.0
