"""Failure-injection and edge-case tests across the pipeline.

The paper's system runs on open data submitted by thousands of
certifiers; the pipeline must survive pathological inputs rather than
assume the happy path.  These tests inject the failure modes a real
deployment sees: empty selections, fully-corrupted fields, exhausted
quotas, degenerate distributions and hostile strings.
"""

import warnings

import numpy as np
import pytest

from repro import Indice, IndiceConfig, Stakeholder
from repro.analytics.discretize import discretize_attribute, quantile_discretization
from repro.analytics.kmeans import kmeans_auto, standardize
from repro.dataset import NoiseConfig, SyntheticConfig, apply_noise, generate_epc_collection
from repro.dataset.table import Column, ColumnKind, Table
from repro.preprocessing import (
    AddressCleaner,
    CleaningConfig,
    MatchStatus,
    SimulatedGeocoder,
)


@pytest.fixture(scope="module")
def tiny_collection():
    return generate_epc_collection(SyntheticConfig(n_certificates=600, seed=99))


class TestHostileAddresses:
    @pytest.mark.parametrize(
        "hostile",
        [
            "",                          # empty
            "    ",                      # whitespace only
            "12345",                     # digits only
            "!!!???",                    # punctuation only
            "a" * 500,                   # absurdly long
            "via " + "x" * 200,          # long tail
            "VIA ROMA; DROP TABLE EPC",  # injection-looking content
            "via rómà ünïcodé",          # accents beyond Italian
        ],
    )
    def test_cleaner_never_crashes(self, tiny_collection, hostile):
        cleaner = AddressCleaner(
            tiny_collection.street_map, CleaningConfig(use_geocoder=False)
        )
        street, status, sim = cleaner.resolve_street(hostile)
        assert status in set(MatchStatus)
        assert 0.0 <= sim <= 1.0

    def test_geocoder_never_crashes(self, tiny_collection):
        geocoder = SimulatedGeocoder(tiny_collection.street_map, quota=100)
        for hostile in ("", "   ", "123", "!!!", "a" * 300):
            response = geocoder.geocode(hostile)
            assert response.status in ("ok", "not_found")

    def test_clean_table_with_all_fields_missing(self, tiny_collection):
        table = Table(
            [
                Column.text("address", [None] * 5),
                Column.text("house_number", [None] * 5),
                Column.categorical("zip_code", [None] * 5),
                Column.numeric("latitude", [None] * 5),
                Column.numeric("longitude", [None] * 5),
            ]
        )
        cleaner = AddressCleaner(
            tiny_collection.street_map, CleaningConfig(use_geocoder=False)
        )
        report = cleaner.clean_table(table)
        assert all(a.status is MatchStatus.SKIPPED for a in report.audits)
        assert report.resolution_rate() == 0.0


class TestDegenerateDistributions:
    def test_quantile_discretization_with_ties_collapses(self):
        values = np.array([1.0] * 95 + [2.0] * 5)
        disc = quantile_discretization(values, 4)
        assert disc.n_classes < 4  # duplicate quantile edges collapsed
        assert disc.label_of(1.0) is not None

    def test_cart_discretization_tiny_sample(self):
        values = np.arange(10.0)
        response = values * 2
        disc = discretize_attribute(values, response, 3, min_samples_leaf=30)
        assert disc.n_classes == 1  # not enough rows for any split

    def test_kmeans_auto_on_single_blob(self):
        rng = np.random.default_rng(0)
        matrix = rng.normal(0, 1, (200, 3))
        auto = kmeans_auto(matrix, (2, 6), n_init=2)
        assert 2 <= auto.chosen_k <= 6  # no crash, a defensible K

    def test_standardize_single_row(self):
        z, __ = standardize(np.array([[3.0, 4.0]]))
        assert np.allclose(z, 0.0)


class TestPipelineResilience:
    def test_zero_quota_pipeline_still_completes(self, tiny_collection):
        noisy = apply_noise(tiny_collection, NoiseConfig(seed=1))
        collection = generate_epc_collection(SyntheticConfig(n_certificates=600, seed=99))
        collection.table = noisy.table
        engine = Indice(
            collection,
            IndiceConfig(geocoder_quota=0, kmeans_n_init=2, k_range=(2, 5),
                         run_multivariate_outliers=False),
        )
        dash = engine.run(Stakeholder.CITIZEN)
        assert dash.panels
        cleaning = engine._preprocessed.cleaning
        assert cleaning.geocoder_quota_exhausted or cleaning.geocoder_requests == 0

    def test_empty_selection_raises_cleanly(self, tiny_collection):
        engine = Indice(
            tiny_collection,
            IndiceConfig(city="Atlantis", kmeans_n_init=2, run_multivariate_outliers=False),
        )
        engine.preprocess()
        selected = engine.select_case_study()
        assert selected.n_rows == 0
        # the error comes before any statistic of the empty selection
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="no complete feature rows"):
                engine.analyze(selected)

    def test_selection_without_complete_rows_raises_cleanly(self, tiny_collection):
        engine = Indice(
            tiny_collection,
            IndiceConfig(kmeans_n_init=2, run_multivariate_outliers=False),
        )
        engine.preprocess()
        selected = engine.select_case_study()
        assert selected.n_rows > 0
        blank = Column(
            engine.config.features[0], ColumnKind.NUMERIC, np.full(selected.n_rows, np.nan)
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="no complete feature rows"):
                engine.analyze(selected.with_column(blank))

    def test_extreme_noise_pipeline_completes(self):
        collection = generate_epc_collection(SyntheticConfig(n_certificates=800, seed=5))
        brutal = NoiseConfig(
            seed=2,
            p_address_typo=0.6,
            p_zip_missing=0.3,
            p_coords_missing=0.3,
            p_numeric_outlier=0.05,
            p_numeric_missing=0.05,
        )
        noisy = apply_noise(collection, brutal)
        collection.table = noisy.table
        engine = Indice(
            collection, IndiceConfig(kmeans_n_init=2, k_range=(2, 5))
        )
        dash = engine.run(Stakeholder.PUBLIC_ADMINISTRATION)
        assert dash.panels
        # heavy corruption must cost resolution, not correctness
        assert engine._preprocessed.cleaning.resolution_rate() > 0.6

    def test_noise_free_input_is_mostly_untouched(self, tiny_collection):
        """Cleaning a clean collection must not rewrite resolved streets."""
        engine = Indice(
            tiny_collection,
            IndiceConfig(kmeans_n_init=2, run_multivariate_outliers=False),
        )
        table = tiny_collection.table
        outcome = engine.preprocess(table)
        address_of = dict(zip(table["certificate_id"], table["address"]))
        rewritten = [
            cid
            for cid, address in zip(
                outcome.table["certificate_id"], outcome.table["address"]
            )
            if address != address_of[cid]
        ]
        assert outcome.cleaning.n_checked > 0
        assert not rewritten

    def test_rules_empty_when_thresholds_impossible(self, tiny_collection):
        from repro.analytics.rules import RuleConstraints

        engine = Indice(
            tiny_collection,
            IndiceConfig(
                kmeans_n_init=2,
                k_range=(2, 5),
                run_multivariate_outliers=False,
                rule_constraints=RuleConstraints(min_support=0.99, min_confidence=0.99),
            ),
        )
        engine.preprocess()
        outcome = engine.analyze()
        assert outcome.rules == []
        # dashboard must still render with an empty rules table
        dash = engine.build_dashboard(Stakeholder.ENERGY_SCIENTIST)
        assert any(p.kind == "rules_table" for p in dash.panels)
