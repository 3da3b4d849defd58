"""Integration tests for the Indice engine, config and provenance log."""

import numpy as np
import pytest

from repro import Granularity, Indice, IndiceConfig, Stakeholder
from repro.core.config import DEFAULT_DISCRETIZATION_PLAN
from repro.core.session import ProvenanceLog
from repro.dataset import (
    NoiseConfig,
    SyntheticConfig,
    apply_noise,
    generate_epc_collection,
)
from repro.preprocessing.outliers import OutlierMethod


@pytest.fixture(scope="module")
def collection():
    c = generate_epc_collection(SyntheticConfig(n_certificates=2500, seed=31))
    noisy = apply_noise(c, NoiseConfig(seed=13))
    c.table = noisy.table
    return c


@pytest.fixture(scope="module")
def engine(collection):
    eng = Indice(
        collection,
        IndiceConfig(kmeans_n_init=2, k_range=(2, 8), geocoder_quota=500),
    )
    eng.preprocess()
    eng.analyze()
    return eng


class TestConfig:
    def test_defaults_match_paper(self):
        cfg = IndiceConfig()
        assert cfg.city == "Turin"
        assert cfg.building_type == "E.1.1"
        assert cfg.response == "eph"
        assert cfg.outlier_method is OutlierMethod.MAD
        assert cfg.discretization_plan == DEFAULT_DISCRETIZATION_PLAN
        assert cfg.rule_template.consequent_attributes == ("eph",)

    def test_response_in_features_rejected(self):
        with pytest.raises(ValueError):
            IndiceConfig(features=("eph", "eta_h"))

    def test_footnote4_plan(self):
        assert DEFAULT_DISCRETIZATION_PLAN["u_value_windows"] == 4
        assert DEFAULT_DISCRETIZATION_PLAN["u_value_opaque"] == 3
        assert DEFAULT_DISCRETIZATION_PLAN["eta_h"] == 3


class TestProvenance:
    def test_log_records_and_describes(self):
        log = ProvenanceLog()
        log.record("preprocessing", "test", value=1)
        log.record("analytics", "other")
        assert len(log) == 2
        assert log.stages() == ["preprocessing", "analytics"]
        assert "preprocessing/test (value=1)" in log.describe()
        assert len(log.for_stage("analytics")) == 1


class TestPreprocess:
    def test_outcome_shape(self, engine):
        outcome = engine._preprocessed
        assert outcome.n_rows_in == 2500
        assert 0 < outcome.n_rows_out < outcome.n_rows_in
        assert outcome.n_outlier_rows > 0
        assert set(outcome.univariate_outliers) == set(
            engine.config.features + (engine.config.response,)
        )

    def test_cleaning_scoped_to_city(self, engine, collection):
        cleaning = engine._preprocessed.cleaning
        n_city = sum(1 for c in collection.table["city"] if c == "Turin")
        assert cleaning.n_checked == n_city
        assert cleaning.resolution_rate() > 0.95

    def test_out_of_city_rows_untouched(self, engine, collection):
        """Non-Turin geospatial fields must survive preprocessing unchanged."""
        outcome = engine.preprocess()  # fresh run for a clean comparison
        dirty = collection.table
        # find a non-Turin row in the OUTPUT and match it by certificate id
        out_ids = {cid: i for i, cid in enumerate(outcome.table["certificate_id"])}
        checked = 0
        for i in range(dirty.n_rows):
            if dirty["city"][i] == "Turin":
                continue
            j = out_ids.get(dirty["certificate_id"][i])
            if j is None:
                continue  # dropped as outlier
            assert outcome.table["address"][j] == dirty["address"][i]
            lat_in, lat_out = dirty["latitude"][i], outcome.table["latitude"][j]
            assert (np.isnan(lat_in) and np.isnan(lat_out)) or lat_in == lat_out
            checked += 1
            if checked >= 25:
                break
        assert checked > 0

    def test_flagged_rows_removed(self, engine):
        """No surviving row may be flagged by the configured detector."""
        from repro.preprocessing.outliers import detect_outliers

        outcome = engine._preprocessed
        for name in engine.config.features:
            result = detect_outliers(outcome.table[name], engine.config.outlier_method)
            # re-detection on the filtered data may flag new borderline points,
            # but the gross planted outliers (x10/x100) must be gone
            values = outcome.table.column(name).non_missing()
            spec = engine.collection.schema.spec(name)
            assert values.max() <= spec.hi * 1.5


class TestAnalyze:
    def test_outcome_components(self, engine):
        outcome = engine._analyzed
        assert outcome.correlation.is_eligible()
        assert 2 <= outcome.clustering.chosen_k <= 8
        assert outcome.rules
        assert set(outcome.discretizations) <= set(DEFAULT_DISCRETIZATION_PLAN)

    def test_cluster_column_attached(self, engine):
        table = engine._analyzed.table
        assert "cluster" in table
        labels = [v for v in table["cluster"] if v is not None]
        assert len(set(labels)) == engine._analyzed.clustering.chosen_k

    def test_selection_is_case_study(self, engine):
        table = engine._analyzed.table
        assert all(v == "Turin" for v in table["city"])
        assert all(v == "E.1.1" for v in table["building_type"])

    def test_rules_explain_response(self, engine):
        for rule in engine._analyzed.rules:
            assert all(i.attribute == "eph" for i in rule.consequent)

    def test_clusters_order_response(self, engine):
        """Per-cluster EP_H means must differ (clusters separate performance)."""
        table = engine._analyzed.table
        means = table.aggregate("cluster", "eph", np.mean)
        means.pop(None, None)
        values = sorted(means.values())
        assert values[-1] > values[0] * 1.3


class TestDashboards:
    @pytest.mark.parametrize("stakeholder", list(Stakeholder))
    def test_dashboard_per_stakeholder(self, engine, stakeholder):
        dash = engine.build_dashboard(stakeholder)
        assert len(dash.panels) >= 5
        kinds = {p.kind for p in dash.panels}
        assert "map" in kinds
        assert "correlation_matrix" in kinds
        assert "rules_table" in kinds

    def test_unit_granularity_has_scatter(self, engine):
        dash = engine.build_dashboard(Stakeholder.CITIZEN, Granularity.UNIT)
        titles = " ".join(dash.panel_titles())
        assert "per certificate" in titles

    def test_district_granularity_has_choropleth(self, engine):
        dash = engine.build_dashboard(
            Stakeholder.PUBLIC_ADMINISTRATION, Granularity.DISTRICT
        )
        assert any("Average eph by district" in t for t in dash.panel_titles())

    def test_html_roundtrip(self, engine, tmp_path):
        dash = engine.build_dashboard(Stakeholder.PUBLIC_ADMINISTRATION)
        path = dash.save(tmp_path / "d.html")
        text = path.read_text()
        assert text.startswith("<!DOCTYPE html>")
        assert "<svg" in text

    def test_requires_analysis_first(self, collection):
        fresh = Indice(collection)
        with pytest.raises(RuntimeError, match="analyze"):
            fresh.build_dashboard(Stakeholder.CITIZEN)
        with pytest.raises(RuntimeError, match="preprocess"):
            fresh.select_case_study()

    def test_provenance_covers_all_stages(self, engine):
        engine.build_dashboard(Stakeholder.CITIZEN)
        assert set(engine.log.stages()) >= {
            "preprocessing", "selection", "analytics", "visualization",
        }
