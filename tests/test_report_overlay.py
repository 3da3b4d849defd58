"""Tests for the plain-language report and the choropleth+scatter overlay."""

import numpy as np
import pytest

from repro import Indice, IndiceConfig, Stakeholder
from repro.core.report import generate_report
from repro.dashboard.maps import choropleth_with_scatter_map
from repro.dataset import (
    NoiseConfig,
    SyntheticConfig,
    apply_noise,
    generate_epc_collection,
)
from repro.geo.regions import Granularity


@pytest.fixture(scope="module")
def engine():
    collection = generate_epc_collection(SyntheticConfig(n_certificates=1500, seed=23))
    noisy = apply_noise(collection, NoiseConfig(seed=4))
    collection.table = noisy.table
    eng = Indice(
        collection,
        IndiceConfig(kmeans_n_init=2, k_range=(2, 6), run_multivariate_outliers=False),
    )
    eng.preprocess()
    eng.analyze()
    return eng


class TestReport:
    def test_report_sections_present(self, engine):
        report = generate_report(engine)
        for heading in (
            "# INDICE analysis report",
            "## Data cleaning",
            "## Feature check",
            "## Groups of similar buildings",
            "## What drives the heating demand",
            "## Where to act",
        ):
            assert heading in report

    def test_numbers_consistent_with_outcomes(self, engine):
        report = generate_report(engine)
        analysis = engine._analyzed
        assert f"K = {analysis.clustering.chosen_k}" in report
        assert f"{analysis.table.n_rows} certificates analyzed" in report
        assert f"{engine._preprocessed.cleaning.resolution_rate():.1%}" in report

    def test_every_cluster_described(self, engine):
        report = generate_report(engine)
        for cluster in range(engine._analyzed.clustering.chosen_k):
            assert f"**Group {cluster}**" in report

    def test_rules_in_plain_language(self, engine):
        report = generate_report(engine)
        if engine._analyzed.rules:
            rules_section = report.split("## What drives")[1].split("## Where")[0]
            assert "when " in rules_section
            assert "confidence" in rules_section
            # no raw {attr=value} -> {attr=value} syntax leaks through
            assert "->" not in rules_section
            assert "{" not in rules_section
            assert "_" not in rules_section  # attribute names are humanized

    def test_custom_title(self, engine):
        assert generate_report(engine, title="Custom").startswith("# Custom")

    def test_requires_completed_run(self):
        collection = generate_epc_collection(SyntheticConfig(n_certificates=200, seed=1))
        with pytest.raises(RuntimeError):
            generate_report(Indice(collection))


class TestChoroplethScatterOverlay:
    def test_both_layers_rendered(self, engine):
        analysis = engine._analyzed
        table = analysis.table
        means = table.aggregate("neighbourhood", "eph", np.mean)
        means.pop(None, None)
        render = choropleth_with_scatter_map(
            engine.collection.hierarchy, Granularity.NEIGHBOURHOOD, means,
            table["latitude"], table["longitude"], table["eph"], "eph",
        )
        n_regions = len(engine.collection.hierarchy.neighbourhoods)
        located = int(
            (~(np.isnan(table["latitude"]) | np.isnan(table["longitude"]))).sum()
        )
        assert render.svg.count("<polygon") == n_regions
        assert render.svg.count("<circle") == located
        assert len(render.geojson["features"]) == n_regions + located

    def test_subsampling_cap(self, engine):
        table = engine._analyzed.table
        means = table.aggregate("district", "eph", np.mean)
        means.pop(None, None)
        render = choropleth_with_scatter_map(
            engine.collection.hierarchy, Granularity.DISTRICT, means,
            table["latitude"], table["longitude"], table["eph"], "eph",
            max_points=50,
        )
        assert render.svg.count("<circle") <= 50

    def test_shared_scale_single_legend(self, engine):
        table = engine._analyzed.table
        means = table.aggregate("district", "eph", np.mean)
        means.pop(None, None)
        render = choropleth_with_scatter_map(
            engine.collection.hierarchy, Granularity.DISTRICT, means,
            table["latitude"], table["longitude"], table["eph"], "eph",
            max_points=100,
        )
        # exactly one legend label for the shared scale
        assert render.svg.count(">eph</text>") == 1

    def test_unit_level_rejected(self, engine):
        with pytest.raises(ValueError):
            choropleth_with_scatter_map(
                engine.collection.hierarchy, Granularity.UNIT, {},
                np.array([45.07]), np.array([7.68]), np.array([1.0]), "eph",
            )
