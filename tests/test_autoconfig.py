"""Tests for the automatic configuration advisor."""

import dataclasses

import numpy as np
import pytest

from repro.core.autoconfig import _count_modes, suggest_config
from repro.core.config import IndiceConfig
from repro.faults.policy import ResiliencePolicy
from repro.dataset import SyntheticConfig, generate_epc_collection
from repro.dataset.table import Column, Table
from repro.preprocessing import ExpertConfigStore, OutlierMethod


@pytest.fixture(scope="module")
def collection():
    return generate_epc_collection(SyntheticConfig(n_certificates=2000, seed=3))


def synthetic_table(columns: dict[str, np.ndarray]) -> Table:
    return Table([Column.numeric(name, vals) for name, vals in columns.items()])


class TestModeCounting:
    def test_unimodal(self):
        rng = np.random.default_rng(0)
        assert _count_modes(rng.normal(0, 1, 3000)) == 1

    def test_bimodal(self):
        rng = np.random.default_rng(0)
        values = np.concatenate([rng.normal(0, 1, 1500), rng.normal(10, 1, 1500)])
        assert _count_modes(values) == 2

    def test_tiny_sample(self):
        assert _count_modes(np.arange(5.0)) == 1


class TestAdvice:
    def test_near_normal_gets_gesd(self):
        rng = np.random.default_rng(1)
        table = synthetic_table(
            {
                "aspect_ratio": rng.normal(0.5, 0.05, 2000),
                "u_value_opaque": rng.normal(0.6, 0.05, 2000),
                "u_value_windows": rng.normal(2.0, 0.1, 2000),
                "heated_surface": rng.normal(90, 5, 2000),
                "eta_h": rng.normal(0.8, 0.02, 2000),
                "eph": rng.normal(100, 5, 2000),
            }
        )
        advice = suggest_config(table)
        assert advice.attribute_advice["eta_h"].method is OutlierMethod.GESD
        assert advice.config.outlier_method is OutlierMethod.GESD

    def test_real_stock_gets_mad(self, collection):
        """The era-structured stock is skewed/multi-modal -> MAD dominates."""
        advice = suggest_config(collection.table)
        assert advice.config.outlier_method is OutlierMethod.MAD

    def test_small_sample_gets_boxplot(self):
        table = synthetic_table(
            {name: np.arange(10.0) for name in (
                "aspect_ratio", "u_value_opaque", "u_value_windows",
                "heated_surface", "eta_h", "eph",
            )}
        )
        advice = suggest_config(table)
        assert advice.attribute_advice["eph"].method is OutlierMethod.BOXPLOT

    def test_min_support_scales_with_size(self, collection):
        small = suggest_config(collection.table.head(500))
        large = suggest_config(collection.table)
        assert small.config.rule_constraints.min_support >= (
            large.config.rule_constraints.min_support
        )

    def test_support_bounds(self, collection):
        advice = suggest_config(collection.table.head(100))
        assert 0.01 <= advice.config.rule_constraints.min_support <= 0.1

    def test_k_range_grows_with_size(self, collection):
        small = suggest_config(collection.table.head(200))
        large = suggest_config(collection.table)
        assert large.config.k_range[1] >= small.config.k_range[1]

    def test_expert_history_overrides(self, collection):
        store = ExpertConfigStore()
        store.record_choice("eta_h", OutlierMethod.BOXPLOT, {"whisker": 2.0})
        advice = suggest_config(collection.table, expert_store=store)
        assert advice.attribute_advice["eta_h"].method is OutlierMethod.BOXPLOT
        assert "expert history" in advice.attribute_advice["eta_h"].reason

    def test_discretization_classes_clamped(self, collection):
        advice = suggest_config(collection.table)
        for item in advice.attribute_advice.values():
            assert 2 <= item.n_classes <= 4

    def test_response_plan_preserved(self, collection):
        base = IndiceConfig()
        advice = suggest_config(collection.table, base=base)
        assert advice.config.discretization_plan["eph"] == (
            base.discretization_plan["eph"]
        )

    def test_base_fields_the_advisor_does_not_set_are_kept(self, collection):
        base = IndiceConfig(
            outlier_overrides={"eta_h": (OutlierMethod.GESD, {"alpha": 0.01})},
            n_jobs=2,
            stage_cache=False,
            spill_dir="spill",
            resilience=ResiliencePolicy(geocoder_retries=0),
        )
        suggested = suggest_config(collection.table, base=base).config
        advised = {"outlier_method", "k_range", "discretization_plan", "rule_constraints"}
        for spec in dataclasses.fields(IndiceConfig):
            if spec.name not in advised:
                assert getattr(suggested, spec.name) == getattr(base, spec.name), spec.name
        assert dataclasses.replace(
            suggested.rule_constraints, min_support=base.rule_constraints.min_support
        ) == base.rule_constraints

    def test_describe_mentions_each_attribute(self, collection):
        advice = suggest_config(collection.table)
        text = advice.describe()
        for name in IndiceConfig().features:
            assert name in text

    def test_suggested_config_is_runnable(self, collection):
        """The advisor's output must be a valid IndiceConfig."""
        advice = suggest_config(collection.table)
        assert isinstance(advice.config, IndiceConfig)
        assert advice.config.response == "eph"
        assert advice.config.rule_template is not None
