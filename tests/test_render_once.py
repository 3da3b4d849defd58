"""Stakeholder-independent dashboard panels render once per outcome.

The three stakeholder dashboards share every map and the histogram,
correlation, rules and summary panels.  :meth:`AnalyticsOutcome.panel`
memoizes them, keyed on everything the outcome does not fix (panel kind,
zoom, response, region hierarchy).  These tests pin the three halves of
that contract:

* each map builder runs once per distinct argument set;
* memoized bodies are byte-identical to a build with the memo cleared;
* engines sharing one cached outcome but differing in hierarchy or
  response never receive each other's SVG.
"""

import copy
import dataclasses
from collections import Counter

import pytest

from repro import Granularity, Indice, IndiceConfig, Stakeholder
from repro.core import engine as engine_mod
from repro.dataset import (
    NoiseConfig,
    SyntheticConfig,
    apply_noise,
    generate_epc_collection,
)
from repro.perf.cache import StageCache

_MAP_BUILDERS = (
    "choropleth_map",
    "choropleth_with_scatter_map",
    "cluster_marker_map",
    "scatter_map",
)


@pytest.fixture(scope="module")
def collection():
    c = generate_epc_collection(SyntheticConfig(n_certificates=900, seed=5))
    c.table = apply_noise(c, NoiseConfig(seed=6)).table
    return c


def _config(**overrides) -> IndiceConfig:
    return IndiceConfig(kmeans_n_init=2, k_range=(2, 5), **overrides)


def _analyzed(collection, cache=None, **overrides) -> Indice:
    engine = Indice(collection, _config(**overrides), cache=cache)
    engine.preprocess()
    engine.analyze()
    return engine


def _pages(engine, analytics=None) -> dict:
    return {
        s: engine.build_navigable_dashboard(s, analytics=analytics).to_html()
        for s in Stakeholder
    }


def _map_bodies(engine, analytics=None) -> list[str]:
    return [
        panel.body
        for s in Stakeholder
        for __, dash in engine.build_navigable_dashboard(
            s, analytics=analytics
        ).tabs
        for panel in dash.panels_of_kind("map")
    ]


def _renamed(hierarchy):
    """A copy of *hierarchy* whose every region carries another name.

    Every map draws region names (tooltips or outline titles), so each
    map of the copy differs from the original's.
    """
    renamed = copy.deepcopy(hierarchy)
    for region in [renamed.city, *renamed.districts, *renamed.neighbourhoods]:
        region.name = f"{region.name} (renamed)"
        region.parent = region.parent and f"{region.parent} (renamed)"
    return renamed


class TestRenderOnce:
    def test_each_map_builder_runs_once_per_argument_set(
        self, collection, monkeypatch
    ):
        engine = _analyzed(collection, stage_cache=False)
        calls: Counter = Counter()

        def counting(name):
            original = getattr(engine_mod, name)

            def wrapper(*args, **kwargs):
                zoom = [a for a in args if isinstance(a, Granularity)]
                calls[(name, *zoom)] += 1
                return original(*args, **kwargs)

            return wrapper

        for name in _MAP_BUILDERS:
            monkeypatch.setattr(engine_mod, name, counting(name))
        _pages(engine)
        assert calls == {
            ("choropleth_map", Granularity.DISTRICT): 1,
            ("choropleth_with_scatter_map", Granularity.NEIGHBOURHOOD): 1,
            ("cluster_marker_map", Granularity.CITY): 1,
            ("cluster_marker_map", Granularity.DISTRICT): 1,
            ("cluster_marker_map", Granularity.NEIGHBOURHOOD): 1,
            ("cluster_marker_map", Granularity.UNIT): 1,
            ("scatter_map",): 1,
        }

    def test_memoized_pages_equal_a_build_with_the_memo_cleared(
        self, collection
    ):
        engine = _analyzed(collection, stage_cache=False)
        memoized = _pages(engine)
        memoized_maps = _map_bodies(engine)
        outcome = engine._require_analyzed()
        for stakeholder in Stakeholder:
            outcome._memo.clear()
            fresh = engine.build_navigable_dashboard(stakeholder).to_html()
            assert fresh.encode() == memoized[stakeholder].encode()
        outcome._memo.clear()
        assert _map_bodies(engine) == memoized_maps

    def test_memo_keeps_no_geojson(self, collection):
        engine = _analyzed(collection, stage_cache=False)
        _pages(engine)
        panels = [
            value
            for key, value in engine._require_analyzed()._memo.items()
            if key[0] == "panel"
        ]
        assert panels
        for panel in panels:
            assert {f.name for f in dataclasses.fields(panel)} == {
                "title", "caption", "body", "kind",
            }


class TestSharedOutcomeIsolation:
    def test_different_hierarchy_never_shares_an_svg(self, collection):
        cache = StageCache()
        first = _analyzed(collection, cache=cache)
        other_collection = dataclasses.replace(
            collection, hierarchy=_renamed(collection.hierarchy)
        )
        second = _analyzed(other_collection, cache=cache)
        outcome = first._require_analyzed()
        assert second._require_analyzed() is outcome  # one cached outcome

        first_maps = _map_bodies(first)
        second_maps = _map_bodies(second)
        assert all(a != b for a, b in zip(first_maps, second_maps))
        outcome._memo.clear()
        assert _map_bodies(second) == second_maps

    def test_different_response_never_shares_an_svg(self, collection):
        first = _analyzed(collection, stage_cache=False)
        outcome = first._require_analyzed()
        features = first.config.features + (first.config.response,)
        other_response = next(
            name
            for name in outcome.table.numeric_columns()
            if name not in features + ("latitude", "longitude")
        )
        second = Indice(collection, _config(response=other_response))

        first_maps = _map_bodies(first)
        second_maps = _map_bodies(second, analytics=outcome)
        assert all(a != b for a, b in zip(first_maps, second_maps))
        outcome._memo.clear()
        assert _map_bodies(second, analytics=outcome) == second_maps
        assert _map_bodies(first) == first_maps
