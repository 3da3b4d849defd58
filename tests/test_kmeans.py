"""Tests for K-means, standardization and the SSE elbow rule."""

import dataclasses
import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytics.kmeans import (
    UNASSIGNED,
    choose_k_elbow,
    kmeans,
    kmeans_auto,
    sse_curve,
    standardize,
)


def blobs(centers, n_per=50, spread=0.2, seed=0):
    rng = np.random.default_rng(seed)
    return np.vstack([rng.normal(c, spread, (n_per, len(c))) for c in centers])


class TestStandardize:
    def test_zero_mean_unit_std(self):
        rng = np.random.default_rng(0)
        m = rng.normal(5, 3, (200, 3))
        z, params = standardize(m)
        assert np.allclose(z.mean(axis=0), 0, atol=1e-10)
        assert np.allclose(z.std(axis=0), 1, atol=1e-10)

    def test_nan_preserved(self):
        m = np.array([[1.0, 2.0], [np.nan, 4.0], [3.0, 6.0]])
        z, __ = standardize(m)
        assert np.isnan(z[1, 0])
        assert not np.isnan(z[1, 1])

    def test_constant_column_maps_to_zero(self):
        m = np.column_stack([np.full(10, 7.0), np.arange(10.0)])
        z, __ = standardize(m)
        assert np.allclose(z[:, 0], 0.0)

    def test_inverse_roundtrip(self):
        rng = np.random.default_rng(1)
        m = rng.normal(0, 2, (50, 2))
        z, params = standardize(m)
        assert np.allclose(params.inverse(z), m)


class TestKMeans:
    def test_recovers_separated_blobs(self):
        points = blobs([(0, 0), (10, 0), (0, 10)])
        result = kmeans(points, k=3, seed=1)
        # each blob must be pure: one label per 50-row block
        for start in (0, 50, 100):
            block = result.labels[start : start + 50]
            assert len(set(block.tolist())) == 1
        assert result.k == 3
        assert len(result.cluster_sizes()) == 3

    def test_sse_is_within_cluster_scatter(self):
        points = blobs([(0, 0), (10, 10)])
        result = kmeans(points, k=2, seed=0)
        manual = 0.0
        for c in range(2):
            members = points[result.labels == c]
            manual += np.sum((members - members.mean(axis=0)) ** 2)
        assert result.sse == pytest.approx(manual, rel=1e-9)

    def test_missing_rows_unassigned(self):
        points = blobs([(0, 0), (10, 10)])
        points[3, 0] = np.nan
        result = kmeans(points, k=2, seed=0)
        assert result.labels[3] == UNASSIGNED
        assert (result.labels != UNASSIGNED).sum() == len(points) - 1

    def test_k_larger_than_rows_rejected(self):
        with pytest.raises(ValueError, match="complete rows"):
            kmeans(np.zeros((3, 2)), k=5)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            kmeans(np.zeros((5, 2)), k=0)

    def test_k_equal_n_rows(self):
        points = np.arange(10.0).reshape(5, 2)
        result = kmeans(points, k=5, seed=0)
        assert result.sse == pytest.approx(0.0)

    def test_deterministic_for_seed(self):
        points = blobs([(0, 0), (5, 5)], seed=3)
        a = kmeans(points, k=2, seed=42)
        b = kmeans(points, k=2, seed=42)
        assert np.array_equal(a.labels, b.labels)
        assert a.sse == b.sse

    def test_duplicate_points_handled(self):
        points = np.tile([[1.0, 1.0]], (20, 1))
        result = kmeans(points, k=3, seed=0)
        assert result.sse == pytest.approx(0.0)

    def test_converged_flag(self):
        points = blobs([(0, 0), (10, 10)])
        result = kmeans(points, k=2, seed=0)
        assert result.converged

    def test_cluster_indices(self):
        points = blobs([(0, 0), (10, 10)])
        result = kmeans(points, k=2, seed=0)
        idx = result.cluster_indices(int(result.labels[0]))
        assert 0 in idx

    @given(st.integers(2, 5), st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_sse_never_increases_with_k(self, k, seed):
        rng = np.random.default_rng(seed)
        points = rng.normal(0, 1, (60, 2))
        sse_k = kmeans(points, k=k, seed=1, n_init=5).sse
        sse_k1 = kmeans(points, k=k + 1, seed=1, n_init=5).sse
        # with enough restarts SSE is non-increasing in k (tiny slack for
        # local optima in the randomized init)
        assert sse_k1 <= sse_k * 1.05


class TestElbow:
    def test_sse_curve_keys(self):
        points = blobs([(0, 0), (10, 10)])
        curve = sse_curve(points, (2, 5), seed=0, n_init=2)
        assert sorted(curve) == [2, 3, 4, 5]

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            sse_curve(np.zeros((10, 2)), (5, 2))

    def test_elbow_on_synthetic_curve(self):
        # sharp elbow at k=4: big drops until 4, tiny after
        curve = {2: 1000.0, 3: 600.0, 4: 200.0, 5: 180.0, 6: 170.0}
        assert choose_k_elbow(curve) == 4

    def test_elbow_empty_curve(self):
        with pytest.raises(ValueError):
            choose_k_elbow({})

    def test_elbow_short_curve(self):
        assert choose_k_elbow({2: 10.0, 3: 5.0}) == 2

    def test_auto_finds_true_k(self):
        points = blobs([(0, 0), (10, 0), (0, 10), (10, 10)], n_per=60, spread=0.3)
        auto = kmeans_auto(points, (2, 8), seed=0, n_init=5)
        assert auto.chosen_k == 4
        assert auto.result.k == 4
        assert len(auto.curve) == 7

    @pytest.mark.parametrize("k_range", [(2, 8), (3, 3), (1, 4)])
    def test_auto_keeps_the_sweep_fit(self, monkeypatch, k_range):
        # the package re-exports the function under the submodule's name
        kmeans_mod = importlib.import_module("repro.analytics.kmeans")
        points = blobs([(0, 0), (6, 1), (2, 7)], n_per=40, spread=0.8, seed=3)
        points[::17, 1] = np.nan  # unassigned rows ride along
        calls = []
        real_kmeans = kmeans_mod.kmeans

        def counting(*args, **kwargs):
            calls.append(args[1])
            return real_kmeans(*args, **kwargs)

        monkeypatch.setattr(kmeans_mod, "kmeans", counting)
        auto = kmeans_auto(points, k_range, seed=9, n_init=3)
        lo, hi = k_range
        assert sorted(calls) == list(range(lo, hi + 1))  # no refit

        refit = real_kmeans(points, auto.chosen_k, n_init=3, seed=9)
        for f in dataclasses.fields(refit):
            got, want = getattr(auto.result, f.name), getattr(refit, f.name)
            if isinstance(want, np.ndarray):
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()
            else:
                assert got == want


class TestPooledSweep:
    """The K sweep on a 2-job pool equals the serial sweep bit for bit."""

    @staticmethod
    def _assert_same_fit(got, want):
        for f in dataclasses.fields(want):
            g, w = getattr(got, f.name), getattr(want, f.name)
            if isinstance(w, np.ndarray):
                assert g.dtype == w.dtype
                assert g.tobytes() == w.tobytes()
            else:
                assert g == w

    @staticmethod
    def _points(seed):
        points = blobs(
            [(0, 0, 1), (5, 1, 0), (1, 6, 2), (6, 6, 6)],
            n_per=45, spread=0.9, seed=seed,
        )
        points[seed % 7 :: 11, seed % 3] = np.nan  # unassigned rows ride along
        return points

    @pytest.mark.parametrize("k_range", [(1, 1), (2, 2), (2, 10)])
    @pytest.mark.parametrize("seed", [0, 4, 21])
    def test_pool_equals_serial(self, seed, k_range):
        from repro.perf.parallel import ParallelMap

        kmeans_mod = importlib.import_module("repro.analytics.kmeans")
        points = self._points(seed)
        executor = ParallelMap(n_jobs=2)
        serial = kmeans_mod._sweep(points, k_range, seed=seed, n_init=3)
        pooled = kmeans_mod._sweep(
            points, k_range, seed=seed, n_init=3, executor=executor
        )
        assert list(pooled) == list(serial)  # ascending K, like the curve
        for k, fit in serial.items():
            self._assert_same_fit(pooled[k], fit)

        auto_serial = kmeans_auto(points, k_range, seed=seed, n_init=3)
        auto_pooled = kmeans_auto(
            points, k_range, seed=seed, n_init=3, executor=executor
        )
        assert list(auto_pooled.curve.items()) == list(auto_serial.curve.items())
        assert auto_pooled.chosen_k == auto_serial.chosen_k
        self._assert_same_fit(auto_pooled.result, auto_serial.result)
        assert executor.fallbacks == 0

    def test_worker_crash_falls_back_to_the_serial_sweep(self):
        from repro.faults import FaultInjector, FaultPlan
        from repro.perf.parallel import ParallelMap

        points = self._points(3)
        executor = ParallelMap(
            n_jobs=2,
            injector=FaultInjector(FaultPlan.parse("parallel.worker:crash*1")),
        )
        serial = kmeans_auto(points, (2, 10), seed=3, n_init=3)
        pooled = kmeans_auto(points, (2, 10), seed=3, n_init=3, executor=executor)
        assert executor.fallbacks == 1
        assert list(pooled.curve.items()) == list(serial.curve.items())
        assert pooled.chosen_k == serial.chosen_k
        self._assert_same_fit(pooled.result, serial.result)
