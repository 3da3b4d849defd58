"""Tests for DBSCAN and the k-distance parameter estimation."""

import numpy as np
import pytest

from repro.preprocessing.dbscan import dbscan
from repro.preprocessing.kdistance import (
    elbow_point,
    estimate_dbscan_params,
    k_distance_curve,
)


def two_blobs(n=100, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal((0, 0), 0.3, (n, 2))
    b = rng.normal((10, 10), 0.3, (n, 2))
    return np.vstack([a, b])


class TestDbscan:
    def test_two_blobs_no_noise(self):
        points = two_blobs()
        result = dbscan(points, eps=1.0, min_points=5)
        assert result.noise_mask.shape == (200,)
        assert result.n_noise == 0

    def test_isolated_point_is_noise(self):
        points = np.vstack([two_blobs(), [[100.0, 100.0]]])
        result = dbscan(points, eps=1.0, min_points=5)
        assert result.noise_mask[-1]
        assert result.n_noise == 1

    def test_min_points_counts_self(self):
        # a pair of close points is a cluster when min_points=2
        points = np.array([[0.0, 0.0], [0.1, 0.0], [50.0, 50.0]])
        result = dbscan(points, eps=1.0, min_points=2)
        assert result.noise_mask.tolist() == [False, False, True]

    def test_everything_noise_with_large_min_points(self):
        result = dbscan(two_blobs(10), eps=0.5, min_points=50)
        assert result.noise_mask.all()
        assert result.n_noise == 20

    def test_nan_rows_are_noise(self):
        points = two_blobs()
        points[0] = (np.nan, 0.0)
        result = dbscan(points, eps=1.0, min_points=5)
        assert result.noise_mask[0]
        assert result.n_noise == 1
        assert result.n_missing == 1

    def test_parameter_validation(self):
        points = two_blobs(5)
        with pytest.raises(ValueError):
            dbscan(points, eps=0.0, min_points=3)
        with pytest.raises(ValueError):
            dbscan(points, eps=1.0, min_points=0)
        with pytest.raises(ValueError):
            dbscan(points.ravel(), eps=1.0, min_points=3)

    def test_all_nan_input(self):
        points = np.full((5, 2), np.nan)
        result = dbscan(points, eps=1.0, min_points=2)
        assert result.n_noise == 5
        assert result.n_missing == 5


class TestKDistance:
    def test_curve_is_sorted(self):
        curve = k_distance_curve(two_blobs(), k=4)
        assert np.all(np.diff(curve) >= 0)

    def test_curve_length(self):
        curve = k_distance_curve(two_blobs(50), k=4)
        assert len(curve) == 100

    def test_curve_skips_nan(self):
        points = two_blobs(50)
        points[0] = (np.nan, np.nan)
        assert len(k_distance_curve(points, k=4)) == 99

    def test_too_few_points(self):
        assert len(k_distance_curve(np.zeros((3, 2)), k=5)) == 0

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            k_distance_curve(two_blobs(), k=0)

    def test_elbow_on_hockey_stick(self):
        curve = np.concatenate([np.linspace(0, 1, 90), np.linspace(1.5, 40, 10)])
        index, value = elbow_point(curve)
        assert 80 <= index <= 99
        assert value > 0

    def test_elbow_on_flat_curve(self):
        index, value = elbow_point(np.full(10, 2.0))
        assert value == 2.0

    def test_elbow_tiny_curves(self):
        assert elbow_point(np.array([])) == (0, 0.0)
        assert elbow_point(np.array([1.0, 2.0]))[0] == 1


class TestAutoParams:
    def test_estimated_params_separate_blobs(self):
        points = two_blobs(100)
        est = estimate_dbscan_params(points)
        result = dbscan(points, est.eps, est.min_points)
        # the dense blobs should mostly survive as non-noise
        assert result.n_noise < 20

    def test_stabilization_recorded(self):
        est = estimate_dbscan_params(two_blobs(200))
        assert est.stabilized_at is not None
        assert est.min_points == est.stabilized_at + 1
        assert est.curve_for(est.stabilized_at) is not None

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            estimate_dbscan_params(two_blobs(), min_points_range=(5, 3))

    def test_eps_positive(self):
        est = estimate_dbscan_params(two_blobs(50))
        assert est.eps > 0
