"""Tests for the gravity-model baseline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.gravity import gravity_series, gravity_series_values
from repro.core.ic_model import degrees_of_freedom
from repro.core.traffic_matrix import TrafficMatrixSeries
from repro.errors import ShapeError, ValidationError
from repro.synthesis.datasets import load_dataset


def gravity_matrix(ingress, egress) -> np.ndarray:
    """One bin of the batched kernel: a T = 1 call."""
    return gravity_series_values(ingress, egress)[0]


class TestGravityMatrix:
    def test_formula(self):
        matrix = gravity_matrix([6.0, 4.0], [5.0, 5.0])
        np.testing.assert_allclose(matrix, np.array([[3.0, 3.0], [2.0, 2.0]]))

    def test_reproduces_rank_one_traffic_exactly(self):
        ingress = np.array([10.0, 20.0, 30.0])
        egress_share = np.array([0.5, 0.3, 0.2])
        truth = np.outer(ingress, egress_share)
        estimate = gravity_matrix(truth.sum(axis=1), truth.sum(axis=0))
        np.testing.assert_allclose(estimate, truth)

    def test_preserves_marginals(self):
        rng = np.random.default_rng(0)
        ingress = rng.random(5) * 100
        egress = ingress * rng.permutation(np.ones(5))  # same total
        estimate = gravity_matrix(ingress, egress)
        np.testing.assert_allclose(estimate.sum(axis=1), ingress)
        np.testing.assert_allclose(estimate.sum(axis=0), egress)

    def test_zero_traffic(self):
        np.testing.assert_allclose(gravity_matrix([0.0, 0.0], [0.0, 0.0]), 0.0)

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            gravity_matrix([-1.0, 2.0], [1.0, 0.0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ShapeError):
            gravity_matrix([1.0, 2.0], [1.0, 2.0, 3.0])


class TestGravitySeries:
    def test_errors_zero_when_traffic_is_gravity_structured(self):
        rng = np.random.default_rng(1)
        ingress = rng.random((4, 3)) * 10
        egress_share = rng.random(3)
        egress_share /= egress_share.sum()
        values = np.einsum("ti,j->tij", ingress, egress_share)
        series = TrafficMatrixSeries(values)
        estimate = gravity_series(series)
        np.testing.assert_allclose(estimate.values, values, rtol=1e-9)

    def test_accepts_raw_arrays(self):
        values = np.random.default_rng(2).random((3, 4, 4))
        estimate = gravity_series(values)
        assert estimate.n_timesteps == 3

    def test_preserves_metadata(self):
        values = np.random.default_rng(3).random((3, 2, 2))
        series = TrafficMatrixSeries(values, ["x", "y"], bin_seconds=900.0)
        estimate = gravity_series(series)
        assert estimate.nodes == ("x", "y")
        assert estimate.bin_seconds == 900.0


class TestGravityModel:
    def test_series_shape_mismatch(self):
        with pytest.raises(ShapeError):
            gravity_series_values(np.ones((5, 2)), np.ones((4, 2)))

    def test_degrees_of_freedom(self):
        assert degrees_of_freedom("gravity", 22, 2016) == 2 * 22 * 2016 - 1


def test_component_gravity_series():
    week = load_dataset("geant", n_weeks=1, bins_per_week=96).week(0)
    result = gravity_series(week)
    assert result.n_timesteps == week.n_timesteps
