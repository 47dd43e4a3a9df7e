"""Tests for the error metrics (paper Eq. 6 and the improvement summaries)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.metrics import (
    mean_relative_error,
    percent_improvement,
    rel_l2_temporal_error,
    summarize_improvement,
)
from repro.core.traffic_matrix import TrafficMatrixSeries
from repro.errors import ShapeError


class TestTemporalError:
    def test_zero_for_exact_estimate(self):
        actual = np.random.default_rng(0).random((4, 3, 3))
        np.testing.assert_allclose(rel_l2_temporal_error(actual, actual), 0.0)

    def test_matches_manual_computation(self):
        actual = np.ones((1, 2, 2))
        estimate = np.zeros((1, 2, 2))
        error = rel_l2_temporal_error(actual, estimate)
        assert error[0] == pytest.approx(1.0)

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        actual = rng.random((5, 4, 4))
        estimate = rng.random((5, 4, 4))
        base = rel_l2_temporal_error(actual, estimate)
        scaled = rel_l2_temporal_error(actual * 10.0, estimate * 10.0)
        np.testing.assert_allclose(base, scaled)

    def test_accepts_series_objects(self):
        values = np.random.default_rng(2).random((3, 2, 2))
        series = TrafficMatrixSeries(values)
        np.testing.assert_allclose(
            rel_l2_temporal_error(series, series), np.zeros(3)
        )

    def test_zero_traffic_bin(self):
        actual = np.zeros((1, 2, 2))
        estimate = np.zeros((1, 2, 2))
        assert rel_l2_temporal_error(actual, estimate)[0] == 0.0
        estimate[0, 0, 0] = 1.0
        assert np.isinf(rel_l2_temporal_error(actual, estimate)[0])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            rel_l2_temporal_error(np.ones((2, 2, 2)), np.ones((3, 2, 2)))


class TestImprovement:
    def test_sign_convention(self):
        baseline = np.array([1.0, 1.0])
        model = np.array([0.8, 1.2])
        improvement = percent_improvement(baseline, model)
        assert improvement[0] == pytest.approx(20.0)
        assert improvement[1] == pytest.approx(-20.0)

    def test_zero_baseline(self):
        improvement = percent_improvement(np.zeros(2), np.ones(2))
        np.testing.assert_allclose(improvement, 0.0)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            percent_improvement(np.ones(3), np.ones(4))

    def test_summary_keys(self):
        summary = summarize_improvement(np.array([1.0, 2.0, 3.0]))
        assert set(summary) == {"mean", "median", "p25", "p75", "min", "max"}
        assert summary["mean"] == pytest.approx(2.0)

    def test_summary_handles_empty(self):
        summary = summarize_improvement(np.array([np.inf, np.nan]))
        assert summary["mean"] == 0.0


class TestMeanRelativeError:
    def test_consistency_with_temporal(self):
        rng = np.random.default_rng(5)
        actual = rng.random((7, 3, 3))
        estimate = rng.random((7, 3, 3))
        assert mean_relative_error(actual, estimate) == pytest.approx(
            float(np.mean(rel_l2_temporal_error(actual, estimate)))
        )
