"""Tests for general-IC fitting (per-pair forward fractions)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.fitting import fit_stable_fp
from repro.core.general_fitting import fit_general_ic, fit_pairwise_forward_fractions
from repro.core.ic_model import general_ic_matrix, general_ic_series
from repro.core.traffic_matrix import TrafficMatrixSeries


@pytest.fixture(scope="module")
def general_world():
    """A clean general-IC world with an asymmetric f matrix."""
    rng = np.random.default_rng(31)
    n, t = 6, 40
    preference = rng.lognormal(-3.0, 1.0, n)
    preference /= preference.sum()
    activity = rng.lognormal(np.log(1e6), 0.6, (t, n))
    perturbation = rng.normal(0.0, 0.08, (n, n))
    f_matrix = np.clip(0.25 + (perturbation - perturbation.T) / 2.0, 0.05, 0.95)
    np.fill_diagonal(f_matrix, 0.25)
    values = np.stack([general_ic_matrix(f_matrix, activity[k], preference) for k in range(t)])
    return f_matrix, preference, activity, values


class TestPairwiseForwardFractions:
    def test_recovers_f_matrix_with_known_parameters(self, general_world):
        f_matrix, preference, activity, values = general_world
        recovered = fit_pairwise_forward_fractions(values, activity, preference, default_forward=0.25)
        off_diagonal = ~np.eye(f_matrix.shape[0], dtype=bool)
        np.testing.assert_allclose(recovered[off_diagonal], f_matrix[off_diagonal], atol=0.02)

    def test_diagonal_uses_default(self, general_world):
        _, preference, activity, values = general_world
        recovered = fit_pairwise_forward_fractions(values, activity, preference, default_forward=0.37)
        np.testing.assert_allclose(np.diag(recovered), 0.37)

    def test_results_within_unit_interval(self, general_world):
        _, preference, activity, values = general_world
        recovered = fit_pairwise_forward_fractions(values, activity, preference)
        assert np.all(recovered >= 0.0) and np.all(recovered <= 1.0)

    def test_zero_traffic_pair_keeps_default(self):
        n, t = 3, 10
        activity = np.ones((t, n))
        preference = np.array([0.5, 0.5, 0.0])  # node 2 never responds
        values = np.zeros((t, n, n))
        recovered = fit_pairwise_forward_fractions(values, activity, preference, default_forward=0.3)
        assert recovered[0, 2] == pytest.approx(0.3)


class TestFitGeneralIC:
    def test_improves_on_simplified_fit_for_asymmetric_traffic(self, general_world):
        *_, values = general_world
        series = TrafficMatrixSeries(values)
        simplified = fit_stable_fp(series)
        general = fit_general_ic(series, base_fit=simplified)
        assert general.mean_error <= simplified.mean_error + 1e-9

    def test_detects_asymmetry(self, general_world):
        f_matrix, *_, values = general_world
        general = fit_general_ic(TrafficMatrixSeries(values))
        true_asymmetry = (f_matrix - f_matrix.T) / 2.0
        correlation = np.corrcoef(general.asymmetry.ravel(), true_asymmetry.ravel())[0, 1]
        assert correlation > 0.5

    def test_predicted_values_match_errors(self, general_world):
        *_, values = general_world
        from repro.core.metrics import rel_l2_temporal_error

        general = fit_general_ic(TrafficMatrixSeries(values))
        predicted = general_ic_series(
            general.forward_fraction_matrix, general.activity, general.preference
        )
        np.testing.assert_allclose(
            rel_l2_temporal_error(values, predicted), general.errors, atol=1e-12
        )

    def test_runs_without_precomputed_base_fit(self, general_world):
        *_, values = general_world
        result = fit_general_ic(values[:10])
        assert result.forward_fraction_matrix.shape == (values.shape[1], values.shape[1])
        assert result.base_fit.model == "stable-fP"
