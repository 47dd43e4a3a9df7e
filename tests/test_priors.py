"""Tests for the TM-estimation priors (Section 6) and their linear algebra."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.fitting import fit_stable_fp
from repro.core.ic_model import simplified_ic_matrix, simplified_ic_series
from repro.core.priors import (
    GravityPrior,
    MeasuredParameterPrior,
    StableFPPrior,
    StableFPrior,
    estimate_activity_from_marginals,
    ic_design_matrix,
    marginal_operators,
    stable_f_closed_form,
)
from repro.core.traffic_matrix import TrafficMatrixSeries
from repro.errors import ShapeError, ValidationError


@pytest.fixture(scope="module")
def stable_fp_world():
    """A clean stable-fP world: parameters, series and marginals."""
    rng = np.random.default_rng(21)
    n, t = 6, 20
    preference = rng.lognormal(-4.3, 1.7, n)
    preference /= preference.sum()
    activity = rng.lognormal(np.log(1e6), 0.6, (t, n))
    forward = 0.3
    values = simplified_ic_series(forward, activity, preference)
    series = TrafficMatrixSeries(values)
    return forward, preference, activity, series


class TestDesignMatrix:
    def test_phi_maps_activity_to_vectorised_tm(self, stable_fp_world):
        forward, preference, activity, series = stable_fp_world
        phi = ic_design_matrix(forward, preference)
        for t in range(3):
            np.testing.assert_allclose(
                phi @ activity[t],
                simplified_ic_matrix(forward, activity[t], preference).reshape(-1),
            )

    def test_shape(self):
        phi = ic_design_matrix(0.25, np.ones(5))
        assert phi.shape == (25, 5)


class TestMarginalOperators:
    def test_h_and_g_sum_to_marginals(self, stable_fp_world):
        _, _, _, series = stable_fp_world
        n = series.n_nodes
        h, g, q = marginal_operators(n)
        vector = series.values[0].reshape(-1)
        np.testing.assert_allclose(h @ vector, series.ingress[0])
        np.testing.assert_allclose(g @ vector, series.egress[0])
        np.testing.assert_allclose(q @ vector, np.concatenate([series.ingress[0], series.egress[0]]))

    def test_rejects_bad_size(self):
        with pytest.raises(ValidationError):
            marginal_operators(0)


class TestActivityFromMarginals:
    def test_recovers_activity_exactly_in_model(self, stable_fp_world):
        forward, preference, activity, series = stable_fp_world
        recovered = estimate_activity_from_marginals(
            forward, preference, series.ingress, series.egress
        )
        np.testing.assert_allclose(recovered, activity, rtol=1e-6)

    def test_single_bin_shape(self, stable_fp_world):
        forward, preference, activity, series = stable_fp_world
        recovered = estimate_activity_from_marginals(
            forward, preference, series.ingress[0], series.egress[0]
        )
        assert recovered.shape == (series.n_nodes,)

    def test_shape_mismatch(self, stable_fp_world):
        forward, preference, _, series = stable_fp_world
        with pytest.raises(ShapeError):
            estimate_activity_from_marginals(
                forward, preference, series.ingress, series.egress[:-1]
            )


class TestStableFClosedForm:
    def test_recovers_parameters_in_model(self, stable_fp_world):
        forward, preference, activity, series = stable_fp_world
        est_activity, est_preference = stable_f_closed_form(
            forward, series.ingress, series.egress
        )
        np.testing.assert_allclose(est_activity, activity, rtol=1e-9)
        np.testing.assert_allclose(
            est_preference, np.tile(preference, (series.n_timesteps, 1)), rtol=1e-6
        )

    def test_singular_at_half(self):
        with pytest.raises(ValidationError):
            stable_f_closed_form(0.5, np.ones(3), np.ones(3))

    def test_clips_negative_estimates(self):
        # Marginals inconsistent with any IC structure at f=0.2.
        activity, preference = stable_f_closed_form(0.2, np.array([10.0, 0.0]), np.array([0.0, 10.0]))
        assert np.all(activity >= 0)
        assert np.all(preference >= 0)
        assert preference.sum() == pytest.approx(1.0)


class TestPriors:
    def test_measured_prior_reproduces_model_series(self, stable_fp_world):
        forward, preference, activity, series = stable_fp_world
        prior = MeasuredParameterPrior(forward, preference, activity)
        np.testing.assert_allclose(prior.series().values, series.values, rtol=1e-9)

    def test_measured_prior_from_fit(self, stable_fp_world):
        *_, series = stable_fp_world
        fit = fit_stable_fp(series)
        prior = MeasuredParameterPrior.from_fit(fit)
        assert prior.series().n_timesteps == series.n_timesteps

    def test_measured_prior_rejects_wrong_model(self, stable_fp_world):
        *_, series = stable_fp_world
        fit = fit_stable_fp(series)
        fit.model = "stable-f"
        with pytest.raises(ValidationError):
            MeasuredParameterPrior.from_fit(fit)

    def test_stable_fp_prior_exact_in_model(self, stable_fp_world):
        forward, preference, activity, series = stable_fp_world
        prior = StableFPPrior(forward, preference)
        result = prior.series(series.ingress, series.egress)
        np.testing.assert_allclose(result.values, series.values, rtol=1e-6)

    def test_stable_fp_prior_properties(self):
        prior = StableFPPrior(0.25, [1.0, 1.0, 2.0])
        assert prior.forward_fraction == 0.25
        assert prior.preference.sum() == pytest.approx(1.0)

    def test_stable_f_prior_exact_in_model(self, stable_fp_world):
        forward, preference, activity, series = stable_fp_world
        prior = StableFPrior(forward)
        result = prior.series(series.ingress, series.egress)
        np.testing.assert_allclose(result.values, series.values, rtol=1e-6)

    def test_stable_f_prior_zero_marginal_bin_is_all_zero(self, stable_fp_world):
        # A bin with no traffic at all falls back to a uniform preference and
        # zero activity, so its prior is a finite all-zero matrix, while a
        # normal bin next to it keeps its exact in-model prior.
        forward, _, _, series = stable_fp_world
        n = series.n_nodes
        ingress = np.vstack([np.zeros(n), series.ingress[0]])
        egress = np.vstack([np.zeros(n), series.egress[0]])
        result = StableFPrior(forward).series(ingress, egress).values
        assert np.all(np.isfinite(result))
        assert np.array_equal(result[0], np.zeros((n, n)))
        np.testing.assert_allclose(result[1], series.values[0], rtol=1e-6)

    def test_stable_f_prior_rejects_half(self):
        with pytest.raises(ValidationError):
            StableFPrior(0.5)

    def test_gravity_prior_matches_gravity_model(self, stable_fp_world):
        *_, series = stable_fp_world
        from repro.core.gravity import gravity_series

        prior = GravityPrior().series(series.ingress, series.egress)
        np.testing.assert_allclose(prior.values, gravity_series(series).values, rtol=1e-9)

    def test_gravity_prior_shape_mismatch(self):
        with pytest.raises(ShapeError):
            GravityPrior().series(np.ones((3, 2)), np.ones((2, 2)))
