"""Tests for IC-model parameter fitting (the Section 5.1 optimisation)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.fitting import fit_stable_f, fit_stable_fp, fit_time_varying
from repro.core.ic_model import simplified_ic_series, time_varying_ic_series
from repro.core.traffic_matrix import TrafficMatrixSeries
from repro.errors import ValidationError


def _predicted(fit) -> np.ndarray:
    """The fitted model's ``(T, n, n)`` traffic, from the series kernels."""
    if fit.model == "stable-fP":
        return simplified_ic_series(float(fit.forward_fraction), fit.activity, fit.preference)
    return time_varying_ic_series(fit.forward_fraction, fit.activity, fit.preference)


class TestStableFPFit:
    def test_exact_recovery_on_clean_data(self, clean_ic_series):
        series, forward, preference, activity = clean_ic_series
        fit = fit_stable_fp(series)
        assert fit.model == "stable-fP"
        assert fit.forward_fraction == pytest.approx(forward, abs=0.01)
        np.testing.assert_allclose(fit.preference, preference, atol=0.005)
        assert fit.mean_error < 1e-3

    def test_activity_recovery_on_clean_data(self, clean_ic_series):
        series, _, _, activity = clean_ic_series
        fit = fit_stable_fp(series)
        correlation = np.corrcoef(fit.activity.ravel(), activity.ravel())[0, 1]
        assert correlation > 0.999

    def test_objective_history_is_monotone_decreasing(self, clean_ic_series):
        series, *_ = clean_ic_series
        fit = fit_stable_fp(series)
        history = np.array(fit.objective_history)
        assert np.all(np.diff(history) <= 1e-6)

    def test_converged_flag(self, clean_ic_series):
        series, *_ = clean_ic_series
        assert fit_stable_fp(series, max_iterations=100).converged

    def test_noisy_data_still_beats_gravity(self):
        from repro.core.gravity import gravity_series
        from repro.core.metrics import mean_relative_error

        rng = np.random.default_rng(11)
        activity = rng.lognormal(np.log(1e6), 0.7, (40, 10))
        preference = rng.lognormal(-4.3, 1.7, 10)
        clean = simplified_ic_series(0.22, activity, preference / preference.sum())
        noisy = TrafficMatrixSeries(clean * rng.lognormal(0.0, 0.2, clean.shape))
        fit = fit_stable_fp(noisy)
        gravity_error = mean_relative_error(noisy, gravity_series(noisy))
        assert fit.mean_error < gravity_error

    def test_predicted_series_matches_errors(self, clean_ic_series):
        series, *_ = clean_ic_series
        fit = fit_stable_fp(series)
        predicted = _predicted(fit)
        from repro.core.metrics import rel_l2_temporal_error

        np.testing.assert_allclose(
            rel_l2_temporal_error(series, predicted), fit.errors, atol=1e-12
        )

    def test_forward_bounds_respected(self, clean_ic_series):
        series, *_ = clean_ic_series
        fit = fit_stable_fp(series, forward_bounds=(0.0, 0.1))
        assert 0.0 <= fit.forward_fraction <= 0.1

    def test_invalid_bounds_rejected(self, clean_ic_series):
        series, *_ = clean_ic_series
        with pytest.raises(ValidationError):
            fit_stable_fp(series, forward_bounds=(0.6, 0.4))

    def test_invalid_initial_f_rejected(self, clean_ic_series):
        series, *_ = clean_ic_series
        with pytest.raises(ValidationError):
            fit_stable_fp(series, initial_forward_fraction=1.5)

    def test_preference_is_normalised(self, clean_ic_series):
        series, *_ = clean_ic_series
        fit = fit_stable_fp(series)
        assert fit.preference.sum() == pytest.approx(1.0)
        assert np.all(fit.preference >= 0)

    def test_activity_nonnegative(self, clean_ic_series):
        series, *_ = clean_ic_series
        assert np.all(fit_stable_fp(series).activity >= 0)

    def test_accepts_raw_array(self):
        rng = np.random.default_rng(3)
        values = rng.random((6, 4, 4))
        fit = fit_stable_fp(values)
        assert fit.errors.shape == (6,)

    def test_single_bin_series(self):
        rng = np.random.default_rng(4)
        values = rng.random((1, 5, 5))
        fit = fit_stable_fp(values)
        assert fit.activity.shape == (1, 5)


class TestStableFFit:
    def test_fits_clean_data_near_exactly(self, clean_ic_series):
        series, forward, *_ = clean_ic_series
        fit = fit_stable_f(series)
        assert fit.model == "stable-f"
        assert fit.mean_error < 0.01
        assert fit.preference.shape == (series.n_timesteps, series.n_nodes)

    def test_error_not_worse_than_stable_fp(self, clean_ic_series):
        """More degrees of freedom must not fit the data worse (up to tolerance)."""
        series, *_ = clean_ic_series
        fp = fit_stable_fp(series)
        f_only = fit_stable_f(series)
        assert f_only.mean_error <= fp.mean_error + 1e-3

    def test_forward_bounds(self, clean_ic_series):
        series, *_ = clean_ic_series
        fit = fit_stable_f(series, forward_bounds=(0.0, 0.3))
        assert fit.forward_fraction <= 0.3


@pytest.mark.parametrize("fit", [fit_stable_f, fit_time_varying])
def test_per_bin_models_predicted_values_match_errors(fit):
    from repro.core.metrics import rel_l2_temporal_error

    values = _noisy_series()
    result = fit(values)
    np.testing.assert_allclose(
        rel_l2_temporal_error(values, _predicted(result)), result.errors, rtol=0, atol=1e-12
    )
    assert result.objective_history[-1] == result.errors.sum()


class TestTimeVaryingFit:
    def test_fits_data_with_drifting_f(self):
        rng = np.random.default_rng(9)
        n, t = 6, 12
        preference = rng.random(n)
        preference /= preference.sum()
        activity = rng.lognormal(np.log(1e5), 0.4, (t, n))
        forwards = np.linspace(0.15, 0.35, t)
        values = np.stack(
            [simplified_ic_series(forwards[k], activity[k][None], preference)[0] for k in range(t)]
        )
        fit = fit_time_varying(values)
        assert fit.model == "time-varying"
        assert fit.forward_fraction.shape == (t,)
        assert fit.mean_error < 0.02

    def test_time_varying_not_worse_than_stable_f(self, clean_ic_series):
        series, *_ = clean_ic_series
        tv = fit_time_varying(series)
        sf = fit_stable_f(series)
        assert tv.mean_error <= sf.mean_error + 1e-3


# ---------------------------------------------------------------------------
# reference ALS: the cube formulation the contraction kernel replaced
# ---------------------------------------------------------------------------

def _reference_stable_fp(values, *, f=0.25, max_iterations=60, tolerance=1e-6, bounds=(0.0, 0.5)):
    """Stable-fP ALS built from ``(T, n, n)`` cubes: a design pseudo-inverse for
    the activity, einsum normal equations for the preference, the outer-product
    ``f`` update and exact per-bin scoring."""
    from repro.core.fitting import _initial_parameters
    from repro.core.metrics import rel_l2_temporal_error

    t, n = values.shape[0], values.shape[1]
    w2 = 1.0 / np.maximum(np.sqrt((values**2).sum(axis=(1, 2))), 1e-12) ** 2
    f = float(np.clip(f, *bounds))
    preference, activity = _initial_parameters(values, f)
    history, converged, previous = [], False, np.inf
    rows_i, rows_j = np.divmod(np.arange(n * n), n)
    for _ in range(max_iterations):
        g = 1.0 - f
        design = np.zeros((n * n, n))
        design[np.arange(n * n), rows_i] += f * preference[rows_j]
        design[np.arange(n * n), rows_j] += g * preference[rows_i]
        activity = np.clip(values.reshape(t, n * n) @ np.linalg.pinv(design).T, 0.0, None)
        norms = (activity**2).sum(axis=1)
        m = float(np.sum(w2 * norms)) * (f * f + g * g) * np.eye(n) + 2.0 * f * g * np.einsum(
            "t,ti,tj->ij", w2, activity, activity
        )
        b = f * np.einsum("t,ti,tik->k", w2, activity, values) + g * np.einsum(
            "t,tj,tkj->k", w2, activity, values
        )
        preference = np.clip(np.linalg.solve(m + 1e-12 * np.eye(n), b), 0.0, None)
        if preference.sum() <= 0.0:
            preference = np.full(n, 1.0 / n)
        preference = preference / preference.sum()
        u = np.einsum("ti,j->tij", activity, preference) - np.einsum("tj,i->tij", activity, preference)
        v = np.einsum("tj,i->tij", activity, preference)
        denominator = float(np.einsum("t,tij,tij->", w2, u, u))
        f = 0.5 if denominator <= 1e-12 else float(np.einsum("t,tij,tij->", w2, u, values - v)) / denominator
        f = float(np.clip(f, *bounds))
        errors = rel_l2_temporal_error(values, simplified_ic_series(f, activity, preference))
        history.append(float(np.sum(errors)))
        if previous - history[-1] < tolerance:
            converged = True
            break
        previous = history[-1]
    return f, preference, activity, errors, history, converged


def _noisy_series():
    rng = np.random.default_rng(11)
    activity = rng.lognormal(np.log(1e6), 0.7, (40, 10))
    preference = rng.lognormal(-4.3, 1.7, 10)
    clean = simplified_ic_series(0.22, activity, preference / preference.sum())
    return clean * rng.lognormal(0.0, 0.2, clean.shape)


def _full_scale_week(name):
    from repro.synthesis.datasets import load_dataset

    return load_dataset(name, n_weeks=1, full_scale=True).week(0).values


@pytest.fixture(scope="module", params=["geant", "totem", "noisy", "clean"])
def reference_case(request, clean_ic_series):
    if request.param == "clean":
        values = np.asarray(clean_ic_series[0].values)
    elif request.param == "noisy":
        values = _noisy_series()
    else:
        values = _full_scale_week(request.param)
    return values, _reference_stable_fp(values)


@pytest.mark.parametrize("streamed", [False, True], ids=["in-memory", "streamed"])
def test_kernel_matches_reference_als(reference_case, streamed):
    values, (f, preference, activity, errors, history, converged) = reference_case
    fit = _streamed_fit(values, chunk_bins=7) if streamed else fit_stable_fp(values)
    assert len(fit.objective_history) == len(history)
    assert fit.converged == converged
    assert fit.forward_fraction == pytest.approx(f, rel=1e-10)
    for got, want in ((fit.preference, preference), (fit.activity, activity)):
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10 * np.abs(want).max())
    # Errors of a near-exact fit (~1e-9) move by ~1e-15 when the parameters
    # move in their last bit, so they also get the 1e-12 absolute floor.
    np.testing.assert_allclose(fit.errors, errors, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(fit.objective_history, history, rtol=1e-10, atol=1e-12)


# ---------------------------------------------------------------------------
# validation and numerical edge cases
# ---------------------------------------------------------------------------

def _streamed_fit(values, *, chunk_bins=None, **kwargs):
    from repro.streaming import as_chunk_stream

    return fit_stable_fp(as_chunk_stream(values, chunk_bins=chunk_bins), **kwargs)


@pytest.mark.parametrize(
    "fit, message",
    [
        (fit_stable_fp, "at least one time bin"),
        (fit_stable_f, "at least one time bin"),
        (fit_time_varying, "at least one time bin"),
        (_streamed_fit, "at least one bin"),
    ],
    ids=["stable_fp", "stable_f", "time_varying", "streamed"],
)
def test_zero_bin_series_rejected(fit, message):
    with pytest.raises(ValidationError, match=message):
        fit(np.zeros((0, 4, 4)))


def _series_with_zero_bin_and_node():
    """Noisy stable-fP traffic with bin 4 all zero and node 2 silent throughout."""
    rng = np.random.default_rng(5)
    n, t = 6, 20
    preference = rng.lognormal(-2.0, 1.0, n)
    preference[2] = 0.0
    activity = rng.lognormal(np.log(1e5), 0.5, (t, n))
    activity[:, 2] = 0.0
    values = simplified_ic_series(0.3, activity, preference / preference.sum())
    values = values * rng.lognormal(0.0, 0.1, values.shape)
    values[4] = 0.0
    return values


@pytest.mark.parametrize("bounds", [(0.0, 0.5), (0.0, 1e-4)], ids=["default", "f-near-zero"])
@pytest.mark.parametrize("chunk_bins", [None, 1, 7, 20], ids=["in-memory", "chunk1", "chunk7", "chunkT"])
def test_zero_bin_and_silent_node(chunk_bins, bounds):
    from repro.core.metrics import rel_l2_temporal_error

    values = _series_with_zero_bin_and_node()
    if chunk_bins is None:
        fit = fit_stable_fp(values, forward_bounds=bounds)
    else:
        fit = _streamed_fit(values, chunk_bins=chunk_bins, forward_bounds=bounds)
    for parameter in (fit.forward_fraction, fit.preference, fit.activity, fit.errors):
        assert np.all(np.isfinite(parameter))
    assert bounds[0] <= fit.forward_fraction <= bounds[1]
    assert fit.errors[4] == 0.0
    assert fit.preference[2] == 0.0
    np.testing.assert_allclose(
        fit.errors, rel_l2_temporal_error(values, _predicted(fit)), rtol=0, atol=1e-12
    )
    assert fit.objective_history[-1] == fit.errors.sum()


def test_near_exact_fit_is_scored_exactly(clean_ic_series):
    """The expanded score cancels to ~1e-7 here; the exact re-score keeps it."""
    series, *_ = clean_ic_series
    assert fit_stable_fp(series).objective < 1e-10
