"""Tests for the experiment drivers: each figure's qualitative claim at small scale.

These are integration tests of the full stack (synthesis → fitting → priors →
estimation) run at deliberately small scale so the whole module stays fast.
They check the *shape* of each result — who wins, orderings, ranges — not
absolute numbers.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core.fitting import fit_stable_fp
from repro.experiments import EXPERIMENTS
from repro.experiments.example_network import run_example_network
from repro.experiments.fig3_model_fit import run_model_fit
from repro.experiments.fig4_f_from_traces import run_f_from_traces
from repro.experiments.fig5_f_stability import run_f_stability
from repro.experiments.fig6_preference_stability import run_preference_stability
from repro.experiments.fig7_preference_ccdf import run_preference_ccdf
from repro.experiments.fig8_preference_vs_egress import run_preference_vs_egress
from repro.experiments.fig9_activity_timeseries import run_activity_timeseries
from repro.experiments.fig10_routing_asymmetry import run_routing_asymmetry
from repro.experiments.fig11_estimation_measured import run_estimation_measured
from repro.experiments.fig12_estimation_stable_fp import run_estimation_stable_fp
from repro.experiments.fig13_estimation_stable_f import run_estimation_stable_f
from repro.registry import DATASETS
from repro.synthesis.datasets import load_dataset

SMALL = {"bins_per_week": 36}


def test_registry_covers_every_figure():
    assert set(EXPERIMENTS) == {
        "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
        "fig10", "fig11", "fig12", "fig13",
    }


class TestFig2Example:
    def test_paper_probabilities(self):
        result = run_example_network()
        conditionals = result.conditional_egress_given_ingress
        assert conditionals["A"] == pytest.approx(200 / 403, abs=1e-9)
        assert conditionals["B"] == pytest.approx(102 / 109, abs=1e-9)
        assert conditionals["C"] == pytest.approx(101 / 106, abs=1e-9)
        assert result.marginal_egress == pytest.approx(403 / 618, abs=1e-9)

    def test_gravity_prediction_fails(self):
        result = run_example_network()
        assert not result.gravity_would_predict_equal

    def test_total_traffic(self):
        result = run_example_network()
        assert result.traffic_matrix.sum() == pytest.approx(618.0)

    def test_format_table(self):
        assert "P[E=A | I=B]" in run_example_network().format_table()


class TestFig3ModelFit:
    @pytest.mark.parametrize("dataset", ["geant", "totem"])
    def test_ic_fits_better_than_gravity(self, dataset):
        result = run_model_fit(dataset, **SMALL)
        assert result.mean_improvement > 0.0
        assert float(np.mean(result.ic_errors)) < float(np.mean(result.gravity_errors))

    def test_ic_has_fewer_degrees_of_freedom(self):
        result = run_model_fit("geant", **SMALL)
        assert result.ic_dof < result.gravity_dof

    def test_fitted_f_in_plausible_range(self):
        result = run_model_fit("geant", **SMALL)
        assert 0.1 < result.fitted_f < 0.45

    def test_format_table(self):
        assert "mean improvement %" in run_model_fit("geant", **SMALL).format_table()


class TestFig4FTraces:
    def test_measured_f_in_paper_range(self):
        result = run_f_from_traces(duration_seconds=3600.0, connections_per_hour=2500)
        mean_ab, mean_ba = result.mean_measured_f
        assert 0.15 < mean_ab < 0.35
        assert 0.15 < mean_ba < 0.35

    def test_spatial_stability(self):
        result = run_f_from_traces(duration_seconds=3600.0, connections_per_hour=2500)
        assert result.measurement.spatial_gap() < 0.1

    def test_unknown_fraction_below_paper_bound(self):
        result = run_f_from_traces(duration_seconds=3600.0, connections_per_hour=2500)
        assert result.measurement.unknown_fraction < 0.2

    def test_per_application_ordering(self):
        result = run_f_from_traces(duration_seconds=1800.0, connections_per_hour=1000)
        assert result.per_application_f["web"] < result.per_application_f["p2p"]

    def test_format_table(self):
        table = run_f_from_traces(duration_seconds=1800.0, connections_per_hour=800).format_table()
        assert "unknown traffic fraction" in table


class TestFig5FStability:
    def test_f_stable_across_weeks(self):
        result = run_f_stability("totem", n_weeks=3, bins_per_week=36)
        assert result.weekly_f.shape == (3,)
        assert result.stability.coefficient_of_variation < 0.15
        assert np.all(result.weekly_f > 0.05)

    def test_format_table(self):
        table = run_f_stability("totem", n_weeks=2, bins_per_week=36).format_table()
        assert "coefficient of variation" in table


class TestFig6PreferenceStability:
    def test_preference_stable_and_recovers_truth(self):
        result = run_preference_stability("geant", n_weeks=2, bins_per_week=36)
        assert result.stability.week_to_week_correlation > 0.9
        assert result.truth_correlation > 0.8

    def test_preference_is_highly_variable_across_nodes(self):
        result = run_preference_stability("geant", n_weeks=2, bins_per_week=36)
        assert result.spread_ratio > 5.0

    def test_format_table(self):
        table = run_preference_stability("geant", n_weeks=2, bins_per_week=36).format_table()
        assert "week-to-week correlation" in table


class TestStabilityWeekWalk:
    """Figs 5 and 6 fit the weeks one at a time, with the numbers unchanged."""

    @pytest.mark.parametrize("dataset", ["geant", "totem"])
    def test_fits_equal_a_materialised_oracle(self, dataset):
        knobs = {"n_weeks": 3, "bins_per_week": 40, "full_scale": False}
        f_result = run_f_stability(dataset, **knobs)
        p_result = run_preference_stability(dataset, **knobs)
        # The walk leaves the memoised dataset lazy: only its plan is kept.
        hits = load_dataset.cache_info().hits
        assert not load_dataset(dataset, **knobs).materialized
        assert load_dataset.cache_info().hits == hits + 1
        oracle = DATASETS.get(dataset)(knobs["n_weeks"], bins_per_week=40).materialize()
        fits = [fit_stable_fp(oracle.week(index)) for index in range(oracle.n_weeks)]
        expected_f = np.array([float(fit.forward_fraction) for fit in fits])
        expected_p = np.stack([fit.preference for fit in fits])
        assert f_result.weekly_f.tobytes() == expected_f.tobytes()
        assert p_result.weekly_preference.tobytes() == expected_p.tobytes()

    def test_peak_memory_holds_one_week_not_all(self):
        week_bytes = 672 * 22 * 22 * 8  # one geant week at 672 bins

        def traced_peak(n_weeks):
            load_dataset.cache_clear()
            tracemalloc.start()
            try:
                run_f_stability("geant", n_weeks=n_weeks, bins_per_week=672)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        two, six = traced_peak(2), traced_peak(6)
        # Caching every week grows the peak by four weeks from 2 to 6.
        assert six - two < week_bytes


class TestFig7PreferenceCCDF:
    def test_lognormal_preferred(self):
        result = run_preference_ccdf("geant", **SMALL)
        assert result.lognormal_preferred

    def test_ccdf_shapes(self):
        result = run_preference_ccdf("geant", **SMALL)
        assert result.ccdf_values.shape == result.ccdf_probabilities.shape

    def test_format_table(self):
        assert "lognormal" in run_preference_ccdf("geant", **SMALL).format_table()


class TestFig8PreferenceVsEgress:
    def test_preference_not_explained_by_egress_above_median(self):
        result = run_preference_vs_egress("geant", **SMALL)
        # Among high-traffic nodes the correlation should be visibly below a
        # perfect 1.0 (the paper: "little correlation").
        assert result.correlation_above_median < 0.9

    def test_preference_uncorrelated_with_activity(self):
        result = run_preference_vs_egress("geant", **SMALL)
        assert abs(result.preference_activity_correlation) < 0.6

    def test_format_table(self):
        assert "corr(P, egress share)" in run_preference_vs_egress("geant", **SMALL).format_table()


class TestFig9Activity:
    def test_diurnal_period_about_one_day(self):
        result = run_activity_timeseries("geant", bins_per_week=288)
        assert result.diurnal_period_days == pytest.approx(1.0, rel=0.25)

    def test_node_ordering(self):
        result = run_activity_timeseries("geant", bins_per_week=288)
        assert result.selected_series["largest"].mean() > result.selected_series["smallest"].mean()

    def test_format_table(self):
        assert "weekend/weekday" in run_activity_timeseries("geant", bins_per_week=96).format_table()


class TestFig10RoutingAsymmetry:
    def test_simplified_model_degrades_with_asymmetry(self):
        result = run_routing_asymmetry(n_nodes=8, n_bins=24, asymmetry_levels=(0.0, 0.2))
        assert result.simplified_errors[1] > result.simplified_errors[0]

    def test_simplified_still_beats_gravity(self):
        result = run_routing_asymmetry(n_nodes=8, n_bins=24, asymmetry_levels=(0.0, 0.1))
        assert np.all(result.simplified_errors < result.gravity_errors)

    def test_oracle_error_does_not_grow_with_asymmetry(self):
        """The general model (true f_ij) absorbs asymmetry; the simplified model cannot."""
        result = run_routing_asymmetry(n_nodes=8, n_bins=24, asymmetry_levels=(0.0, 0.1, 0.2))
        oracle_growth = result.general_oracle_errors[-1] - result.general_oracle_errors[0]
        simplified_growth = result.simplified_errors[-1] - result.simplified_errors[0]
        assert oracle_growth < 0.01
        assert simplified_growth > oracle_growth

    def test_format_table(self):
        table = run_routing_asymmetry(n_nodes=6, n_bins=12, asymmetry_levels=(0.0, 0.1)).format_table()
        assert "asymmetry level" in table


class TestSharedWeekFit:
    """Figures 3, 7, 8 and 9 share one stable-fP fit per memoised dataset week."""

    @pytest.fixture
    def fitted(self, monkeypatch):
        """Every series an experiment driver passes to ``fit_stable_fp``."""
        import sys

        fitted = []

        def counting(series, **kwargs):
            fitted.append(series)
            return fit_stable_fp(series, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("repro.experiments.") and hasattr(module, "fit_stable_fp"):
                monkeypatch.setattr(module, "fit_stable_fp", counting)
        load_dataset.cache_clear()
        yield fitted
        load_dataset.cache_clear()

    def test_figures_fit_each_week_once(self, fitted):
        fig3, fig7, fig8, fig9 = (
            run("totem", **SMALL)
            for run in (run_model_fit, run_preference_ccdf, run_preference_vs_egress, run_activity_timeseries)
        )
        assert len(fitted) == 1
        fit = fit_stable_fp(load_dataset("totem", n_weeks=1, **SMALL).week(0))
        np.testing.assert_array_equal(fig3.ic_errors, fit.errors)
        assert fig3.fitted_f == fit.forward_fraction
        np.testing.assert_array_equal(fig7.preference, fit.preference)
        np.testing.assert_array_equal(fig8.preference, fit.preference)
        np.testing.assert_array_equal(fig9.activity, fit.activity)

    def test_fit_lives_as_long_as_the_dataset_memo(self, fitted):
        import gc
        import weakref

        from repro.experiments.fig3_model_fit import _WEEK_FITS

        run_preference_ccdf("totem", **SMALL)
        run_preference_ccdf("totem", **SMALL)
        assert len(fitted) == 1
        dataset = weakref.ref(load_dataset("totem", n_weeks=1, **SMALL))
        load_dataset.cache_clear()
        gc.collect()
        assert dataset() is None
        assert len(_WEEK_FITS) == 0
        run_preference_ccdf("totem", **SMALL)
        assert len(fitted) == 2

    def test_shared_fit_is_read_only(self, fitted):
        from repro.experiments.fig3_model_fit import week_fit

        _, fit = week_fit("totem", week=0, bins_per_week=36, full_scale=False)
        for array in (fit.preference, fit.activity):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0

    def test_fig10_fits_are_not_shared(self, fitted):
        kwargs = {"n_nodes": 6, "n_bins": 12, "asymmetry_levels": (0.0, 0.1)}
        run_routing_asymmetry(**kwargs)
        run_routing_asymmetry(**kwargs)
        assert len(fitted) == 4


ESTIMATION_SMALL = {"bins_per_week": 36, "max_bins": 12}


class TestEstimationExperiments:
    @pytest.mark.parametrize("dataset", ["geant", "totem"])
    def test_measured_prior_beats_gravity(self, dataset):
        result = run_estimation_measured(dataset, **ESTIMATION_SMALL)
        assert result.mean_improvement > 0.0

    @pytest.mark.parametrize("dataset", ["geant", "totem"])
    def test_stable_fp_prior_beats_gravity(self, dataset):
        # The stable-fP prior needs a reasonably long calibration week for the
        # fitted preference to stabilise, so this test uses a larger (but
        # still reduced) workload than the other estimation checks.
        result = run_estimation_stable_fp(dataset, bins_per_week=96, max_bins=16)
        assert result.mean_improvement > 0.0

    def test_stable_f_prior_beats_gravity_on_geant(self):
        result = run_estimation_stable_f("geant", **ESTIMATION_SMALL)
        assert result.mean_improvement > 0.0

    def test_stable_f_is_weakest_ic_prior(self):
        stable_fp = run_estimation_stable_fp("geant", target_week=1, **ESTIMATION_SMALL)
        stable_f = run_estimation_stable_f("geant", target_week=1, **ESTIMATION_SMALL)
        assert stable_f.mean_improvement <= stable_fp.mean_improvement + 2.0

    def test_estimation_beats_raw_prior(self):
        result = run_estimation_measured("geant", **ESTIMATION_SMALL)
        assert float(np.mean(result.ic_errors)) <= float(np.mean(result.ic_prior_errors)) + 1e-6

    def test_format_table(self):
        table = run_estimation_measured("geant", **ESTIMATION_SMALL).format_table()
        assert "mean improvement %" in table
        assert "scenario" in table

    def test_stable_fp_rejects_same_week(self):
        from repro.errors import ValidationError

        with pytest.raises(ValidationError):
            run_estimation_stable_fp("geant", calibration_week=0, target_week=0, **ESTIMATION_SMALL)
