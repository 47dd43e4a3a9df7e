"""Every paper figure and fitting ablation: its paper shape and its golden numbers.

Each test runs one case of :mod:`figure_goldens` once, checks the summary
numbers against ``tests/golden/figures.json`` at that module's tolerance,
and asserts the paper's qualitative claim for the figure.
"""

from __future__ import annotations

import numpy as np
import pytest

import figure_goldens
from figure_goldens import CASES, DATASETS, differences, load_goldens, run_checked
from repro.registry import EXPERIMENTS_REGISTRY


def test_fig2_example_network():
    result = run_checked("fig2_example_network")
    # Paper values: 0.50, 0.93, 0.95 and 0.65.
    assert abs(result.conditional_egress_given_ingress["A"] - 0.50) < 0.01
    assert abs(result.conditional_egress_given_ingress["B"] - 0.93) < 0.01
    assert abs(result.conditional_egress_given_ingress["C"] - 0.95) < 0.01
    assert abs(result.marginal_egress - 0.65) < 0.01


@pytest.mark.parametrize("dataset", DATASETS)
def test_fig3_model_fit(dataset):
    """The stable-fP IC model beats gravity with fewer degrees of freedom
    (paper: Geant 20-25 %, Totem 6-8 %)."""
    result = run_checked(f"fig3_model_fit[{dataset}]")
    assert result.mean_improvement > 0.0
    assert result.ic_dof < result.gravity_dof


def test_fig4_f_from_traces():
    """f in 0.2-0.3, similar in both directions, with < 20 % unknown traffic."""
    result = run_checked("fig4_f_from_traces")
    mean_ab, mean_ba = result.mean_measured_f
    assert 0.15 < mean_ab < 0.35
    assert 0.15 < mean_ba < 0.35
    assert result.measurement.spatial_gap() < 0.1
    assert result.measurement.unknown_fraction < 0.2


def test_fig5_f_stability():
    """The fitted f of seven Totem weeks is nearly constant, around 0.2."""
    result = run_checked("fig5_f_stability")
    assert result.weekly_f.shape == (7,)
    assert result.stability.coefficient_of_variation < 0.15
    assert all(0.05 < value < 0.45 for value in result.weekly_f)


@pytest.mark.parametrize("dataset, n_weeks", [("geant", 3), ("totem", 7)])
def test_fig6_preference_stability(dataset, n_weeks):
    """Preferences barely move between weeks but vary widely across nodes."""
    result = run_checked(f"fig6_preference_stability[{dataset}-{n_weeks}]")
    assert result.stability.week_to_week_correlation > 0.9
    assert result.spread_ratio > 5.0


@pytest.mark.parametrize("dataset", DATASETS)
def test_fig7_preference_ccdf(dataset):
    """A lognormal fits the preference tail better than an exponential."""
    result = run_checked(f"fig7_preference_ccdf[{dataset}]")
    assert result.lognormal_preferred


@pytest.mark.parametrize("dataset", DATASETS)
def test_fig8_preference_vs_egress(dataset):
    """Above the median, egress volume poorly predicts preference, and
    preference is uncorrelated with activity."""
    result = run_checked(f"fig8_preference_vs_egress[{dataset}]")
    assert result.correlation_above_median < 0.95
    assert abs(result.preference_activity_correlation) < 0.7


def test_fig9_activity_timeseries():
    """Daily periodicity, a weekend dip, and larger nodes above smaller ones."""
    result = run_checked("fig9_activity_timeseries")
    assert 0.7 < result.diurnal_period_days < 1.3
    assert result.weekend_ratios["largest"] < 1.0
    assert result.selected_series["largest"].mean() > result.selected_series["smallest"].mean()


def test_fig10_routing_asymmetry():
    """The simplified model degrades with routing asymmetry but still beats gravity."""
    result = run_checked("fig10_routing_asymmetry")
    assert result.simplified_errors[-1] > result.simplified_errors[0]
    assert np.all(result.simplified_errors < result.gravity_errors)


@pytest.mark.parametrize("dataset", DATASETS)
def test_fig11_estimation_measured(dataset):
    """All IC parameters measured: the largest gain over the gravity prior
    (paper: 10-20 % Geant, 20-30 % Totem)."""
    result = run_checked(f"fig11_estimation_measured[{dataset}]")
    assert result.mean_improvement > 0.0


@pytest.mark.parametrize("dataset", DATASETS)
def test_fig12_estimation_stable_fp(dataset):
    """f and P from a previous week still improve on gravity (paper: 10-20 %)."""
    result = run_checked(f"fig12_estimation_stable_fp[{dataset}]")
    assert result.mean_improvement > 0.0


@pytest.mark.parametrize("dataset", DATASETS)
def test_fig13_estimation_stable_f(dataset):
    """Only f known: the smallest gain (paper: ~8 % Geant, 1-2 % Totem)."""
    result = run_checked(f"fig13_estimation_stable_f[{dataset}]")
    assert result.mean_improvement > -5.0  # clearly weaker prior, but not harmful


def test_fig13_is_weaker_than_fig12_on_geant():
    """The stable-f prior is the weakest IC prior on the same target week."""
    stable_f, stable_fp = run_checked("fig13_is_weaker_than_fig12_on_geant")
    assert stable_f.mean_improvement <= stable_fp.mean_improvement + 2.0


def test_ablation_als_fit():
    fit = run_checked("ablation_als_fit")
    assert fit.mean_error < 1.0


def test_ablation_refined_fit():
    """Stopping ALS at the tolerance loses nothing a 100-pass run would find."""
    fit = run_checked("ablation_refined_fit")
    plain = CASES["ablation_als_fit"].run()
    assert len(fit.objective_history) == 100
    assert fit.objective == pytest.approx(plain.objective, rel=1e-6)


def test_ablation_model_variant_ordering():
    """More flexible variants fit at least as well: the error falls from
    stable-fP (Eq. 5) to stable-f (Eq. 4) to time-varying (Eq. 3)."""
    stable_fp, stable_f, time_varying = run_checked("ablation_model_variant_ordering")
    assert stable_f.mean_error <= stable_fp.mean_error + 1e-3
    assert time_varying.mean_error <= stable_f.mean_error + 1e-3
    assert np.isfinite(time_varying.mean_error)


class TestGoldenCoverage:
    def test_every_experiment_has_a_golden_case(self):
        covered = {case.experiment for case in CASES.values()}
        assert set(EXPERIMENTS_REGISTRY.names()) <= covered

    def test_every_golden_case_is_a_tested_case(self):
        assert set(load_goldens()) == set(CASES)
        for name in CASES:
            assert callable(globals().get("test_" + name.split("[")[0])), name

    def test_missing_golden_file_names_the_record_script(self, monkeypatch, tmp_path):
        monkeypatch.setattr(figure_goldens, "GOLDEN_PATH", tmp_path / "figures.json")
        with pytest.raises(AssertionError, match="scripts/record_goldens.py"):
            figure_goldens.load_goldens()
        (tmp_path / "figures.json").write_text("{not json")
        with pytest.raises(AssertionError, match="scripts/record_goldens.py"):
            figure_goldens.load_goldens()

    def test_a_moved_value_fails_naming_its_key(self):
        golden = load_goldens()["ablation_als_fit"]
        moved = dict(golden, forward_fraction=golden["forward_fraction"] * (1 + 1e-6))
        lines = differences(golden, moved)
        assert len(lines) == 1 and lines[0].startswith("forward_fraction:")
        assert differences(golden, golden) == []
