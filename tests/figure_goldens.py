"""Figure cases and their golden summary numbers.

Each case runs one paper figure (or one fitting ablation) at test scale and
reduces the result to a few named scalars: mean errors, improvements, the
fitted ``f``, CCDF knots and tail-fit parameters, correlations and
stability statistics.  ``tests/test_figures.py`` checks every case against
the committed ``tests/golden/figures.json``; only
``scripts/record_goldens.py`` rewrites that file.

One tolerance, :data:`RTOL`, holds for every number, with no pinned BLAS
thread count.  Changing the thread count moves the refinement outputs by
at most a few 1e-12 relative and the figure numbers by under 3e-15, which
it covers; a solver change that moves the fitted ``f`` by 1e-6 fails it.
Booleans and integers must match exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.core.fitting import fit_stable_f, fit_stable_fp, fit_time_varying
from repro.core.metrics import summarize_improvement
from repro.experiments import (
    run_activity_timeseries,
    run_estimation_measured,
    run_estimation_stable_f,
    run_estimation_stable_fp,
    run_example_network,
    run_f_from_traces,
    run_f_stability,
    run_model_fit,
    run_preference_ccdf,
    run_preference_stability,
    run_preference_vs_egress,
    run_routing_asymmetry,
)
from repro.synthesis.datasets import load_dataset

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "figures.json"
RECORD_COMMAND = "PYTHONPATH=src python scripts/record_goldens.py"
RTOL = 1e-9

DATASETS = ("geant", "totem")


@dataclass(frozen=True)
class FigureCase:
    """One golden case: how to run it and which numbers it is checked on."""

    experiment: str | None  # its EXPERIMENTS_REGISTRY name; None for an ablation
    run: Callable[[], Any]
    summarize: Callable[[Any], dict[str, Any]]

    def summary(self, result) -> dict[str, bool | int | float]:
        """The case's summary with numpy scalars made plain JSON values."""
        plain = {}
        for key, value in self.summarize(result).items():
            if isinstance(value, (bool, np.bool_)):
                plain[key] = bool(value)
            elif isinstance(value, (int, np.integer)):
                plain[key] = int(value)
            else:
                plain[key] = float(value)
        return plain


def _indexed(name: str, values) -> dict[str, float]:
    return {f"{name}[{i}]": value for i, value in enumerate(values)}


def _example_network(result) -> dict[str, Any]:
    conditional = result.conditional_egress_given_ingress
    return {
        **{f"p_egress_a_given_ingress_{node}": p for node, p in conditional.items()},
        "p_egress_a": result.marginal_egress,
        "gravity_would_predict_equal": result.gravity_would_predict_equal,
    }


def _model_fit(result) -> dict[str, Any]:
    return {
        "mean_improvement": result.mean_improvement,
        "mean_ic_error": np.mean(result.ic_errors),
        "mean_gravity_error": np.mean(result.gravity_errors),
        "fitted_f": result.fitted_f,
        "ic_dof": result.ic_dof,
        "gravity_dof": result.gravity_dof,
    }


def _f_from_traces(result) -> dict[str, Any]:
    measurement = result.measurement
    mean_ab, mean_ba = measurement.mean_f()
    std_ab, std_ba = measurement.temporal_spread()
    return {
        "mean_f_ab": mean_ab,
        "mean_f_ba": mean_ba,
        "std_f_ab": std_ab,
        "std_f_ba": std_ba,
        "spatial_gap": measurement.spatial_gap(),
        "unknown_fraction": measurement.unknown_fraction,
        "n_bins": measurement.n_bins,
        "true_f_a": result.true_f_a,
        "true_f_b": result.true_f_b,
    }


def _f_stability(result) -> dict[str, Any]:
    stability = result.stability
    return {
        **_indexed("weekly_f", result.weekly_f),
        "mean_f": stability.mean,
        "coefficient_of_variation": stability.coefficient_of_variation,
        "max_relative_change": stability.max_relative_change,
        "true_f": result.true_f,
    }


def _preference_stability(result) -> dict[str, Any]:
    stability = result.stability
    return {
        "week_to_week_correlation": stability.week_to_week_correlation,
        "coefficient_of_variation": stability.coefficient_of_variation,
        "max_relative_change": stability.max_relative_change,
        "truth_correlation": result.truth_correlation,
        "spread_ratio": result.spread_ratio,
    }


def _preference_ccdf(result) -> dict[str, Any]:
    knots = result.ccdf_values
    summary = {
        "n_knots": knots.size,
        "ccdf_knot_min": knots[0],
        "ccdf_knot_median": np.median(knots),
        "ccdf_knot_max": knots[-1],
        "lognormal_preferred": result.lognormal_preferred,
    }
    for name, fit in result.fits.items():
        summary.update({f"{name}_{key}": value for key, value in fit.parameters.items()})
        summary[f"{name}_log_likelihood"] = fit.log_likelihood
        summary[f"{name}_ks_distance"] = fit.ks_distance
    return summary


def _preference_vs_egress(result) -> dict[str, Any]:
    return {
        "correlation_all": result.correlation_all,
        "correlation_above_median": result.correlation_above_median,
        "preference_activity_correlation": result.preference_activity_correlation,
    }


def _activity_timeseries(result) -> dict[str, Any]:
    return {
        "diurnal_period_days": result.diurnal_period_days,
        **{f"weekend_ratio_{name}": ratio for name, ratio in result.weekend_ratios.items()},
        **{
            f"mean_activity_{name}": series.mean()
            for name, series in result.selected_series.items()
        },
    }


def _routing_asymmetry(result) -> dict[str, Any]:
    return {
        **_indexed("simplified_error", result.simplified_errors),
        **_indexed("general_oracle_error", result.general_oracle_errors),
        **_indexed("gravity_error", result.gravity_errors),
    }


def _estimation(result) -> dict[str, Any]:
    improvement = summarize_improvement(result.improvement)
    return {
        "mean_improvement": improvement["mean"],
        "median_improvement": improvement["median"],
        "mean_ic_error": np.mean(result.ic_errors),
        "mean_gravity_error": np.mean(result.gravity_errors),
        "mean_ic_prior_error": np.mean(result.ic_prior_errors),
        "mean_gravity_prior_error": np.mean(result.gravity_prior_errors),
    }


def _stable_f_and_fp(results) -> dict[str, Any]:
    stable_f, stable_fp = results
    return {
        **{f"stable_f_{key}": value for key, value in _estimation(stable_f).items()},
        **{f"stable_fp_{key}": value for key, value in _estimation(stable_fp).items()},
    }


def _fitting_week():
    return load_dataset("geant", n_weeks=1, bins_per_week=96).week(0)


def _fit(fit) -> dict[str, Any]:
    return {
        "forward_fraction": fit.forward_fraction,
        "mean_error": fit.mean_error,
        "objective": fit.objective,
        "passes": len(fit.objective_history),
    }


def _model_variants(fits) -> dict[str, Any]:
    stable_fp, stable_f, time_varying = fits
    return {
        **{f"stable_fp_{key}": value for key, value in _fit(stable_fp).items()},
        **{f"stable_f_{key}": value for key, value in _fit(stable_f).items()},
        "time_varying_mean_forward_fraction": np.mean(time_varying.forward_fraction),
        "time_varying_mean_error": time_varying.mean_error,
        "time_varying_passes": len(time_varying.objective_history),
    }


CASES: dict[str, FigureCase] = {
    "fig2_example_network": FigureCase("fig2", run_example_network, _example_network),
    **{
        f"fig3_model_fit[{dataset}]": FigureCase(
            "fig3", partial(run_model_fit, dataset), _model_fit
        )
        for dataset in DATASETS
    },
    "fig4_f_from_traces": FigureCase("fig4", run_f_from_traces, _f_from_traces),
    "fig5_f_stability": FigureCase(
        "fig5", partial(run_f_stability, "totem", n_weeks=7), _f_stability
    ),
    **{
        f"fig6_preference_stability[{dataset}-{n_weeks}]": FigureCase(
            "fig6",
            partial(run_preference_stability, dataset, n_weeks=n_weeks),
            _preference_stability,
        )
        for dataset, n_weeks in (("geant", 3), ("totem", 7))
    },
    **{
        f"fig7_preference_ccdf[{dataset}]": FigureCase(
            "fig7", partial(run_preference_ccdf, dataset), _preference_ccdf
        )
        for dataset in DATASETS
    },
    **{
        f"fig8_preference_vs_egress[{dataset}]": FigureCase(
            "fig8", partial(run_preference_vs_egress, dataset), _preference_vs_egress
        )
        for dataset in DATASETS
    },
    # A full week of 5-minute bins, so both the daily period and the weekend
    # dip are measurable.
    "fig9_activity_timeseries": FigureCase(
        "fig9", partial(run_activity_timeseries, "geant", bins_per_week=2016), _activity_timeseries
    ),
    "fig10_routing_asymmetry": FigureCase("fig10", run_routing_asymmetry, _routing_asymmetry),
    **{
        f"fig11_estimation_measured[{dataset}]": FigureCase(
            "fig11", partial(run_estimation_measured, dataset), _estimation
        )
        for dataset in DATASETS
    },
    **{
        f"fig12_estimation_stable_fp[{dataset}]": FigureCase(
            "fig12", partial(run_estimation_stable_fp, dataset), _estimation
        )
        for dataset in DATASETS
    },
    **{
        f"fig13_estimation_stable_f[{dataset}]": FigureCase(
            "fig13", partial(run_estimation_stable_f, dataset), _estimation
        )
        for dataset in DATASETS
    },
    # The same target week for both priors.
    "fig13_is_weaker_than_fig12_on_geant": FigureCase(
        "fig13",
        lambda: (
            run_estimation_stable_f("geant", target_week=1),
            run_estimation_stable_fp("geant", target_week=1),
        ),
        _stable_f_and_fp,
    ),
    "ablation_als_fit": FigureCase(None, lambda: fit_stable_fp(_fitting_week()), _fit),
    # ALS for a fixed 100 passes instead of stopping at the tolerance.
    "ablation_refined_fit": FigureCase(
        None,
        lambda: fit_stable_fp(_fitting_week(), max_iterations=100, tolerance=-np.inf),
        _fit,
    ),
    "ablation_model_variant_ordering": FigureCase(
        None,
        lambda: (
            fit_stable_fp(_fitting_week()),
            fit_stable_f(_fitting_week()),
            fit_time_varying(_fitting_week()),
        ),
        _model_variants,
    ),
}


def load_goldens() -> dict[str, dict[str, Any]]:
    """The committed golden summaries, keyed by case."""
    try:
        with open(GOLDEN_PATH, encoding="utf-8") as handle:
            goldens = json.load(handle)
    except (OSError, ValueError) as exc:
        raise AssertionError(
            f"cannot read the figure goldens {GOLDEN_PATH} ({exc}); "
            f"record them with {RECORD_COMMAND}"
        ) from exc
    if not isinstance(goldens, dict):
        raise AssertionError(
            f"{GOLDEN_PATH} holds no case table; record it with {RECORD_COMMAND}"
        )
    return goldens


def relative_change(value, expected) -> float:
    """``|value - expected| / |expected|``; inf when only one of them is zero."""
    if value == expected:
        return 0.0
    if expected == 0:
        return math.inf
    return abs(value - expected) / abs(expected)


def differences(summary: dict[str, Any], golden: dict[str, Any]) -> list[str]:
    """One line per key that is missing, extra, or off its golden value."""
    lines = [f"{key}: missing from the summary" for key in golden if key not in summary]
    lines += [f"{key}: no golden value" for key in summary if key not in golden]
    for key, value in summary.items():
        if key not in golden:
            continue
        expected = golden[key]
        if isinstance(value, (bool, int)) or isinstance(expected, (bool, int)):
            if type(value) is not type(expected) or value != expected:
                lines.append(f"{key}: {value!r} != golden {expected!r}")
        elif not relative_change(value, expected) <= RTOL:
            change = relative_change(value, expected)
            lines.append(f"{key}: {value!r} vs golden {expected!r} (relative change {change:.3g})")
    return lines


def run_checked(name: str):
    """Run case ``name``, assert its summary matches the golden, return the result."""
    goldens = load_goldens()
    case = CASES[name]
    result = case.run()
    if name not in goldens:
        raise AssertionError(f"no golden for case {name!r}; record it with {RECORD_COMMAND}")
    lines = differences(case.summary(result), goldens[name])
    assert not lines, f"{name} differs from {GOLDEN_PATH.name} (rtol {RTOL}):\n" + "\n".join(lines)
    return result
