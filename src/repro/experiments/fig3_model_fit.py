"""Figure 3: how well the stable-fP IC model fits data, relative to gravity.

For one week of each dataset the stable-fP model is fitted (Section 5.1's
nonlinear program) and the per-bin relative L2 error compared with the
gravity model's reconstruction from the same week's marginals.  The paper
reports improvements of roughly 20-25 % on Geant and 6-8 % on Totem, despite
the IC model having about half the degrees of freedom.

Figures 7, 8 and 9 read ``P`` and ``A(t)`` from the same fit of the same
week, so :func:`week_fit` makes it once per dataset week and all four
figures share it.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from repro._tables import format_rows
from repro.core.fitting import FitResult, fit_stable_fp
from repro.core.gravity import gravity_series
from repro.core.ic_model import degrees_of_freedom
from repro.core.metrics import percent_improvement, rel_l2_temporal_error, summarize_improvement
from repro.core.traffic_matrix import TrafficMatrixSeries
from repro.synthesis.datasets import load_dataset

__all__ = ["ModelFitResult", "run_model_fit", "week_fit"]

# dataset object -> {week index: its stable-fP fit}
_WEEK_FITS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def week_fit(
    dataset: str, *, week: int, bins_per_week: int | None, full_scale: bool
) -> tuple[TrafficMatrixSeries, FitResult]:
    """Week ``week`` of ``dataset`` and its stable-fP fit, fitted on first use.

    The fit is kept against the dataset object that
    :func:`~repro.synthesis.datasets.load_dataset` memoises, weakly, so it
    lives exactly as long as that memo entry: ``load_dataset.cache_clear()``
    drops it with the data it was fitted to.  Every caller gets the same
    result object, so its arrays are read-only.
    """
    data = load_dataset(
        dataset, n_weeks=max(week + 1, 1), bins_per_week=bins_per_week, full_scale=full_scale
    )
    series = data.week(week)
    fits = _WEEK_FITS.setdefault(data, {})
    if week not in fits:
        fit = fit_stable_fp(series)
        for array in (fit.preference, fit.activity, fit.errors):
            array.flags.writeable = False
        fits[week] = fit
    return series, fits[week]


@dataclass(frozen=True)
class ModelFitResult:
    """Per-dataset comparison of the stable-fP fit against the gravity model.

    Attributes
    ----------
    dataset:
        ``"geant"`` or ``"totem"``.
    improvement:
        Per-bin percentage improvement of the IC fit over gravity (the series
        plotted in Figure 3).
    ic_errors, gravity_errors:
        The underlying per-bin error series.
    fitted_f:
        The fitted network-wide forward fraction.
    ic_dof, gravity_dof:
        Degrees of freedom of each model for this week (Section 5.1).
    """

    dataset: str
    improvement: np.ndarray
    ic_errors: np.ndarray
    gravity_errors: np.ndarray
    fitted_f: float
    ic_dof: int
    gravity_dof: int

    @property
    def mean_improvement(self) -> float:
        return float(np.mean(self.improvement))

    def format_table(self) -> str:
        summary = summarize_improvement(self.improvement)
        rows = [
            ["dataset", self.dataset],
            ["fitted f", self.fitted_f],
            ["mean IC error", float(np.mean(self.ic_errors))],
            ["mean gravity error", float(np.mean(self.gravity_errors))],
            ["mean improvement %", summary["mean"]],
            ["median improvement %", summary["median"]],
            ["stable-fP degrees of freedom", self.ic_dof],
            ["gravity degrees of freedom", self.gravity_dof],
        ]
        return format_rows(["quantity", "value"], rows)


def run_model_fit(
    dataset: str = "geant",
    *,
    bins_per_week: int | None = None,
    full_scale: bool = False,
    week: int = 0,
) -> ModelFitResult:
    """Run the Figure 3 experiment on one week of the chosen dataset.

    Parameters
    ----------
    dataset:
        ``"geant"`` (panel a) or ``"totem"`` (panel b).
    bins_per_week, full_scale:
        Workload size; defaults are reduced for speed.
    week:
        Which week of the dataset to fit.
    """
    series, fit = week_fit(dataset, week=week, bins_per_week=bins_per_week, full_scale=full_scale)
    gravity = gravity_series(series)
    gravity_errors = rel_l2_temporal_error(series, gravity)
    improvement = percent_improvement(gravity_errors, fit.errors)
    n, t = series.n_nodes, series.n_timesteps
    return ModelFitResult(
        dataset=dataset,
        improvement=improvement,
        ic_errors=fit.errors,
        gravity_errors=gravity_errors,
        fitted_f=float(fit.forward_fraction),
        ic_dof=degrees_of_freedom("stable-fP", n, t),
        gravity_dof=degrees_of_freedom("gravity", n, t),
    )
