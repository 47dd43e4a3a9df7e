"""Figure 9: the fitted activity time series of large, medium and small nodes.

The paper plots ``A_i(t)`` for the node with the largest mean activity, an
intermediate node and one of the smallest, and observes strong daily
periodicity, weekend dips and more pronounced patterns at higher activity
levels.  This experiment fits one (multi-day) week, extracts those three
series and quantifies the periodicity and weekend behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._tables import format_rows
from repro.characterization.activity_analysis import ActivitySummary, analyze_activity, weekend_ratio
from repro.experiments.fig3_model_fit import week_fit

__all__ = ["ActivityTimeseriesResult", "run_activity_timeseries"]

_SECONDS_PER_DAY = 86400.0


@dataclass(frozen=True)
class ActivityTimeseriesResult:
    """Fitted activity ensemble and the Figure 9 node selection.

    Attributes
    ----------
    dataset:
        Which dataset was used.
    activity:
        The fitted ``(T, n)`` activity series.
    summary:
        Per-node summary (mean levels, dominant periods, node selection).
    selected_series:
        The three plotted series keyed by ``"largest"``, ``"medium"``,
        ``"smallest"``.
    diurnal_period_days:
        Dominant period of the largest node's series, in days (≈ 1 when the
        series covers several days).
    weekend_ratios:
        Weekend/weekday activity ratio of the three selected nodes.
    """

    dataset: str
    activity: np.ndarray
    summary: ActivitySummary
    selected_series: dict[str, np.ndarray]
    diurnal_period_days: float
    weekend_ratios: dict[str, float]

    def format_table(self) -> str:
        rows = []
        for label in ("largest", "medium", "smallest"):
            series = self.selected_series[label]
            rows.append(
                [
                    label,
                    float(series.mean()),
                    float(series.max()),
                    self.weekend_ratios[label],
                ]
            )
        table = format_rows(["node", "mean A(t)", "peak A(t)", "weekend/weekday ratio"], rows)
        return table + f"\ndominant period of largest node: {self.diurnal_period_days:.2f} days"


def run_activity_timeseries(
    dataset: str = "geant",
    *,
    bins_per_week: int | None = None,
    full_scale: bool = False,
    week: int = 0,
) -> ActivityTimeseriesResult:
    """Fit one week and extract the Figure 9 activity time series."""
    series, fit = week_fit(dataset, week=week, bins_per_week=bins_per_week, full_scale=full_scale)
    summary = analyze_activity(fit.activity, bin_seconds=series.bin_seconds)
    selection = {
        "largest": fit.activity[:, summary.largest],
        "medium": fit.activity[:, summary.median_node],
        "smallest": fit.activity[:, summary.smallest],
    }
    period_days = summary.dominant_periods[summary.largest] / _SECONDS_PER_DAY
    start = week * series.n_timesteps * series.bin_seconds
    ratios = {
        label: weekend_ratio(values, bin_seconds=series.bin_seconds, start_seconds=start)
        for label, values in selection.items()
    }
    return ActivityTimeseriesResult(
        dataset=dataset,
        activity=fit.activity,
        summary=summary,
        selected_series=selection,
        diurnal_period_days=float(period_days),
        weekend_ratios=ratios,
    )
