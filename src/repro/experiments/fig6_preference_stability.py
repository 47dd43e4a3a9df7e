"""Figure 6: stability of the fitted preference vector over weeks.

The preference vector ``{P_i}`` is fitted independently per week (three weeks
of Geant, seven of Totem in the paper).  The per-node values should be nearly
identical across weeks — while being highly variable across nodes, with a few
nodes up to ten times more preferred than typical.  As in Fig. 5, the weeks
are walked with
:meth:`~repro.synthesis.datasets.StreamingDataset.iter_weeks`, one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._tables import format_rows
from repro.characterization.stability import StabilityReport, correlation, preference_stability
from repro.core.fitting import fit_stable_fp
from repro.synthesis.datasets import load_dataset

__all__ = ["PreferenceStabilityResult", "run_preference_stability"]


@dataclass(frozen=True)
class PreferenceStabilityResult:
    """Fitted weekly preference vectors and their stability summary.

    Attributes
    ----------
    dataset:
        Which dataset was used.
    weekly_preference:
        Array ``(weeks, n)`` of fitted preference vectors (each sums to 1).
    stability:
        Week-over-week stability report.
    truth_correlation:
        Correlation between the mean fitted preference and the generating
        preference vector (synthetic ground truth; 1.0 is perfect recovery).
    spread_ratio:
        Max over min positive fitted preference (cross-node variability).
    """

    dataset: str
    weekly_preference: np.ndarray
    stability: StabilityReport
    truth_correlation: float
    spread_ratio: float

    def format_table(self) -> str:
        mean_pref = self.weekly_preference.mean(axis=0)
        order = np.argsort(mean_pref)[::-1]
        rows = [
            [f"node {int(i)}", mean_pref[i], self.weekly_preference[:, i].std()]
            for i in order[: min(10, mean_pref.size)]
        ]
        table = format_rows(["node (top by preference)", "mean P", "std across weeks"], rows)
        summary = format_rows(
            ["quantity", "value"],
            [
                ["week-to-week correlation", self.stability.week_to_week_correlation],
                ["max coefficient of variation", self.stability.coefficient_of_variation],
                ["correlation with ground truth", self.truth_correlation],
                ["max/min preference ratio", self.spread_ratio],
            ],
        )
        return table + "\n\n" + summary


def run_preference_stability(
    dataset: str = "geant",
    *,
    n_weeks: int = 3,
    bins_per_week: int | None = None,
    full_scale: bool = False,
) -> PreferenceStabilityResult:
    """Fit each week independently and summarise preference stability."""
    data = load_dataset(dataset, n_weeks=n_weeks, bins_per_week=bins_per_week, full_scale=full_scale)
    weekly = np.stack([fit_stable_fp(week).preference for week in data.iter_weeks()])
    truth = data.ground_truths[0].preference
    mean_fitted = weekly.mean(axis=0)
    positive = mean_fitted[mean_fitted > 0]
    spread = float(positive.max() / positive.min()) if positive.size else float("inf")
    return PreferenceStabilityResult(
        dataset=dataset,
        weekly_preference=weekly,
        stability=preference_stability(weekly),
        truth_correlation=correlation(mean_fitted, truth),
        spread_ratio=spread,
    )
