"""Figure 5: stability of the fitted ``f`` over consecutive weeks.

The stable-fP fit is run independently on each week of the Totem-like
dataset (seven weeks in the paper); the fitted ``f`` values should be close
to one another and in the 0.2 range.  The weeks are walked with
:meth:`~repro.synthesis.datasets.StreamingDataset.iter_weeks`, so the fit
holds one week at a time and the dataset memo keeps only the plan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._tables import format_rows
from repro.characterization.stability import StabilityReport, parameter_stability
from repro.core.fitting import fit_stable_fp
from repro.synthesis.datasets import load_dataset

__all__ = ["FStabilityResult", "run_f_stability"]


@dataclass(frozen=True)
class FStabilityResult:
    """Fitted ``f`` per week and its stability summary.

    Attributes
    ----------
    dataset:
        Which dataset was used.
    weekly_f:
        The fitted forward fraction of each week.
    stability:
        Coefficient of variation / max relative change across weeks.
    true_f:
        The generating forward fraction of the synthetic dataset (available
        for validation; the paper has no ground truth).
    """

    dataset: str
    weekly_f: np.ndarray
    stability: StabilityReport
    true_f: float

    def format_table(self) -> str:
        rows = [[f"week {i + 1}", value] for i, value in enumerate(self.weekly_f)]
        rows.append(["mean", float(np.mean(self.weekly_f))])
        rows.append(["coefficient of variation", self.stability.coefficient_of_variation])
        rows.append(["max week-to-week change", self.stability.max_relative_change])
        rows.append(["generating f", self.true_f])
        return format_rows(["week", "fitted f"], rows)


def run_f_stability(
    dataset: str = "totem",
    *,
    n_weeks: int = 7,
    bins_per_week: int | None = None,
    full_scale: bool = False,
) -> FStabilityResult:
    """Fit the stable-fP model to each week and summarise the stability of ``f``."""
    data = load_dataset(dataset, n_weeks=n_weeks, bins_per_week=bins_per_week, full_scale=full_scale)
    weekly_f = np.array(
        [float(fit_stable_fp(week).forward_fraction) for week in data.iter_weeks()]
    )
    return FStabilityResult(
        dataset=dataset,
        weekly_f=weekly_f,
        stability=parameter_stability(weekly_f),
        true_f=float(data.ground_truths[0].forward_fraction),
    )
