"""Figure 8: preference versus normalised egress volume.

The paper plots each node's fitted ``P_i`` against its mean normalised egress
count ``X_{*i}/X_{**}`` and observes that, above the median traffic level,
egress volume is a poor predictor of preference — i.e. preference carries
information the marginals alone do not.  The paper also reports (Section 5.4)
that preference shows no correlation with mean activity.  This experiment
computes both comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._tables import format_rows
from repro.characterization.stability import correlation
from repro.experiments.fig3_model_fit import week_fit

__all__ = ["PreferenceVsEgressResult", "run_preference_vs_egress"]


@dataclass(frozen=True)
class PreferenceVsEgressResult:
    """Per-node preference and normalised egress, with correlation summaries.

    Attributes
    ----------
    dataset:
        Which dataset was used.
    preference:
        Fitted ``P_i`` per node.
    normalized_egress:
        Mean ``X_{*i}/X_{**}`` per node.
    correlation_all:
        Pearson correlation between preference and normalised egress over all
        nodes.
    correlation_above_median:
        Same, restricted to nodes whose egress exceeds the median (the regime
        where the paper finds little correlation).
    preference_activity_correlation:
        Correlation between preference and mean fitted activity (the paper
        finds none).
    """

    dataset: str
    preference: np.ndarray
    normalized_egress: np.ndarray
    correlation_all: float
    correlation_above_median: float
    preference_activity_correlation: float

    def format_table(self) -> str:
        order = np.argsort(self.normalized_egress)[::-1]
        rows = [
            [f"node {int(i)}", self.normalized_egress[i], self.preference[i]]
            for i in order[: min(10, order.size)]
        ]
        table = format_rows(["node (top by egress)", "mean egress share", "fitted P"], rows)
        summary = format_rows(
            ["quantity", "value"],
            [
                ["corr(P, egress share), all nodes", self.correlation_all],
                ["corr(P, egress share), above-median nodes", self.correlation_above_median],
                ["corr(P, mean activity)", self.preference_activity_correlation],
            ],
        )
        return table + "\n\n" + summary


def run_preference_vs_egress(
    dataset: str = "geant",
    *,
    bins_per_week: int | None = None,
    full_scale: bool = False,
    week: int = 0,
) -> PreferenceVsEgressResult:
    """Compare fitted preference with normalised egress counts for one week."""
    series, fit = week_fit(dataset, week=week, bins_per_week=bins_per_week, full_scale=full_scale)
    egress_share = series.egress.mean(axis=0)
    egress_share = egress_share / egress_share.sum()
    preference = fit.preference
    median = float(np.median(egress_share))
    above = egress_share >= median
    corr_above = correlation(preference[above], egress_share[above]) if above.sum() >= 2 else 0.0
    mean_activity = fit.activity.mean(axis=0)
    return PreferenceVsEgressResult(
        dataset=dataset,
        preference=preference,
        normalized_egress=egress_share,
        correlation_all=correlation(preference, egress_share),
        correlation_above_median=corr_above,
        preference_activity_correlation=correlation(preference, mean_activity),
    )
