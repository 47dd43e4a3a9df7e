"""Shared machinery for the TM-estimation experiments (Figures 11-13).

All three experiments follow the same protocol — simulate a target week's
measurements, build the gravity prior and one IC prior, run both through the
identical tomogravity + IPF pipeline, and report the per-bin improvement.
That protocol now lives in :class:`repro.scenarios.ScenarioRunner`; this
module keeps the :class:`EstimationComparison` result type the figures (and
their tests) consume, plus the adapter from a
:class:`repro.scenarios.ScenarioResult` to it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._tables import format_rows
from repro.core.metrics import summarize_improvement

__all__ = ["EstimationComparison", "comparison_from_result"]


@dataclass(frozen=True)
class EstimationComparison:
    """Comparison of an IC prior against the gravity prior through the same pipeline.

    Attributes
    ----------
    dataset:
        Which dataset was used.
    scenario:
        Short name of the IC prior scenario (``"measured"``, ``"stable-fP"``,
        ``"stable-f"``).
    improvement:
        Per-bin percentage improvement of the IC-prior estimate over the
        gravity-prior estimate (the series plotted in the paper's figure).
    ic_errors, gravity_errors:
        Per-bin errors of the two final estimates.
    ic_prior_errors, gravity_prior_errors:
        Per-bin errors of the raw priors (before refinement), for diagnostics.
    """

    dataset: str
    scenario: str
    improvement: np.ndarray
    ic_errors: np.ndarray
    gravity_errors: np.ndarray
    ic_prior_errors: np.ndarray
    gravity_prior_errors: np.ndarray

    @property
    def mean_improvement(self) -> float:
        return float(np.mean(self.improvement))

    def format_table(self) -> str:
        summary = summarize_improvement(self.improvement)
        rows = [
            ["dataset", self.dataset],
            ["scenario", self.scenario],
            ["mean estimation error (gravity prior)", float(np.mean(self.gravity_errors))],
            ["mean estimation error (IC prior)", float(np.mean(self.ic_errors))],
            ["mean improvement %", summary["mean"]],
            ["median improvement %", summary["median"]],
            ["25th-75th percentile improvement %", f"{summary['p25']:.3g} .. {summary['p75']:.3g}"],
            ["mean raw prior error (gravity)", float(np.mean(self.gravity_prior_errors))],
            ["mean raw prior error (IC)", float(np.mean(self.ic_prior_errors))],
        ]
        return format_rows(["quantity", "value"], rows)


def comparison_from_result(result) -> EstimationComparison:
    """Adapt a gravity-baselined :class:`ScenarioResult` to the figure format."""
    if result.improvement is None:
        raise ValueError(
            "the scenario was run without a baseline prior; "
            "run it with ScenarioRunner(baseline_prior='gravity')"
        )
    return EstimationComparison(
        dataset=result.scenario.dataset,
        scenario=result.prior_label,
        improvement=result.improvement,
        ic_errors=result.errors,
        gravity_errors=result.baseline_errors,
        ic_prior_errors=result.prior_errors,
        gravity_prior_errors=result.baseline_prior_errors,
    )
