"""Figure 11: TM estimation with all IC parameters measured (Section 6.1).

This is the paper's "thought experiment" bounding the gain the IC model can
provide: ``f``, ``{P_i}`` and ``{A_i(t)}`` are taken from the optimisation fit
of the *same* week being estimated, composed into a prior, and pushed through
the same tomogravity + IPF pipeline as the gravity prior.  The paper reports
improvements of 10-20 % on Geant and 20-30 % on Totem.

The driver is a thin wrapper over the Scenario API: it declares the
``"measured"`` prior on the chosen dataset and lets
:class:`repro.scenarios.ScenarioRunner` execute the shared protocol.
"""

from __future__ import annotations

from repro.experiments._estimation import EstimationComparison, comparison_from_result
from repro.scenarios import Scenario, ScenarioRunner

__all__ = ["run_estimation_measured"]


def run_estimation_measured(
    dataset: str = "geant",
    *,
    bins_per_week: int | None = None,
    full_scale: bool = False,
    week: int = 0,
    max_bins: int | None = 48,
    measurement_noise: float = 0.01,
    stream: bool = False,
    chunk_bins: int | None = None,
) -> EstimationComparison:
    """Run the Figure 11 experiment on one week of the chosen dataset.

    Parameters
    ----------
    dataset:
        ``"geant"`` (panel a) or ``"totem"`` (panel b).
    bins_per_week, full_scale:
        Dataset size knobs.
    week:
        Which week to estimate (the fit uses the same week).
    max_bins:
        Cap on the number of bins run through the estimation pipeline
        (``None`` runs the whole week; the default keeps figure runs quick).
    measurement_noise:
        Relative SNMP measurement noise.
    stream, chunk_bins:
        Execute through the chunked streaming pipeline (bounded peak memory;
        bit-identical same-seed synthesis).
    """
    scenario = Scenario(
        dataset=dataset,
        prior="measured",
        calibration_week=week,
        target_week=week,
        bins_per_week=bins_per_week,
        full_scale=full_scale,
        max_bins=max_bins,
        measurement_noise=measurement_noise,
        stream=stream,
        chunk_bins=chunk_bins,
        name=f"fig11/{dataset}",
    )
    return comparison_from_result(ScenarioRunner().run(scenario))
