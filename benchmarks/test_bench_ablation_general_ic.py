"""Ablation: simplified (single-f) versus general (per-pair f_ij) IC fitting.

DESIGN.md calls out the simplified-vs-general choice (Section 5.6 of the
paper): under responder-dependent f and routing asymmetry, how much fit
accuracy does the single-f simplification give up, and what does the general
fit cost in time?
"""

from __future__ import annotations

import numpy as np

from repro.core.fitting import fit_stable_fp
from repro.core.general_fitting import fit_general_ic
from repro.synthesis.datasets import load_dataset


def test_ablation_general_vs_simplified_fit(benchmark):
    week = load_dataset("geant", n_weeks=1, bins_per_week=96).week(0)
    simplified = fit_stable_fp(week)

    general = benchmark.pedantic(
        fit_general_ic, args=(week,), kwargs={"base_fit": simplified}, rounds=1, iterations=1
    )
    print(
        f"\nsimplified fit error: {simplified.mean_error:.4f}\n"
        f"general fit error:    {general.mean_error:.4f}\n"
        f"max |f_ij - f_ji|/2:  {np.abs(general.asymmetry).max():.3f}"
    )
    benchmark.extra_info["simplified_error"] = simplified.mean_error
    benchmark.extra_info["general_error"] = general.mean_error
    assert general.mean_error <= simplified.mean_error + 1e-9
