"""Figure 7: the distributional tail of the preference values.

The complementary CDF of one week's fitted ``{P_i}`` is compared against
maximum-likelihood exponential and lognormal fits.  The paper finds the
lognormal (``mu ≈ -4.3``, ``sigma ≈ 1.7``) to approximate the tail far better
than the exponential, while cautioning that with only 22-23 points the fits
should not be over-interpreted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._tables import format_rows
from repro.characterization.distributions import (
    DistributionFit,
    compare_tail_fits,
    empirical_ccdf,
)
from repro.experiments.fig3_model_fit import week_fit

__all__ = ["PreferenceCCDFResult", "run_preference_ccdf"]


@dataclass(frozen=True)
class PreferenceCCDFResult:
    """Empirical CCDF of the fitted preferences and the two candidate fits.

    Attributes
    ----------
    dataset:
        Which dataset was used.
    preference:
        The fitted preference vector of the analysed week.
    ccdf_values, ccdf_probabilities:
        The empirical CCDF points (sorted values and tail probabilities).
    fits:
        The exponential and lognormal MLE fits keyed by name.
    lognormal_preferred:
        Whether the lognormal fit achieves the higher log-likelihood — the
        paper's qualitative conclusion.
    """

    dataset: str
    preference: np.ndarray
    ccdf_values: np.ndarray
    ccdf_probabilities: np.ndarray
    fits: dict[str, DistributionFit]
    lognormal_preferred: bool

    def format_table(self) -> str:
        rows = []
        for name, fit in self.fits.items():
            parameters = ", ".join(f"{k}={v:.3g}" for k, v in fit.parameters.items())
            rows.append([name, parameters, fit.log_likelihood, fit.ks_distance])
        table = format_rows(["distribution", "parameters", "log-likelihood", "KS distance"], rows)
        verdict = (
            "lognormal fits the tail better (matches the paper)"
            if self.lognormal_preferred
            else "exponential fits better (does NOT match the paper)"
        )
        return table + "\n" + verdict


def run_preference_ccdf(
    dataset: str = "geant",
    *,
    bins_per_week: int | None = None,
    full_scale: bool = False,
    week: int = 0,
) -> PreferenceCCDFResult:
    """Fit one week, compute the preference CCDF and compare tail models."""
    _, fit = week_fit(dataset, week=week, bins_per_week=bins_per_week, full_scale=full_scale)
    preference = fit.preference
    positive = preference[preference > 0]
    values, probabilities = empirical_ccdf(positive)
    fits = compare_tail_fits(positive)
    lognormal_preferred = fits["lognormal"].log_likelihood > fits["exponential"].log_likelihood
    return PreferenceCCDFResult(
        dataset=dataset,
        preference=preference,
        ccdf_values=values,
        ccdf_probabilities=probabilities,
        fits=fits,
        lognormal_preferred=bool(lognormal_preferred),
    )
