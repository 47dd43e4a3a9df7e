"""Distributional analysis of preference values (Figure 7).

The paper examines the complementary CDF of the fitted ``{P_i}`` values and
compares maximum-likelihood exponential and lognormal fits, concluding that
the long-tailed lognormal (``mu ≈ -4.3``, ``sigma ≈ 1.7``) matches the tail
far better.  This module provides the empirical CCDF, both MLE fits and a
simple goodness-of-fit comparison (log-likelihood and Kolmogorov-Smirnov
distance).  ``scipy.stats`` is imported by the functions that use it, so
importing the module (which the CLI does) costs nothing until a fit runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._validation import as_1d_array
from repro.errors import ValidationError

__all__ = [
    "DistributionFit",
    "empirical_ccdf",
    "fit_exponential",
    "fit_lognormal",
    "compare_tail_fits",
]


@dataclass(frozen=True)
class DistributionFit:
    """A fitted candidate distribution and its goodness-of-fit numbers.

    Attributes
    ----------
    name:
        ``"exponential"`` or ``"lognormal"``.
    parameters:
        Distribution parameters: ``{"scale": ...}`` for the exponential,
        ``{"mu": ..., "sigma": ...}`` for the lognormal.
    log_likelihood:
        Total log-likelihood of the data under the fit.
    ks_distance:
        Kolmogorov-Smirnov distance between the data and the fit.
    """

    name: str
    parameters: dict[str, float]
    log_likelihood: float
    ks_distance: float

    def ccdf(self, x: np.ndarray) -> np.ndarray:
        """The fitted distribution's CCDF evaluated at ``x``."""
        x = np.asarray(x, dtype=float)
        if self.name == "exponential":
            return np.exp(-x / self.parameters["scale"])
        if self.name == "lognormal":
            from scipy import stats

            return 1.0 - stats.lognorm.cdf(
                x, s=self.parameters["sigma"], scale=np.exp(self.parameters["mu"])
            )
        raise ValidationError(f"unknown distribution {self.name!r}")


def _positive_values(values, name: str) -> np.ndarray:
    array = as_1d_array(values, name)
    array = array[array > 0]
    if array.size < 2:
        raise ValidationError(f"{name} needs at least two positive values to fit a distribution")
    return array


def empirical_ccdf(values) -> tuple[np.ndarray, np.ndarray]:
    """The empirical complementary CDF of ``values``.

    Returns ``(sorted_values, ccdf)`` where ``ccdf[k]`` is the fraction of
    observations strictly greater than or equal to ``sorted_values[k]``
    (plotted on log-log axes in the paper's Figure 7).
    """
    array = np.sort(as_1d_array(values, "values"))
    n = array.size
    if n == 0:
        raise ValidationError("values must not be empty")
    ccdf = 1.0 - np.arange(n) / n
    return array, ccdf


def fit_exponential(values) -> DistributionFit:
    """Maximum-likelihood exponential fit (MLE scale = sample mean)."""
    from scipy import stats

    array = _positive_values(values, "values")
    scale = float(array.mean())
    log_likelihood = float(np.sum(stats.expon.logpdf(array, scale=scale)))
    ks = float(stats.kstest(array, "expon", args=(0.0, scale)).statistic)
    return DistributionFit(
        name="exponential",
        parameters={"scale": scale},
        log_likelihood=log_likelihood,
        ks_distance=ks,
    )


def fit_lognormal(values) -> DistributionFit:
    """Maximum-likelihood lognormal fit (MLE on the log of the data)."""
    from scipy import stats

    array = _positive_values(values, "values")
    logs = np.log(array)
    mu = float(logs.mean())
    sigma = float(logs.std(ddof=0))
    sigma = max(sigma, 1e-9)
    log_likelihood = float(
        np.sum(stats.lognorm.logpdf(array, s=sigma, scale=np.exp(mu)))
    )
    ks = float(stats.kstest(array, "lognorm", args=(sigma, 0.0, np.exp(mu))).statistic)
    return DistributionFit(
        name="lognormal",
        parameters={"mu": mu, "sigma": sigma},
        log_likelihood=log_likelihood,
        ks_distance=ks,
    )


def compare_tail_fits(values) -> dict[str, DistributionFit]:
    """Fit both candidate distributions and return them keyed by name.

    The paper's conclusion corresponds to the lognormal fit having the higher
    log-likelihood (and smaller KS distance) on the preference values.
    """
    return {
        "exponential": fit_exponential(values),
        "lognormal": fit_lognormal(values),
    }
