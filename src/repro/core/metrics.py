"""Error metrics used throughout the paper.

The headline metric is the relative L2 *temporal* error of Equation (6):

.. math::

    RelL2_T(t) = \\frac{\\sqrt{\\sum_{ij} (X_{ij}(t) - \\hat X_{ij}(t))^2}}
                      {\\sqrt{\\sum_{ij} X_{ij}(t)^2}}

which is computed for every time bin ``t`` and compared between the IC model
and the gravity model (as a percentage improvement).
"""

from __future__ import annotations

import numpy as np

from repro._validation import as_series_array
from repro.core.traffic_matrix import TrafficMatrixSeries
from repro.errors import ShapeError

__all__ = [
    "rel_l2_temporal_error",
    "percent_improvement",
    "mean_relative_error",
    "summarize_improvement",
]


def _to_array(series) -> np.ndarray:
    if isinstance(series, TrafficMatrixSeries):
        return np.asarray(series.values, dtype=float)
    return as_series_array(series, "series")


def _check_same_shape(actual: np.ndarray, estimate: np.ndarray) -> None:
    if actual.shape != estimate.shape:
        raise ShapeError(
            f"actual and estimate must have the same shape, got {actual.shape} vs {estimate.shape}"
        )


def rel_l2_temporal_error(actual, estimate) -> np.ndarray:
    """Relative L2 temporal error (paper Eq. 6), one value per time bin.

    Parameters
    ----------
    actual, estimate:
        Traffic-matrix series (``TrafficMatrixSeries`` or ``(T, n, n)`` arrays).

    Returns
    -------
    numpy.ndarray
        Shape ``(T,)``.  Bins whose true traffic is identically zero yield 0.0
        when the estimate is also zero and ``inf`` otherwise.
    """
    actual = _to_array(actual)
    estimate = _to_array(estimate)
    _check_same_shape(actual, estimate)
    diff = np.sqrt(((actual - estimate) ** 2).sum(axis=(1, 2)))
    norm = np.sqrt((actual**2).sum(axis=(1, 2)))
    with np.errstate(divide="ignore", invalid="ignore"):
        error = np.where(norm > 0, diff / np.where(norm > 0, norm, 1.0), np.where(diff > 0, np.inf, 0.0))
    return error


def mean_relative_error(actual, estimate) -> float:
    """Mean over time of the relative L2 temporal error."""
    return float(np.mean(rel_l2_temporal_error(actual, estimate)))


def percent_improvement(baseline_error, model_error) -> np.ndarray:
    """Percentage improvement of ``model_error`` over ``baseline_error``.

    This is the quantity plotted in Figures 3, 11, 12 and 13 of the paper:
    ``100 * (err_baseline - err_model) / err_baseline`` for each time bin.
    Bins where the baseline error is zero yield 0.0.
    """
    baseline = np.asarray(baseline_error, dtype=float)
    model = np.asarray(model_error, dtype=float)
    if baseline.shape != model.shape:
        raise ShapeError(
            f"error series must have the same shape, got {baseline.shape} vs {model.shape}"
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        improvement = np.where(
            baseline > 0, 100.0 * (baseline - model) / np.where(baseline > 0, baseline, 1.0), 0.0
        )
    return improvement


def summarize_improvement(improvement) -> dict[str, float]:
    """Summary statistics (mean / median / quartiles / min / max) of an improvement series."""
    improvement = np.asarray(improvement, dtype=float)
    finite = improvement[np.isfinite(improvement)]
    if finite.size == 0:
        return {"mean": 0.0, "median": 0.0, "p25": 0.0, "p75": 0.0, "min": 0.0, "max": 0.0}
    return {
        "mean": float(np.mean(finite)),
        "median": float(np.median(finite)),
        "p25": float(np.percentile(finite, 25)),
        "p75": float(np.percentile(finite, 75)),
        "min": float(np.min(finite)),
        "max": float(np.max(finite)),
    }
