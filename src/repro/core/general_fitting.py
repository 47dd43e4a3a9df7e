"""Fitting the *general* IC model: a per-pair forward-fraction matrix.

The simplified IC model uses one network-wide ``f``.  Section 5.6 of the
paper notes that routing asymmetry (and, more generally, responder-dependent
application mixes) makes ``f_ij`` vary by pair, and leaves fitting the general
model to future work.  This module provides that step.

The estimation is staged: first the stable-fP fit supplies the preference
vector and activity series (which are well identified by the data's temporal
structure), then each pair's ``(f_ij, f_ji)`` is recovered by a tiny
constrained least-squares problem.  For an unordered pair ``{i, j}`` the model
reads

``X_ij(t) = f_ij * A_i(t) P_j + (1 - f_ji) * A_j(t) P_i``
``X_ji(t) = f_ji * A_j(t) P_i + (1 - f_ij) * A_i(t) P_j``

which is linear in ``(f_ij, f_ji)``; the 2x2 normal equations are solved per
pair and the result clipped to ``[0, 1]``.  Diagonal pairs carry no
information about ``f`` (forward and reverse cancel), so ``f_ii`` is reported
as the network-wide value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.fitting import FitResult, fit_stable_fp
from repro.core.ic_model import general_ic_matrix
from repro.core.metrics import rel_l2_temporal_error
from repro.core.traffic_matrix import TrafficMatrixSeries

__all__ = ["GeneralFitResult", "fit_general_ic", "fit_pairwise_forward_fractions"]

_EPS = 1e-12


@dataclass
class GeneralFitResult:
    """Result of fitting the general IC model.

    Attributes
    ----------
    forward_fraction_matrix:
        The fitted ``(n, n)`` matrix of per-pair forward fractions ``f_ij``.
    preference:
        The preference vector shared with the underlying stable-fP fit.
    activity:
        The ``(T, n)`` activity series shared with the underlying fit.
    errors:
        Per-bin relative L2 error of the general-model reconstruction.
    base_fit:
        The stable-fP fit the general fit was staged on.
    """

    forward_fraction_matrix: np.ndarray
    preference: np.ndarray
    activity: np.ndarray
    errors: np.ndarray
    base_fit: FitResult

    @property
    def mean_error(self) -> float:
        """Mean per-bin relative L2 error of the general-model fit."""
        return float(np.mean(self.errors))

    @property
    def asymmetry(self) -> np.ndarray:
        """The antisymmetric part ``(f_ij - f_ji) / 2`` — the routing-asymmetry signature."""
        f = self.forward_fraction_matrix
        return (f - f.T) / 2.0


def fit_pairwise_forward_fractions(
    values: np.ndarray,
    activity: np.ndarray,
    preference: np.ndarray,
    *,
    default_forward: float = 0.5,
) -> np.ndarray:
    """Recover the per-pair ``f_ij`` matrix for known activity and preference.

    Parameters
    ----------
    values:
        Observed traffic, shape ``(T, n, n)``.
    activity:
        Activity series, shape ``(T, n)``.
    preference:
        Normalised preference vector, shape ``(n,)``.
    default_forward:
        Value used for the diagonal and for pairs whose traffic carries no
        information (all-zero volumes).
    """
    values = np.asarray(values, dtype=float)
    activity = np.asarray(activity, dtype=float)
    preference = np.asarray(preference, dtype=float)
    n = preference.shape[0]
    forward = np.full((n, n), float(default_forward))
    for i in range(n):
        for j in range(i + 1, n):
            a_ij = activity[:, i] * preference[j]  # coefficient of f_ij in X_ij
            a_ji = activity[:, j] * preference[i]  # coefficient of f_ji in X_ji
            x_ij = values[:, i, j]
            x_ji = values[:, j, i]
            # X_ij = f_ij a_ij + (1 - f_ji) a_ji  ->  X_ij - a_ji = f_ij a_ij - f_ji a_ji
            # X_ji = f_ji a_ji + (1 - f_ij) a_ij  ->  X_ji - a_ij = -f_ij a_ij + f_ji a_ji
            design = np.concatenate(
                [
                    np.stack([a_ij, -a_ji], axis=1),
                    np.stack([-a_ij, a_ji], axis=1),
                ]
            )
            target = np.concatenate([x_ij - a_ji, x_ji - a_ij])
            gram = design.T @ design
            if np.linalg.cond(gram + _EPS * np.eye(2)) > 1e12 or not np.any(np.abs(target) > 0):
                continue
            solution = np.linalg.lstsq(design, target, rcond=None)[0]
            forward[i, j] = float(np.clip(solution[0], 0.0, 1.0))
            forward[j, i] = float(np.clip(solution[1], 0.0, 1.0))
    return forward


def fit_general_ic(
    series,
    *,
    base_fit: FitResult | None = None,
    **stable_fp_kwargs,
) -> GeneralFitResult:
    """Fit the general IC model (per-pair ``f_ij``) to a traffic-matrix series.

    Parameters
    ----------
    series:
        The observed traffic-matrix series.
    base_fit:
        Optional pre-computed stable-fP fit to stage on; fitted here when
        omitted (extra keyword arguments are forwarded to
        :func:`repro.core.fitting.fit_stable_fp`).
    """
    if base_fit is None:
        base_fit = fit_stable_fp(series, **stable_fp_kwargs)
    if isinstance(series, TrafficMatrixSeries):
        values = np.asarray(series.values, dtype=float)
    else:
        values = np.asarray(TrafficMatrixSeries(series).values, dtype=float)
    forward_matrix = fit_pairwise_forward_fractions(
        values,
        base_fit.activity,
        base_fit.preference,
        default_forward=float(base_fit.forward_fraction),
    )
    predicted = np.empty_like(values)
    for step in range(values.shape[0]):
        predicted[step] = general_ic_matrix(
            forward_matrix, base_fit.activity[step], base_fit.preference
        )
    errors = rel_l2_temporal_error(values, predicted)
    return GeneralFitResult(
        forward_fraction_matrix=forward_matrix,
        preference=base_fit.preference,
        activity=base_fit.activity,
        errors=errors,
        base_fit=base_fit,
    )
