"""Estimating IC-model parameters from observed traffic matrices.

Section 5.1 of the paper estimates ``f``, ``{P_i}`` and ``{A_i(t)}`` by
solving the nonlinear program

.. math::

    \\min \\sum_t RelL2_T(t)
    \\quad\\text{s.t.}\\quad A_i(t) \\ge 0,\\; P_i \\ge 0,\\; \\sum_i P_i = 1

using the Matlab Optimization Toolbox.  We replace that with an alternating
least-squares (ALS) scheme built on the model's multilinear structure,
optionally polished with a ``scipy.optimize`` step:

* for fixed ``(f, P)`` the model is linear in each bin's activity ``A(t)``,
* for fixed ``(f, A)`` it is linear in the preference vector ``P``,
* for fixed ``(A, P)`` the optimal ``f`` has a closed form.

Each subproblem is solved in closed form (normal equations) with weights
``w_t = 1 / ||X(t)||`` so the objective matches the paper's per-bin relative
error, then projected onto the constraint set.  The same machinery supports
the stable-fP model (shared ``f`` and ``P``), the stable-f model (shared ``f``
only) and the fully time-varying model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import optimize

from repro._validation import normalized, require_probability
from repro.core.ic_model import simplified_ic_series
from repro.core.metrics import rel_l2_temporal_error
from repro.core.traffic_matrix import TrafficMatrixSeries
from repro.errors import FittingError, ValidationError

__all__ = ["FitResult", "fit_stable_fp", "fit_stable_f", "fit_time_varying"]

_EPS = 1e-12


@dataclass
class FitResult:
    """Result of fitting an IC-model variant to a traffic-matrix series.

    Attributes
    ----------
    model:
        Which variant was fitted: ``"stable-fP"``, ``"stable-f"`` or
        ``"time-varying"``.
    forward_fraction:
        The fitted ``f``.  A scalar for stable-fP / stable-f; an array of
        shape ``(T,)`` for the time-varying model.
    preference:
        The fitted preference.  Shape ``(n,)`` for stable-fP, ``(T, n)``
        otherwise.
    activity:
        The fitted activity series, shape ``(T, n)``.
    errors:
        Per-bin relative L2 temporal error of the fitted model, shape ``(T,)``.
    objective_history:
        Value of the objective (sum of per-bin errors) after each outer
        iteration; useful for convergence diagnostics.
    converged:
        Whether the iteration stopped because the objective change fell below
        the tolerance (as opposed to hitting the iteration cap).
    nodes:
        Node names carried over from the input series.
    """

    model: str
    forward_fraction: float | np.ndarray
    preference: np.ndarray
    activity: np.ndarray
    errors: np.ndarray
    objective_history: list[float] = field(default_factory=list)
    converged: bool = False
    nodes: tuple[str, ...] = ()

    @property
    def mean_error(self) -> float:
        """Mean per-bin relative L2 error of the fit."""
        return float(np.mean(self.errors))

    @property
    def objective(self) -> float:
        """Final value of the fitting objective (sum of per-bin errors)."""
        return float(np.sum(self.errors))

    def predicted_series(self, *, bin_seconds: float = 300.0) -> TrafficMatrixSeries:
        """The traffic-matrix series implied by the fitted parameters."""
        matrices = self.predicted_values()
        return TrafficMatrixSeries(matrices, self.nodes or None, bin_seconds=bin_seconds)

    def predicted_values(self) -> np.ndarray:
        """The fitted model's ``(T, n, n)`` traffic array (vectorised over bins)."""
        if self.model == "stable-fP":
            return simplified_ic_series(float(self.forward_fraction), self.activity, self.preference)
        t = self.activity.shape[0]
        if np.isscalar(self.forward_fraction) or np.ndim(self.forward_fraction) == 0:
            forward = np.full(t, float(self.forward_fraction))
        else:
            forward = np.asarray(self.forward_fraction, dtype=float)
        preference = self.preference
        if preference.ndim == 1:
            preference = np.broadcast_to(preference, self.activity.shape)
        return time_varying_ic_series(forward, self.activity, preference)


# ---------------------------------------------------------------------------
# helpers shared by the ALS updates
# ---------------------------------------------------------------------------

def _series_values(series) -> tuple[np.ndarray, tuple[str, ...], float]:
    if isinstance(series, TrafficMatrixSeries):
        return np.asarray(series.values, dtype=float), series.nodes, series.bin_seconds
    series = TrafficMatrixSeries(series)
    return np.asarray(series.values, dtype=float), series.nodes, series.bin_seconds


def _bin_weights(values: np.ndarray) -> np.ndarray:
    """Weights 1/||X(t)|| so least squares approximates the relative-error objective."""
    norms = np.sqrt((values**2).sum(axis=(1, 2)))
    return 1.0 / np.maximum(norms, _EPS)


def _activity_design_pinv(f: float, preference: np.ndarray) -> np.ndarray:
    """Pseudo-inverse of the per-bin activity design matrix for fixed ``(f, P)``.

    The design depends only on ``(f, P)``, so callers that sweep many bins —
    the batch solver below and the chunk-wise streaming fit — compute it once
    and apply it to every bin.
    """
    n = preference.shape[0]
    g = 1.0 - f
    # design[(i, j), k] = f * P_j * delta_ik + (1-f) * P_i * delta_jk
    design = np.zeros((n * n, n))
    rows_i, rows_j = np.divmod(np.arange(n * n), n)
    design[np.arange(n * n), rows_i] += f * preference[rows_j]
    design[np.arange(n * n), rows_j] += g * preference[rows_i]
    return np.linalg.pinv(design)


def _solve_activity(values: np.ndarray, f: float, preference: np.ndarray) -> np.ndarray:
    """Least-squares activity per bin for fixed ``(f, P)``; clipped non-negative.

    For a single bin the model is ``X = f A P^T + (1-f) P A^T`` which is linear
    in ``A``.  Because the design matrix depends only on ``(f, P)``, its
    pseudo-inverse is computed once and applied to every bin at once.
    """
    n = preference.shape[0]
    pinv = _activity_design_pinv(f, preference)
    flat = values.reshape(values.shape[0], n * n)
    activity = flat @ pinv.T
    return np.clip(activity, 0.0, None)


def _solve_preference(
    values: np.ndarray, f: float, activity: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """Weighted least-squares preference for fixed ``(f, A(t))``; projected to the simplex.

    The normal equations are assembled analytically (no T*n^2-row design
    matrix is materialised):

    ``M = sum_t w_t^2 [ (f^2+g^2) ||A(t)||^2 I + 2 f g A(t) A(t)^T ]``
    ``b_k = sum_t w_t^2 [ f A(t) . X(t)[:, k] + g A(t) . X(t)[k, :] ]``
    """
    g = 1.0 - f
    w2 = weights**2
    norms = (activity**2).sum(axis=1)
    n = activity.shape[1]
    identity_scale = float(np.sum(w2 * norms)) * (f * f + g * g)
    outer = np.einsum("t,ti,tj->ij", w2, activity, activity)
    m = identity_scale * np.eye(n) + 2.0 * f * g * outer
    b = f * np.einsum("t,ti,tik->k", w2, activity, values) + g * np.einsum(
        "t,tj,tkj->k", w2, activity, values
    )
    try:
        preference = np.linalg.solve(m + _EPS * np.eye(n), b)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
        raise FittingError("preference normal equations are singular") from exc
    preference = np.clip(preference, 0.0, None)
    if preference.sum() <= 0.0:
        preference = np.full(n, 1.0 / n)
    return normalized(preference, "preference")


def _solve_preference_single(values_t: np.ndarray, f: float, activity_t: np.ndarray) -> np.ndarray:
    """Preference for a single bin (used by the stable-f and time-varying fits)."""
    return _solve_preference(
        values_t[np.newaxis], f, activity_t[np.newaxis], np.ones(1)
    )


def _solve_forward_fraction(
    values: np.ndarray,
    activity: np.ndarray,
    preference: np.ndarray,
    weights: np.ndarray,
    bounds: tuple[float, float] = (0.0, 1.0),
) -> float:
    """Closed-form optimal ``f`` for fixed ``(A(t), P)``, clipped to ``bounds``.

    Writing ``X = f U + V`` with ``U = A P^T - P A^T`` and ``V = P A^T`` (outer
    products per bin), the weighted least-squares optimum is
    ``f = sum w^2 <U, X - V> / sum w^2 <U, U>``.
    """
    u = np.einsum("ti,j->tij", activity, preference) - np.einsum(
        "tj,i->tij", activity, preference
    )
    v = np.einsum("tj,i->tij", activity, preference)
    w2 = weights**2
    numerator = float(np.einsum("t,tij,tij->", w2, u, values - v))
    denominator = float(np.einsum("t,tij,tij->", w2, u, u))
    if denominator <= _EPS:
        return float(np.clip(0.5, bounds[0], bounds[1]))
    return float(np.clip(numerator / denominator, bounds[0], bounds[1]))


def _initial_parameters(values: np.ndarray, forward_fraction: float) -> tuple[np.ndarray, np.ndarray]:
    """Heuristic initial preference and activity from the series marginals."""
    return _initial_parameters_from_marginals(
        values.sum(axis=2), values.sum(axis=1), forward_fraction
    )


def _initial_parameters_from_marginals(
    ingress: np.ndarray, egress: np.ndarray, forward_fraction: float
) -> tuple[np.ndarray, np.ndarray]:
    """Heuristic initial preference and activity from ``(T, n)`` marginals.

    Both starting points come from the stable-f closed forms (Eqs. 11-12)
    applied to the marginals with the caller's initial ``f``:
    ``A_i ∝ (f X_i* - (1-f) X_*i)`` and ``P_i ∝ (f X_*i - (1-f) X_i*)``
    (up to the common ``1/(2f-1)`` factor).  Starting in the basin consistent
    with the requested ``f`` matters because the model has a mirror optimum
    (roles of activity and preference exchanged, ``f -> 1-f``) that a
    marginal-agnostic initialisation can fall into.  Near ``f = 0.5``, where
    the closed forms are singular, the ingress/egress marginals themselves
    are used instead.  Only the marginals are needed, which is what lets the
    streaming fit initialise from a single accumulation pass.
    """
    denominator = 2.0 * forward_fraction - 1.0
    if abs(denominator) > 0.05:
        activity = (forward_fraction * ingress - (1.0 - forward_fraction) * egress) / denominator
        activity = np.clip(activity, 0.0, None)
        if activity.sum() <= 0.0:
            activity = ingress.copy()
        preference_raw = (
            forward_fraction * egress.mean(axis=0)
            - (1.0 - forward_fraction) * ingress.mean(axis=0)
        ) / denominator
        preference_raw = np.clip(preference_raw, 0.0, None)
    else:
        activity = ingress.copy()
        preference_raw = egress.mean(axis=0)
    if preference_raw.sum() <= 0.0:
        preference_raw = np.full(ingress.shape[1], 1.0)
    preference = preference_raw / preference_raw.sum()
    return preference, activity


# ---------------------------------------------------------------------------
# public fitting entry points
# ---------------------------------------------------------------------------

def fit_stable_fp(
    series,
    *,
    initial_forward_fraction: float = 0.25,
    max_iterations: int = 60,
    tolerance: float = 1e-6,
    refine: bool = False,
    forward_bounds: tuple[float, float] = (0.0, 0.5),
) -> FitResult:
    """Fit the stable-fP IC model (Eq. 5): one ``f``, one ``P``, per-bin ``A(t)``.

    Parameters
    ----------
    series:
        The observed traffic-matrix series (``TrafficMatrixSeries`` or a
        ``(T, n, n)`` array).
    initial_forward_fraction:
        Starting value for ``f``; the paper's empirical range is 0.2-0.3.
    max_iterations:
        Cap on alternating-least-squares iterations.
    tolerance:
        Stop when the objective improves by less than this (absolute).
    refine:
        When true, run a bounded scalar refinement of ``f`` with
        ``scipy.optimize.minimize_scalar`` after ALS converges (the ``A`` and
        ``P`` subproblems are re-solved inside the refinement objective).
        Useful for small problems and for validating the ALS solution.
    forward_bounds:
        Box constraint on ``f``.  The default upper bound of 0.5 resolves the
        model's mirror ambiguity — ``(f, A, P)`` and ``(1-f, cP, A/c)`` produce
        identical traffic when activity is (nearly) static — by committing to
        the empirically supported regime in which forward (request) traffic
        does not exceed reverse (response) traffic.  Pass ``(0.0, 1.0)`` to
        lift the restriction.

    A :class:`repro.streaming.ChunkStream` is also accepted; it is fitted in
    bounded memory by :func:`repro.core.streaming.fit_stable_fp_streaming`
    (which does not support ``refine``).
    """
    from repro.streaming import ChunkStream

    if isinstance(series, ChunkStream):
        if refine:
            raise ValidationError("refine=True is not supported when fitting a chunk stream")
        from repro.core.streaming import fit_stable_fp_streaming

        return fit_stable_fp_streaming(
            series,
            initial_forward_fraction=initial_forward_fraction,
            max_iterations=max_iterations,
            tolerance=tolerance,
            forward_bounds=forward_bounds,
        )
    values, nodes, _ = _series_values(series)
    if values.shape[0] < 1:
        raise ValidationError("series must contain at least one time bin")
    f = require_probability(initial_forward_fraction, "initial_forward_fraction")
    low, high = float(forward_bounds[0]), float(forward_bounds[1])
    if not 0.0 <= low < high <= 1.0:
        raise ValidationError(f"forward_bounds must satisfy 0 <= low < high <= 1, got {forward_bounds}")
    f = float(np.clip(f, low, high))
    weights = _bin_weights(values)
    preference, activity = _initial_parameters(values, f)

    history: list[float] = []
    converged = False
    previous = np.inf
    for _ in range(max_iterations):
        activity = _solve_activity(values, f, preference)
        preference = _solve_preference(values, f, activity, weights)
        f = _solve_forward_fraction(values, activity, preference, weights, (low, high))
        predicted = simplified_ic_series(f, activity, preference)
        objective = float(np.sum(rel_l2_temporal_error(values, predicted)))
        history.append(objective)
        if previous - objective < tolerance:
            converged = True
            break
        previous = objective

    if refine:
        f, preference, activity, history = _refine_forward_fraction(
            values, weights, f, history, (low, high)
        )

    predicted = simplified_ic_series(f, activity, preference)
    errors = rel_l2_temporal_error(values, predicted)
    return FitResult(
        model="stable-fP",
        forward_fraction=float(f),
        preference=preference,
        activity=activity,
        errors=errors,
        objective_history=history,
        converged=converged,
        nodes=nodes,
    )


def _refine_forward_fraction(
    values: np.ndarray,
    weights: np.ndarray,
    f_start: float,
    history: list[float],
    bounds: tuple[float, float] = (0.0, 1.0),
) -> tuple[float, np.ndarray, np.ndarray, list[float]]:
    """Polish ``f`` with a bounded scalar search, re-solving ``A`` and ``P`` inside."""

    def objective(f_candidate: float) -> float:
        f_candidate = float(np.clip(f_candidate, bounds[0], bounds[1]))
        preference, activity = _initial_parameters(values, f_candidate)
        for _ in range(10):
            activity = _solve_activity(values, f_candidate, preference)
            preference = _solve_preference(values, f_candidate, activity, weights)
        predicted = simplified_ic_series(f_candidate, activity, preference)
        return float(np.sum(rel_l2_temporal_error(values, predicted)))

    search_low = max(bounds[0], 0.01)
    search_high = min(bounds[1], 0.99)
    result = optimize.minimize_scalar(objective, bounds=(search_low, search_high), method="bounded")
    f_best = float(result.x) if result.fun <= history[-1] else f_start
    preference, activity = _initial_parameters(values, f_best)
    for _ in range(20):
        activity = _solve_activity(values, f_best, preference)
        preference = _solve_preference(values, f_best, activity, _bin_weights(values))
    predicted = simplified_ic_series(f_best, activity, preference)
    history = history + [float(np.sum(rel_l2_temporal_error(values, predicted)))]
    return f_best, preference, activity, history




def fit_stable_f(
    series,
    *,
    initial_forward_fraction: float = 0.25,
    max_iterations: int = 40,
    tolerance: float = 1e-6,
    forward_bounds: tuple[float, float] = (0.0, 0.5),
) -> FitResult:
    """Fit the stable-f IC model (Eq. 4): one ``f``; per-bin ``A(t)`` and ``P(t)``.

    The preference vector is re-estimated for every bin, so the result's
    ``preference`` attribute has shape ``(T, n)``.
    """
    values, nodes, _ = _series_values(series)
    f = require_probability(initial_forward_fraction, "initial_forward_fraction")
    low, high = float(forward_bounds[0]), float(forward_bounds[1])
    if not 0.0 <= low < high <= 1.0:
        raise ValidationError(f"forward_bounds must satisfy 0 <= low < high <= 1, got {forward_bounds}")
    f = float(np.clip(f, low, high))
    weights = _bin_weights(values)
    t, n = values.shape[0], values.shape[1]
    shared_preference, activity = _initial_parameters(values, f)
    preference = np.tile(shared_preference, (t, 1))

    history: list[float] = []
    converged = False
    previous = np.inf
    for _ in range(max_iterations):
        for step in range(t):
            activity[step] = _solve_activity(
                values[step][np.newaxis], f, preference[step]
            )[0]
            preference[step] = _solve_preference_single(values[step], f, activity[step])
        f = float(np.clip(
            _solve_forward_fraction_per_bin_shared(values, activity, preference, weights), low, high
        ))
        predicted = _predict_per_bin(f, activity, preference)
        objective = float(np.sum(rel_l2_temporal_error(values, predicted)))
        history.append(objective)
        if previous - objective < tolerance:
            converged = True
            break
        previous = objective

    predicted = _predict_per_bin(f, activity, preference)
    errors = rel_l2_temporal_error(values, predicted)
    return FitResult(
        model="stable-f",
        forward_fraction=float(f),
        preference=preference,
        activity=activity,
        errors=errors,
        objective_history=history,
        converged=converged,
        nodes=nodes,
    )


def fit_time_varying(
    series,
    *,
    initial_forward_fraction: float = 0.25,
    max_iterations: int = 30,
    tolerance: float = 1e-6,
    forward_bounds: tuple[float, float] = (0.0, 0.5),
) -> FitResult:
    """Fit the fully time-varying IC model (Eq. 3): per-bin ``f(t)``, ``A(t)``, ``P(t)``."""
    values, nodes, _ = _series_values(series)
    f0 = require_probability(initial_forward_fraction, "initial_forward_fraction")
    low, high = float(forward_bounds[0]), float(forward_bounds[1])
    if not 0.0 <= low < high <= 1.0:
        raise ValidationError(f"forward_bounds must satisfy 0 <= low < high <= 1, got {forward_bounds}")
    f0 = float(np.clip(f0, low, high))
    t, n = values.shape[0], values.shape[1]
    shared_preference, activity = _initial_parameters(values, f0)
    preference = np.tile(shared_preference, (t, 1))
    forward = np.full(t, f0)

    history: list[float] = []
    converged = False
    previous = np.inf
    for _ in range(max_iterations):
        for step in range(t):
            activity[step] = _solve_activity(
                values[step][np.newaxis], float(forward[step]), preference[step]
            )[0]
            preference[step] = _solve_preference_single(
                values[step], float(forward[step]), activity[step]
            )
            forward[step] = _solve_forward_fraction(
                values[step][np.newaxis],
                activity[step][np.newaxis],
                preference[step],
                np.ones(1),
                (low, high),
            )
        predicted = _predict_per_bin(forward, activity, preference)
        objective = float(np.sum(rel_l2_temporal_error(values, predicted)))
        history.append(objective)
        if previous - objective < tolerance:
            converged = True
            break
        previous = objective

    predicted = _predict_per_bin(forward, activity, preference)
    errors = rel_l2_temporal_error(values, predicted)
    return FitResult(
        model="time-varying",
        forward_fraction=forward,
        preference=preference,
        activity=activity,
        errors=errors,
        objective_history=history,
        converged=converged,
        nodes=nodes,
    )


def _solve_forward_fraction_per_bin_shared(
    values: np.ndarray, activity: np.ndarray, preference: np.ndarray, weights: np.ndarray
) -> float:
    """Optimal shared ``f`` when preference varies per bin (stable-f model)."""
    u = np.einsum("ti,tj->tij", activity, preference) - np.einsum(
        "tj,ti->tij", activity, preference
    )
    v = np.einsum("tj,ti->tij", activity, preference)
    w2 = weights**2
    numerator = float(np.einsum("t,tij,tij->", w2, u, values - v))
    denominator = float(np.einsum("t,tij,tij->", w2, u, u))
    if denominator <= _EPS:
        return 0.5
    return float(np.clip(numerator / denominator, 0.0, 1.0))


def _predict_per_bin(forward, activity: np.ndarray, preference: np.ndarray) -> np.ndarray:
    """Model prediction when ``f`` and/or ``P`` vary per bin (vectorised)."""
    t, n = activity.shape
    forward = np.broadcast_to(np.asarray(forward, dtype=float), (t,)) if np.ndim(forward) else np.full(t, float(forward))
    pref = preference if preference.ndim == 2 else np.broadcast_to(preference, (t, n))
    totals = np.maximum(pref.sum(axis=1), _EPS)
    pref = pref / totals[:, np.newaxis]
    forward_part = forward[:, np.newaxis, np.newaxis] * np.einsum("ti,tj->tij", activity, pref)
    reverse_part = (1.0 - forward)[:, np.newaxis, np.newaxis] * np.einsum(
        "ti,tj->tij", pref, activity
    )
    return forward_part + reverse_part
