"""Estimating IC-model parameters from observed traffic matrices.

Section 5.1 of the paper estimates ``f``, ``{P_i}`` and ``{A_i(t)}`` by
solving the nonlinear program

.. math::

    \\min \\sum_t RelL2_T(t)
    \\quad\\text{s.t.}\\quad A_i(t) \\ge 0,\\; P_i \\ge 0,\\; \\sum_i P_i = 1

using the Matlab Optimization Toolbox.  We replace that with an alternating
least-squares (ALS) scheme built on the model's multilinear structure:

* for fixed ``(f, P)`` the model is linear in each bin's activity ``A(t)``,
* for fixed ``(f, A)`` it is linear in the preference vector ``P``,
* for fixed ``(A, P)`` the optimal ``f`` has a closed form.

Each subproblem is solved in closed form (normal equations) with weights
``w_t = 1 / ||X(t)||`` so the objective matches the paper's per-bin relative
error, then projected onto the constraint set.  One iteration kernel,
:func:`_als`, serves the stable-fP model (shared ``f`` and ``P``, fitted
from a cube or chunk by chunk from a stream), the stable-f model (shared
``f`` only) and the fully time-varying model.

The kernel reads the data only through four per-bin contractions per
iteration: ``X_t P`` and ``X_t^T P``, then ``r_t = X_t A_t`` and
``s_t = X_t^T A_t``.  With ``g = 1 - f``,

* activity solves ``((f^2+g^2)|P|^2 I + 2fg P P^T) A_t = f X_t P + g X_t^T P``,
* preference and ``f`` solve normal equations assembled from ``r_t``, ``s_t``,
* the score is ``||X_t - X̂_t||^2 = ||X_t||^2 - 2(f A_t.X_t P + g A_t.X_t^T P)
  + (f^2+g^2)|A_t|^2 |P|^2 + 2fg (A_t.P)^2``, from the ``X_t P``, ``X_t^T P``
  that the next activity solve needs anyway.

In stable-fP, where ``P`` is shared, ``r_t`` and ``s_t`` enter only
through the two weighted sums ``sum_t w_t^2 r_t`` and ``sum_t w_t^2 s_t``:
each chunk adds into two length-``n`` vectors, and no per-bin ``r_t`` or
``s_t`` is kept.  Stable-f and time-varying keep them per bin.

No ``(T, n, n)`` array is built per iteration.  A bin where the score's
expansion cancels (a near-exact fit, an all-zero bin) is re-scored exactly
from its own values, so ``errors`` and ``objective_history`` stay exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro._validation import require_probability
from repro.core.ic_model import time_varying_ic_series
from repro.core.metrics import rel_l2_temporal_error
from repro.core.traffic_matrix import TrafficMatrixSeries
from repro.errors import FittingError, ValidationError
from repro.obs import get_tracer

__all__ = ["FitResult", "fit_stable_fp", "fit_stable_f", "fit_time_varying"]

_EPS = 1e-12

# A bin whose expanded squared error is at most this fraction of ||X_t||^2
# is re-scored from its values: the expansion's rounding, ~eps * ||X_t||^2,
# would otherwise exceed 1e-12 of the bin's relative error.
_RESCORE_FRACTION = 1e-6


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


# ---------------------------------------------------------------------------
# helpers shared by the ALS updates
# ---------------------------------------------------------------------------

def _series_values(series) -> tuple[np.ndarray, tuple[str, ...], float]:
    if not isinstance(series, TrafficMatrixSeries):
        series = TrafficMatrixSeries(series)
    values = np.asarray(series.values, dtype=float)
    if values.shape[0] < 1:
        raise ValidationError("series must contain at least one time bin")
    return values, series.nodes, series.bin_seconds


def _forward_start(
    initial_forward_fraction: float, forward_bounds: tuple[float, float]
) -> tuple[float, tuple[float, float]]:
    """The validated starting ``f``, clipped into the validated ``forward_bounds``."""
    f = require_probability(initial_forward_fraction, "initial_forward_fraction")
    low, high = float(forward_bounds[0]), float(forward_bounds[1])
    if not 0.0 <= low < high <= 1.0:
        raise ValidationError(f"forward_bounds must satisfy 0 <= low < high <= 1, got {forward_bounds}")
    return float(np.clip(f, low, high)), (low, high)


def _bin_norms(values: np.ndarray) -> np.ndarray:
    """Per-bin Frobenius norms ``||X(t)||``."""
    return np.sqrt(np.einsum("tij,tij->t", values, values))


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product along the last axis, broadcasting a shared vector over bins."""
    return np.einsum("...i,...i->...", a, b)


def _contract(block: np.ndarray, vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``X_t v_t`` and ``X_t^T v_t`` per bin; ``vectors`` is ``(n,)`` or ``(T, n)``."""
    forward = np.matmul(block, vectors[..., np.newaxis])[..., 0]
    reverse = np.matmul(vectors[..., np.newaxis, :], block)[..., 0, :]
    return forward, reverse


def _activity_update(f, preference: np.ndarray, xp: np.ndarray, xtp: np.ndarray) -> np.ndarray:
    """Least-squares activity per bin for fixed ``(f, P)``; clipped non-negative.

    The per-bin normal equations are ``((f^2+g^2)|P|^2 I + 2fg P P^T) A_t =
    b_t`` with ``b_t = f X_t P + g X_t^T P``.  The matrix has eigenvalue
    ``|P|^2`` along ``P`` and ``(f^2+g^2)|P|^2`` across it, so it is never
    singular and its inverse has the closed form applied here.
    """
    f = np.asarray(f, dtype=float)[..., np.newaxis]
    g = 1.0 - f
    b = f * xp + g * xtp
    p_sq = _rowdot(preference, preference)[..., np.newaxis]
    along = 2.0 * f * g * _rowdot(b, preference)[..., np.newaxis] / p_sq
    return np.clip((b - along * preference) / ((f * f + g * g) * p_sq), 0.0, None)


def _clip_normalize(preference: np.ndarray) -> np.ndarray:
    """Clip each preference vector to ``>= 0`` and normalise it; an empty one becomes uniform."""
    preference = np.clip(preference, 0.0, None)
    empty = preference.sum(axis=-1, keepdims=True) <= 0.0
    preference = np.where(empty, 1.0 / preference.shape[-1], preference)
    return preference / preference.sum(axis=-1, keepdims=True)


def _shared_preference(
    activity: np.ndarray, wr: np.ndarray, ws: np.ndarray, f: float, w2: np.ndarray
) -> np.ndarray:
    """Weighted least-squares preference shared by all bins, for fixed ``(f, A(t))``.

    ``M = sum_t w_t^2 [ (f^2+g^2) |A(t)|^2 I + 2 f g A(t) A(t)^T ]`` and
    ``b = f ws + g wr`` with ``wr = sum_t w_t^2 r_t``, ``ws = sum_t w_t^2 s_t``.
    """
    g = 1.0 - f
    n = activity.shape[1]
    identity_scale = float(w2 @ _rowdot(activity, activity)) * (f * f + g * g)
    m = identity_scale * np.eye(n) + 2.0 * f * g * ((activity * w2[:, np.newaxis]).T @ activity)
    b = f * ws + g * wr
    try:
        preference = np.linalg.solve(m + _EPS * np.eye(n), b)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
        raise FittingError("preference normal equations are singular") from exc
    return _clip_normalize(preference)


def _bin_preference(activity: np.ndarray, r: np.ndarray, s: np.ndarray, f) -> np.ndarray:
    """Least-squares preference of each bin for fixed ``(f, A(t))``.

    Each bin solves ``(c I + 2fg A_t A_t^T) P_t = f s_t + g r_t`` with
    ``c = (f^2+g^2)|A_t|^2 + eps``, inverted in closed form
    (Sherman-Morrison).
    """
    f = np.asarray(f, dtype=float)[..., np.newaxis]
    g = 1.0 - f
    b = f * s + g * r
    a_sq = _rowdot(activity, activity)[..., np.newaxis]
    c = (f * f + g * g) * a_sq + _EPS
    along = 2.0 * f * g * _rowdot(b, activity)[..., np.newaxis] / (c + 2.0 * f * g * a_sq)
    return _clip_normalize((b - along * activity) / c)


def _forward_spread(activity: np.ndarray, preference: np.ndarray) -> np.ndarray:
    """Per-bin ``|A_t|^2 |P|^2 - (A_t.P)^2``, the model part of the least-squares ``f``.

    Writing ``X = f U + V`` with ``U = A P^T - P A^T`` and ``V = P A^T``, the
    optimum is ``<U, X - V> / <U, U>``, where ``<U_t, X_t> = P.s_t - P.r_t``,
    ``-<U_t, V_t>`` is this spread and ``<U_t, U_t>`` is twice it.
    """
    return _rowdot(activity, activity) * _rowdot(preference, preference) - _rowdot(
        activity, preference
    ) ** 2


def _bin_errors(
    block: np.ndarray,
    norms: np.ndarray,
    f,
    activity: np.ndarray,
    preference: np.ndarray,
    xp: np.ndarray,
    xtp: np.ndarray,
) -> np.ndarray:
    """Per-bin relative L2 error of the model, from the ``X_t P`` contractions.

    Bins where the expansion cancels are re-scored exactly from their values.
    """
    g = 1.0 - f
    sq = (
        norms**2
        - 2.0 * (f * _rowdot(activity, xp) + g * _rowdot(activity, xtp))
        + (f * f + g * g) * _rowdot(activity, activity) * _rowdot(preference, preference)
        + 2.0 * f * g * _rowdot(activity, preference) ** 2
    )
    rescore = sq <= _RESCORE_FRACTION * norms**2
    with np.errstate(divide="ignore", invalid="ignore"):
        errors = np.sqrt(np.maximum(sq, 0.0)) / norms
    if rescore.any():
        t = activity.shape[0]
        predicted = time_varying_ic_series(
            np.broadcast_to(f, (t,))[rescore],
            activity[rescore],
            np.broadcast_to(preference, activity.shape)[rescore],
        )
        errors[rescore] = rel_l2_temporal_error(block[rescore], predicted)
    return errors


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
# the iteration kernel
# ---------------------------------------------------------------------------

def _als(
    model: str,
    chunks,
    norms: np.ndarray,
    f,
    preference: np.ndarray,
    activity: np.ndarray,
    bounds: tuple[float, float],
    max_iterations: int,
    tolerance: float,
    nodes: tuple[str, ...],
) -> FitResult:
    """Alternating least squares over the bins that ``chunks()`` yields.

    ``chunks`` is called once per pass and yields ``(t0, block)`` pairs
    covering the series in order: one pair for a cube, many for a stream.
    ``model`` selects which parameters are shared across bins: ``f`` and
    ``P`` (``"stable-fP"``), ``f`` only (``"stable-f"``) or neither
    (``"time-varying"``, where ``f`` is a ``(T,)`` array).

    Pass ``k`` scores iteration ``k - 1`` from the ``X_t P`` contractions
    and solves iteration ``k``'s activity from the same ones, so ``K``
    iterations read the data ``K + 1`` times; the solve of the pass that
    finds convergence is discarded.
    """
    shared_preference = model == "stable-fP"
    shared_forward = model != "time-varying"
    weights = 1.0 / np.maximum(norms, _EPS)
    w2 = weights**2
    n_bins, n = activity.shape
    errors = np.zeros(n_bins)
    history: list[float] = []
    converged = False
    previous = np.inf
    tracer = get_tracer()
    for iteration in range(max_iterations + 1):
        solve = iteration < max_iterations
        score = iteration > 0 or not solve
        with tracer.span("fit_als_pass", iteration=iteration):
            solved = np.empty((n_bins, n))
            if shared_preference:  # sum_t w_t^2 r_t and sum_t w_t^2 s_t
                r, s = np.zeros(n), np.zeros(n)
            else:
                r, s = np.empty((n_bins, n)), np.empty((n_bins, n))
            for t0, block in chunks():
                stop = t0 + block.shape[0]
                p = preference if shared_preference else preference[t0:stop]
                f_rows = f if shared_forward else f[t0:stop]
                xp, xtp = _contract(block, p)
                if score:
                    errors[t0:stop] = _bin_errors(
                        block, norms[t0:stop], f_rows, activity[t0:stop], p, xp, xtp
                    )
                if solve:
                    solved[t0:stop] = _activity_update(f_rows, p, xp, xtp)
                    if shared_preference:
                        # einsum, not one BLAS product over T*n rows: a threaded
                        # BLAS splits that sum by thread, so it would depend on
                        # the BLAS thread count.
                        u = w2[t0:stop, np.newaxis] * solved[t0:stop]
                        r += np.einsum("tij,tj->i", block, u)
                        s += np.einsum("tij,ti->j", block, u)
                    else:
                        r[t0:stop], s[t0:stop] = _contract(block, solved[t0:stop])
        if iteration > 0:
            objective = float(np.sum(errors))
            history.append(objective)
            if previous - objective < tolerance:
                converged = True
                break
            previous = objective
        if not solve:
            break
        activity = solved
        if shared_preference:
            preference = _shared_preference(activity, r, s, f, w2)
        else:
            preference = _bin_preference(activity, r, s, f)
        spread = _forward_spread(activity, preference)
        if shared_preference:  # r and s are already weighted sums over the bins
            spread = w2 @ spread
            numerator = preference @ (s - r) + spread
        else:
            numerator = _rowdot(s - r, preference) + spread
            if shared_forward:
                numerator, spread = w2 @ numerator, w2 @ spread
        denominator = 2.0 * spread
        flat = denominator <= _EPS
        with np.errstate(divide="ignore", invalid="ignore"):
            f = np.clip(np.where(flat, 0.5, numerator / denominator), bounds[0], bounds[1])
        if shared_forward:
            f = float(f)
    return FitResult(
        model=model,
        forward_fraction=f,
        preference=preference,
        activity=activity,
        errors=errors,
        objective_history=history,
        converged=converged,
        nodes=nodes,
    )


# ---------------------------------------------------------------------------
# public fitting entry points
# ---------------------------------------------------------------------------

def fit_stable_fp(
    source,
    *,
    initial_forward_fraction: float = 0.25,
    initial_preference=None,
    max_iterations: int = 60,
    tolerance: float = 1e-6,
    forward_bounds: tuple[float, float] = (0.0, 0.5),
    cache_bytes: int | None = None,
) -> FitResult:
    """Fit the stable-fP IC model (Eq. 5): one ``f``, one ``P``, per-bin ``A(t)``.

    One pass reads the per-bin norms and marginals that initialise the fit,
    then :func:`_als` makes one pass per iteration plus a final score, so a
    fit of ``K`` iterations reads the data at most ``K + 2`` times.  A cube
    is fitted as one chunk; a :class:`repro.streaming.ChunkStream` is
    fitted chunk by chunk in ``O(chunk * n^2 + T * n)`` memory, so it must
    be re-iterable (synthesis streams regenerate chunks from cached RNG
    state; array streams yield views).  Every update is per bin or sums
    over per-bin terms, so fits of one series agree across chunkings to
    rounding.

    Parameters
    ----------
    source:
        The observed traffic-matrix series: a ``TrafficMatrixSeries``, a
        ``(T, n, n)`` array or a chunk stream.
    initial_forward_fraction:
        Starting value for ``f``; the paper's empirical range is 0.2-0.3.
    initial_preference:
        Optional warm start for ``P`` (e.g. a previous window's fit) instead
        of the marginal-derived initialisation; the rolling re-fit of
        :mod:`repro.ingest` passes the previous optimum here.
    max_iterations:
        Cap on alternating-least-squares iterations.
    tolerance:
        Stop when the objective improves by less than this (absolute).  A
        pass whose objective rises also stops, with ``converged=True``, and
        the result is that last, worse iterate.
    forward_bounds:
        Box constraint on ``f``.  The default upper bound of 0.5 resolves the
        model's mirror ambiguity — ``(f, A, P)`` and ``(1-f, cP, A/c)`` produce
        identical traffic when activity is (nearly) static — by committing to
        the empirically supported regime in which forward (request) traffic
        does not exceed reverse (response) traffic.  Pass ``(0.0, 1.0)`` to
        lift the restriction.
    cache_bytes:
        Budget of a replay cache (:func:`repro.streaming.cache_chunks`) in
        front of a generative stream: with a budget large enough for the
        series its chunks are generated once instead of once per pass —
        same values, a fraction of the synthesis cost.  ``None`` keeps the
        fit strictly chunk-bounded; a cube never needs it.
    """
    from repro.streaming import ChunkStream, cache_chunks

    if isinstance(source, ChunkStream):
        stream = cache_chunks(source, budget_bytes=cache_bytes)
        chunks, nodes = stream.chunks, stream.nodes
    else:
        values, nodes, _ = _series_values(source)
        chunks = lambda: ((0, values),)  # a cube is one chunk
    f, bounds = _forward_start(initial_forward_fraction, forward_bounds)
    # Pass 0: per-bin marginals and norms -> initial (P, A).
    ingress, egress, norms = [], [], []
    for _, block in chunks():
        ingress.append(np.einsum("tij->ti", block))
        egress.append(np.einsum("tij->tj", block))
        norms.append(_bin_norms(block))
    if not norms:
        raise ValidationError("series must contain at least one time bin")
    ingress, egress, norms = np.concatenate(ingress), np.concatenate(egress), np.concatenate(norms)
    preference, activity = _initial_parameters_from_marginals(ingress, egress, f)
    if initial_preference is not None:
        warm = np.asarray(initial_preference, dtype=float)
        if warm.shape != preference.shape:
            raise ValidationError(
                f"initial_preference must have shape {preference.shape}, got {warm.shape}"
            )
        if np.any(warm < 0) or not np.all(np.isfinite(warm)) or warm.sum() <= 0:
            raise ValidationError("initial_preference must be finite, non-negative and sum to > 0")
        preference = warm / warm.sum()
    return _als(
        "stable-fP", chunks, norms, f, preference, activity,
        bounds, max_iterations, tolerance, nodes,
    )


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
    f, bounds = _forward_start(initial_forward_fraction, forward_bounds)
    shared_preference, activity = _initial_parameters(values, f)
    preference = np.tile(shared_preference, (values.shape[0], 1))
    return _als(
        "stable-f", lambda: ((0, values),), _bin_norms(values), f, preference, activity,
        bounds, max_iterations, tolerance, nodes,
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
    f, bounds = _forward_start(initial_forward_fraction, forward_bounds)
    shared_preference, activity = _initial_parameters(values, f)
    t = values.shape[0]
    preference = np.tile(shared_preference, (t, 1))
    return _als(
        "time-varying", lambda: ((0, values),), _bin_norms(values), np.full(t, f), preference,
        activity, bounds, max_iterations, tolerance, nodes,
    )
