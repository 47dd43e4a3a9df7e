"""Entropy-regularised refinement (alternative step 2).

Zhang, Roughan, Lund and Donoho [23] — the information-theoretic approach the
paper discusses in related work — choose, among traffic matrices consistent
with the link constraints, the one minimising the Kullback-Leibler divergence
from the prior:

.. math::

    \\min_x \\sum_s x_s \\log\\frac{x_s}{p_s} - x_s + p_s
    \\quad \\text{s.t.} \\quad B x \\approx z, \\; x \\ge 0.

We solve the penalised form (quadratic penalty on the constraint residual)
with ``scipy.optimize.minimize`` (L-BFGS-B), which is robust, dependency-free
and entirely adequate at PoP scale (a few hundred OD pairs).  This estimator
is not needed to reproduce any figure — the paper's step 2 is tomogravity —
but it is the natural "generalised" alternative and is exercised by the
ablation benchmarks.
"""

from __future__ import annotations

import numpy as np
from scipy import optimize, sparse

from repro.errors import ShapeError

__all__ = ["entropy_estimate"]

_EPS = 1e-9


def entropy_estimate(
    prior: np.ndarray,
    observation_matrix,
    observations: np.ndarray,
    *,
    penalty: float = 1e3,
    max_iterations: int = 200,
) -> np.ndarray:
    """Refine ``prior`` toward the observations with an entropy objective.

    Parameters
    ----------
    prior:
        Prior OD-flow vector, shape ``(n_od,)``, or a batch ``(T, n_od)``;
        must be non-negative.
    observation_matrix, observations:
        The system ``B x ≈ z``: ``B`` dense or ``scipy.sparse`` (densified
        here, once per call); observations are ``(n_obs,)`` or
        ``(T, n_obs)`` matching the prior batch.
    penalty:
        Weight of the quadratic penalty on the normalised constraint residual.
    max_iterations:
        Iteration cap handed to the optimiser.
    """
    prior = np.asarray(prior, dtype=float)
    if sparse.issparse(observation_matrix):
        observation_matrix = observation_matrix.toarray()
    matrix = np.asarray(observation_matrix, dtype=float)
    observed = np.asarray(observations, dtype=float)
    if matrix.ndim != 2:
        raise ShapeError("entropy_estimate expects a 2-D observation matrix")
    if prior.ndim == 2:
        if observed.shape != (prior.shape[0], matrix.shape[0]):
            raise ShapeError(
                "observations must have shape (T, n_obs) matching the prior batch and matrix rows"
            )
        estimates = np.empty_like(prior)
        for t in range(prior.shape[0]):
            estimates[t] = entropy_estimate(
                prior[t], matrix, observed[t], penalty=penalty, max_iterations=max_iterations
            )
        return estimates
    if prior.ndim != 1 or observed.ndim != 1:
        raise ShapeError("entropy_estimate expects 1-D prior/observations and a 2-D matrix")
    if matrix.shape != (observed.shape[0], prior.shape[0]):
        raise ShapeError(
            f"observation matrix shape {matrix.shape} does not match prior ({prior.shape[0]}) "
            f"and observations ({observed.shape[0]})"
        )
    safe_prior = np.maximum(prior, _EPS)
    scale = max(float(np.abs(observed).max()), _EPS)

    def objective(x: np.ndarray) -> tuple[float, np.ndarray]:
        x = np.maximum(x, _EPS)
        kl = float(np.sum(x * np.log(x / safe_prior) - x + safe_prior))
        residual = (matrix @ x - observed) / scale
        value = kl + penalty * float(residual @ residual)
        gradient = np.log(x / safe_prior) + (2.0 * penalty / scale) * (matrix.T @ residual)
        return value, gradient

    result = optimize.minimize(
        objective,
        x0=safe_prior,
        jac=True,
        method="L-BFGS-B",
        bounds=[(0.0, None)] * prior.shape[0],
        options={"maxiter": max_iterations},
    )
    return np.clip(result.x, 0.0, None)
