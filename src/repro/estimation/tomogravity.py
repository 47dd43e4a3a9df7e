"""Tomogravity-style least-squares refinement (step 2 of the estimation blueprint).

Given a prior traffic vector ``x_prior`` and the observation system
``B x ≈ z`` (routing rows plus, optionally, ingress/egress rows), the
tomogravity method of Zhang et al. [22] chooses the estimate closest to the
prior, in a weighted least-squares sense, among those consistent with the
observations:

.. math::

    \\min_x \\; \\| W^{-1/2} (x - x_{prior}) \\|_2^2
    \\quad \\text{s.t.} \\quad B x = z

with weights ``W = diag(max(x_prior, ε))`` so that large OD flows absorb more
of the correction.  The solution is the classic projection

.. math::

    x = x_{prior} + W B^T (B W B^T)^+ (z - B x_{prior})

followed by clipping to non-negative values (the subsequent IPF step restores
consistency with the marginals).

**The rank-reduced kernel.**  ``B`` (``m x n_od``) is rank deficient: the
augmented geant operator has ``m = 116`` rows but rank ``k = 94``.  Its
factor (:func:`factor_observation_operator`) picks ``k`` independent rows
``B_r`` by pivoted QR of the small ``m x m`` gram ``B Bᵀ``, so that
``B = C B_r`` with ``C`` (``m x k``) of full column rank.  For such a product
the Moore–Penrose identity

.. math::

    (C G C^T)^+ = C^{+T} G^{-1} C^+, \\qquad G = B_r W B_r^T \\;(k \\times k, SPD)

holds exactly, and ``C⁺C = I`` collapses the correction to

.. math::

    x - x_{prior} = W B_r^T G^{-1} (C^+ z - B_r x_{prior}).

No consistency of ``z`` is assumed: ``C⁺`` projects an inconsistent, noisy
``z`` exactly as the ``m x m`` pseudo-inverse does, so each bin costs one
Cholesky solve of the ``k x k`` gram instead of an SVD of the ``m x m`` one.
``G``'s upper triangle is one product of the sparse outer-product operator
(row ``j`` holds ``vec(b_j b_jᵀ)`` for column ``b_j`` of ``B_r``) with the
weight vector, so neither a dense ``n_od x k²`` matrix nor a
``(T, m, n_od)`` weighted stack is ever built, and dense and
``scipy.sparse`` operators share the one kernel.

**Fallback.**  A bin whose reduced gram fails to factor, or whose estimated
reciprocal condition number is below ``1e-10`` (the cut-off the
pseudo-inverse applies), is refined by the ``m x m`` ``pinv(rcond=1e-10)``
formulation instead; only those bins pay for it.

**Chunk invariance.**  Every per-bin contraction is a row-ordered sparse
product or a per-matrix LAPACK call, so a bin's result does not depend on
which other bins share its chunk: a batch is bit-identical to refining its
bins one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg, sparse
from scipy.linalg import lapack

from repro.backend import resolve_backend
from repro.errors import EstimationError, ShapeError, ValidationError

__all__ = ["ObservationFactor", "factor_observation_operator", "tomogravity_estimate"]

_EPS = 1e-9
# Relative singular-value cut of the pseudo-inverse, and the reciprocal
# condition number below which a bin's reduced gram falls back to it.
_RCOND = 1e-10


@dataclass(frozen=True, eq=False)
class ObservationFactor:
    """Bin-invariant factor of an observation operator ``B = C B_r``.

    Attributes
    ----------
    matrix:
        The operator ``B`` itself (dense or CSR), for the per-bin fallback.
    basis, basis_t:
        The row basis ``B_r`` (``k x n_od``, CSR) and its transpose.
    projector:
        ``C⁺`` (``k x m``, stored as CSR for row-ordered products).
    outer:
        The outer-product operator: ``outer @ w`` is the upper triangle of
        ``B_r diag(w) B_rᵀ`` in ``numpy.triu_indices`` order.
    incidence:
        ``incidence @ |upper|`` gives the gram's absolute column sums, the
        1-norm the condition estimate needs.
    """

    matrix: object
    basis: sparse.csr_matrix
    basis_t: sparse.csr_matrix
    projector: sparse.csr_matrix
    outer: sparse.csr_matrix
    incidence: sparse.csr_matrix

    @property
    def rank(self) -> int:
        return self.basis.shape[0]

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape


def factor_observation_operator(observation_matrix) -> ObservationFactor:
    """Factor ``B`` (dense or ``scipy.sparse``) for :func:`tomogravity_estimate`.

    Everything is derived from the ``m x m`` gram ``B Bᵀ``, so a sparse
    operator is never densified: the pivots of its column-pivoted QR name an
    independent row set ``B_r``, and its blocks give
    ``C = B B_rᵀ (B_r B_rᵀ)⁻¹``.
    """
    is_sparse = sparse.issparse(observation_matrix)
    matrix = (
        observation_matrix.tocsr() if is_sparse else np.asarray(observation_matrix, dtype=float)
    )
    if matrix.ndim != 2:
        raise ShapeError("observation_matrix must be two-dimensional")
    if not np.all(np.isfinite(matrix.data if is_sparse else matrix)):
        raise ValidationError("observation_matrix must contain only finite values")
    gram = matrix @ matrix.T
    gram = gram.toarray() if is_sparse else np.asarray(gram)
    rows = _row_basis(gram)
    k = rows.size
    basis = sparse.csr_matrix(matrix[rows])
    if k:
        coefficients = np.linalg.solve(gram[np.ix_(rows, rows)], gram[rows]).T
        projector = np.linalg.pinv(coefficients)
    else:
        projector = np.zeros((0, matrix.shape[0]))
    upper, lower = np.triu_indices(k)
    off_diagonal = upper != lower
    pairs = np.arange(upper.size)
    incidence = sparse.csr_matrix(
        (
            np.ones(upper.size + int(off_diagonal.sum())),
            (np.concatenate([upper, lower[off_diagonal]]),
             np.concatenate([pairs, pairs[off_diagonal]])),
        ),
        shape=(k, upper.size),
    )
    return ObservationFactor(
        matrix=matrix,
        basis=basis,
        basis_t=basis.T.tocsr(),
        projector=sparse.csr_matrix(projector),
        outer=_outer_product_operator(basis),
        incidence=incidence,
    )


def _row_basis(gram: np.ndarray) -> np.ndarray:
    """Sorted indices of an independent row set of ``B``, from ``B Bᵀ``."""
    if gram.size == 0:
        return np.zeros(0, dtype=np.intp)
    r, pivots = linalg.qr(gram, mode="r", pivoting=True)
    diagonal = np.abs(np.diag(r))
    tolerance = diagonal[0] * gram.shape[0] * np.finfo(float).eps
    return np.sort(pivots[: int(np.count_nonzero(diagonal > tolerance))])


def _outer_product_operator(basis: sparse.csr_matrix) -> sparse.csr_matrix:
    """Sparse ``(k(k+1)/2, n_od)`` map from weights to the gram's upper triangle.

    Entry ``(pair(a, b), j)`` is ``B_r[a, j] B_r[b, j]`` for ``a <= b``: every
    pair of non-zeros within one column of ``B_r``.
    """
    k, n_od = basis.shape
    csc = basis.tocsc()
    csc.sort_indices()
    per_column = np.diff(csc.indptr)
    # Each non-zero pairs with itself and every later non-zero of its column.
    partners = np.repeat(csc.indptr[1:], per_column) - np.arange(csc.nnz)
    first = np.repeat(np.arange(csc.nnz), partners)
    offsets = np.arange(first.size) - np.repeat(np.cumsum(partners) - partners, partners)
    second = first + offsets
    a, b = csc.indices[first], csc.indices[second]
    pair = a * (2 * k - a + 1) // 2 + (b - a)
    columns = np.repeat(np.arange(n_od), per_column)[first]
    return sparse.csr_matrix(
        (csc.data[first] * csc.data[second], (pair, columns)), shape=(k * (k + 1) // 2, n_od)
    )


def tomogravity_estimate(
    prior: np.ndarray,
    observation_matrix,
    observations: np.ndarray,
    *,
    weight_floor: float | None = None,
    backend=None,
) -> np.ndarray:
    """Refine ``prior`` toward the observations ``observation_matrix @ x = observations``.

    Computes ``x_prior + W Bᵀ (B W Bᵀ)⁺ (z - B x_prior)`` per bin through the
    exact rank-reduced identity of the module docstring: one ``k x k``
    Cholesky solve per bin, with a per-bin ``pinv(rcond=1e-10)`` fallback
    for a reduced gram that fails to factor or is conditioned worse than
    that cut-off.  Each bin's result is independent of the other bins in
    the batch, so a batch equals the per-bin loop bit for bit.

    Parameters
    ----------
    prior:
        Prior OD-flow vector, shape ``(n_od,)`` or a batch ``(T, n_od)``.
        Must be finite.
    observation_matrix:
        The matrix ``B`` of shape ``(n_obs, n_od)`` (routing matrix, possibly
        augmented with ingress/egress rows): a dense array, a
        ``scipy.sparse`` matrix, or its :class:`ObservationFactor`.  A bare
        matrix is factored on every call; callers refining many batches
        against one operator pass the factor (:class:`TMEstimator` uses the
        one cached on the routing matrix).
    observations:
        Observed values ``z``, shape ``(n_obs,)`` or ``(T, n_obs)`` matching
        the prior batch.  Must be finite.
    weight_floor:
        Minimum weight given to any OD pair; defaults to a small fraction of
        the mean prior so zero-prior flows can still receive corrections.
    backend:
        Array namespace for the refinement (:mod:`repro.backend`).  A
        non-NumPy backend runs the dense stacked gram/pinv algebra on that
        backend's device — inputs may be host arrays or device arrays, the
        result is a device array — and rejects ``scipy.sparse`` operators
        (densify first, or stay on the NumPy backend).

    Returns
    -------
    numpy.ndarray
        The refined, non-negative OD-flow vector(s), same shape as ``prior``
        (a backend device array when a non-NumPy backend is selected).
    """
    factor = observation_matrix if isinstance(observation_matrix, ObservationFactor) else None
    if backend is not None:
        be = resolve_backend(backend)
        if not be.is_numpy:
            matrix = observation_matrix if factor is None else factor.matrix
            if sparse.issparse(matrix):
                raise ValidationError(
                    f"backend {be.name!r} cannot consume scipy.sparse observation "
                    "matrices; pass the dense matrix or use the numpy backend"
                )
            return _tomogravity_estimate_xp(be, prior, matrix, observations, weight_floor)
    prior = np.asarray(prior, dtype=float)
    observations = np.asarray(observations, dtype=float)
    if factor is None:
        factor = factor_observation_operator(observation_matrix)
    single = prior.ndim == 1
    prior_batch = np.atleast_2d(prior)
    obs_batch = np.atleast_2d(observations)
    n_obs, n_od = factor.shape
    if prior_batch.shape[1] != n_od:
        raise ShapeError(
            f"prior length {prior_batch.shape[1]} does not match observation matrix columns {n_od}"
        )
    if obs_batch.shape != (prior_batch.shape[0], n_obs):
        raise ShapeError(
            "observations must have shape (T, n_obs) matching the prior batch and matrix rows"
        )
    for name, values in (("prior", prior_batch), ("observations", obs_batch)):
        if not np.all(np.isfinite(values)):
            raise ValidationError(f"{name} must contain only finite values (no nan/inf)")

    k = factor.rank
    per_bin = 8 * (k * k + factor.outer.shape[0] + 4 * n_od + n_obs)
    estimates = np.empty_like(prior_batch)
    for start, stop in _chunks(prior_batch.shape[0], per_bin):
        estimates[start:stop] = _refine_chunk(
            prior_batch[start:stop], factor, obs_batch[start:stop], weight_floor
        )
    return estimates[0] if single else estimates


# Memory budget (bytes) of one refinement chunk.
_CHUNK_BYTES = 128 * 1024 * 1024


def _chunks(n_bins: int, per_bin_bytes: int):
    """Yield ``(start, stop)`` chunk bounds sized to the memory budget."""
    size = max(int(_CHUNK_BYTES // max(per_bin_bytes, 1)), 1)
    for start in range(0, n_bins, size):
        yield start, min(start + size, n_bins)


def _weight_floors(priors: np.ndarray, weight_floor: float | None) -> np.ndarray:
    """Per-bin weight floors."""
    if weight_floor is not None:
        return np.full(priors.shape[0], float(weight_floor))
    means = priors.mean(axis=1) if priors.shape[1] else np.zeros(priors.shape[0])
    return np.maximum(means * 1e-3, _EPS)


def _refine_chunk(
    priors: np.ndarray, factor: ObservationFactor, observed: np.ndarray, weight_floor: float | None
) -> np.ndarray:
    """Refine a ``(T, n_od)`` chunk through the rank-reduced solve."""
    weights = np.maximum(priors, _weight_floors(priors, weight_floor)[:, np.newaxis])
    k = factor.rank
    if k == 0:  # B = 0: nothing is observed, so nothing is corrected
        return np.clip(priors, 0.0, None)
    upper = (factor.outer @ weights.T).T  # the grams' upper triangles
    norms = (factor.incidence @ np.abs(upper).T).max(axis=0)
    rows, cols = np.triu_indices(k)
    grams = np.zeros((priors.shape[0], k, k))
    # Written into the lower triangle of C-ordered storage, so each
    # ``grams[t].T`` is a Fortran-ordered matrix with the triangle in "U".
    grams[:, cols, rows] = upper
    projected = (factor.projector @ observed.T).T - (factor.basis @ priors.T).T
    solved = np.zeros((priors.shape[0], k))
    fallback = []
    for t in range(priors.shape[0]):
        chol, info = lapack.dpotrf(grams[t].T, lower=0, clean=0, overwrite_a=1)
        if info == 0:
            rcond, info = lapack.dpocon(chol, norms[t])
        if info != 0 or not rcond >= _RCOND:
            fallback.append(t)
            continue
        solution, _ = lapack.dpotrs(chol, projected[t][:, np.newaxis])
        solved[t] = solution[:, 0]
    estimates = np.clip(priors + weights * (factor.basis_t @ solved.T).T, 0.0, None)
    for t in fallback:
        estimates[t] = _pinv_refine(priors[t], factor.matrix, observed[t], weights[t])
    return estimates


def _pinv_refine(
    prior: np.ndarray, matrix, observed: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """One bin through the ``m x m`` ``pinv`` formulation (the fallback)."""
    if sparse.issparse(matrix):
        weighted = matrix.multiply(weights[np.newaxis, :]).tocsr()  # B W
        gram = (weighted @ matrix.T).toarray()
    else:
        weighted = matrix * weights[np.newaxis, :]
        gram = weighted @ matrix.T
    try:
        gram_pinv = np.linalg.pinv(gram, rcond=_RCOND)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - SVD non-convergence
        raise EstimationError("failed to invert the weighted normal matrix") from exc
    correction = weighted.T @ (gram_pinv @ (observed - matrix @ prior))
    return np.clip(prior + correction, 0.0, None)


# ---------------------------------------------------------------------------
# namespace-generic refinement (repro.backend)
# ---------------------------------------------------------------------------

def _tomogravity_estimate_xp(be, prior, matrix, observations, weight_floor):
    """Dense tomogravity refinement on a non-NumPy backend.

    The stacked gram/pinv algebra expressed through the array-API standard
    plus Backend shims, with the per-bin correction as one batched
    ``matmul`` chain.  Chunking keeps the ``(T_chunk, n_obs, n_od)``
    weighted stack inside the memory budget.
    """
    xp = be.xp
    prior = be.asarray(prior)
    matrix = be.asarray(matrix)
    observations = be.asarray(observations)
    single = len(prior.shape) == 1
    prior_batch = prior[None, :] if single else prior
    obs_batch = observations[None, :] if len(observations.shape) == 1 else observations
    if len(matrix.shape) != 2:
        raise ShapeError("observation_matrix must be two-dimensional")
    if int(prior_batch.shape[1]) != int(matrix.shape[1]):
        raise ShapeError(
            f"prior length {int(prior_batch.shape[1])} does not match observation "
            f"matrix columns {int(matrix.shape[1])}"
        )
    if tuple(obs_batch.shape) != (int(prior_batch.shape[0]), int(matrix.shape[0])):
        raise ShapeError(
            "observations must have shape (T, n_obs) matching the prior batch and matrix rows"
        )
    matrix_t = be.matrix_transpose(matrix)
    chunks = [
        _refine_chunk_xp(
            be, prior_batch[start:stop], matrix, matrix_t, obs_batch[start:stop], weight_floor
        )
        for start, stop in _chunks(
            int(prior_batch.shape[0]), int(matrix.shape[0]) * int(matrix.shape[1]) * 8
        )
    ]
    estimates = chunks[0] if len(chunks) == 1 else xp.concat(chunks, axis=0)
    return estimates[0, :] if single else estimates


def _refine_chunk_xp(be, priors, matrix, matrix_t, observed, weight_floor):
    xp = be.xp
    if weight_floor is not None:
        floors = xp.full((int(priors.shape[0]),), float(weight_floor), dtype=priors.dtype)
    else:
        floors = xp.clip(xp.mean(priors, axis=1) * 1e-3, _EPS, None)
    weights = xp.maximum(priors, floors[:, None])
    weighted = matrix[None, :, :] * weights[:, None, :]  # B W per bin
    gram = xp.matmul(weighted, matrix_t)  # B W B^T, stacked
    gram_pinv = be.pinv(gram, rtol=1e-10)
    residual = observed - xp.matmul(priors, matrix_t)
    correction = xp.matmul(
        be.matrix_transpose(weighted), xp.matmul(gram_pinv, residual[:, :, None])
    )[:, :, 0]
    return xp.clip(priors + correction, 0.0, None)
