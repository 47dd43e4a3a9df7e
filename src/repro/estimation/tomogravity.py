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
``(T, m, n_od)`` weighted stack is ever built.  ``B`` is held as CSR: a
dense argument is converted once, when it is factored.

**Fallback.**  A bin whose reduced gram fails to factor, or whose
reciprocal condition number is below ``1e-10`` (the cut-off the
pseudo-inverse applies), is refined by the ``m x m`` ``pinv(rcond=1e-10)``
formulation instead; only those bins pay for it.  Most bins never need
LAPACK's ``dpocon`` estimate to settle that check, because a bound that
costs one sparse product per block proves they pass it.  With
``w = diag(W)``, ``λ₀ = λ_min(B_r B_rᵀ)`` and
``R = |B_r| diag(column sums of |B_r|)``:

* ``λ_min(G) ≥ min(w) λ₀``, since ``xᵀ G x = Σ_j w_j (b_jᵀ x)² ≥
  min(w) ‖B_rᵀ x‖²``;
* ``‖G⁻¹‖₁ ≤ √k ‖G⁻¹‖₂ = √k / λ_min(G)``;
* ``‖G‖₁ = max_a Σ_b |Σ_j B_aj w_j B_bj| ≤ max(R w)``.

So ``rcond₁(G) ≥ min(w) λ₀ / (√k max(R w))``.  The factor stores ``R``
(``row_mass``) and a safe floor under ``λ₀`` (``gram_floor``: the
smallest eigenvalue of the reduced gram minus ``k·eps·λ_max``, clipped at
0).  Hager's estimator inside ``dpocon`` finds a lower bound on
``‖G⁻¹‖₁``, so it never reports an rcond smaller than the true one; a bin
whose bound is at least ``10 x 1e-10`` therefore passes ``dpocon`` and
skips it.  The tenfold margin covers the rounding of the gram, its
factor and the bound; it is far above ``eps`` because the bound only
skips grams conditioned better than ``1e9``.  Every other bin takes the
exact path: the gram's 1-norm from ``incidence``, then ``dpocon``, then
the cut-off.  Every bin still checks ``dpotrf``'s ``info``.  Skipping an
estimate that would pass changes no decision, so no output bit moves.

**Block invariance.**  A batch is refined in blocks of
``max(1, 2 MiB // (8 k²))`` bins, capped at the batch: one reused
``(block, k, k)`` gram buffer that stays in cache (about 29 bins for
geant's ``k = 94``, one bin at ``k = 1000``), and no ``(T, k, k)`` stack.
Every per-bin contraction is a row-ordered sparse product or a per-matrix
LAPACK call, so a bin's result does not depend on which other bins share
its block: a batch is bit-identical to refining its bins one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg, sparse
from scipy.linalg import lapack

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
        The operator ``B`` itself (CSR), for the per-bin fallback.
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
    gram_floor:
        A safe lower bound on ``λ_min(B_r B_rᵀ)`` (0 when none is proven).
    row_mass:
        ``|B_r| diag(column sums of |B_r|)`` (CSR): ``max(row_mass @ w)``
        bounds the 1-norm of ``B_r diag(w) B_rᵀ`` from above.
    """

    matrix: sparse.csr_matrix
    basis: sparse.csr_matrix
    basis_t: sparse.csr_matrix
    projector: sparse.csr_matrix
    outer: sparse.csr_matrix
    incidence: sparse.csr_matrix
    gram_floor: float
    row_mass: sparse.csr_matrix

    @property
    def rank(self) -> int:
        return self.basis.shape[0]

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape


def factor_observation_operator(observation_matrix) -> ObservationFactor:
    """Factor ``B`` (``scipy.sparse``, or dense) for :func:`tomogravity_estimate`.

    A dense ``B`` is converted to CSR here, once.  Everything is derived
    from the ``m x m`` gram ``B Bᵀ``, so the operator is never densified:
    the pivots of its column-pivoted QR name an independent row set
    ``B_r``, and its blocks give ``C = B B_rᵀ (B_r B_rᵀ)⁻¹``.
    """
    if not sparse.issparse(observation_matrix) and np.ndim(observation_matrix) != 2:
        raise ShapeError("observation_matrix must be two-dimensional")
    matrix = sparse.csr_matrix(observation_matrix, dtype=float)
    if not np.all(np.isfinite(matrix.data)):
        raise ValidationError("observation_matrix must contain only finite values")
    gram = (matrix @ matrix.T).toarray()
    rows = _row_basis(gram)
    k = rows.size
    basis = matrix[rows]
    gram_floor = 0.0
    if k:
        reduced = gram[np.ix_(rows, rows)]
        coefficients = np.linalg.solve(reduced, gram[rows]).T
        projector = np.linalg.pinv(coefficients)
        eigenvalues = np.linalg.eigvalsh(reduced)
        gram_floor = max(float(eigenvalues[0] - k * np.finfo(float).eps * eigenvalues[-1]), 0.0)
    else:
        projector = np.zeros((0, matrix.shape[0]))
    magnitude = abs(basis)
    column_mass = np.asarray(magnitude.sum(axis=0)).ravel()
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
        gram_floor=gram_floor,
        row_mass=sparse.csr_matrix(magnitude.multiply(column_mass[np.newaxis, :])),
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
        augmented with ingress/egress rows): a ``scipy.sparse`` matrix, a
        dense array, or its :class:`ObservationFactor`.  A bare
        matrix is factored on every call; callers refining many batches
        against one operator pass the factor (:class:`TMEstimator` uses the
        one cached on the routing matrix).
    observations:
        Observed values ``z``, shape ``(n_obs,)`` or ``(T, n_obs)`` matching
        the prior batch.  Must be finite.
    weight_floor:
        Minimum weight given to any OD pair, a finite value ``> 0``; defaults
        to a small fraction of the mean prior so zero-prior flows can still
        receive corrections.

    Returns
    -------
    numpy.ndarray
        The refined, non-negative OD-flow vector(s), same shape as ``prior``.
    """
    if weight_floor is not None:
        weight_floor = float(weight_floor)
        if not (np.isfinite(weight_floor) and weight_floor > 0):
            raise ValidationError(f"weight_floor must be finite and > 0, got {weight_floor}")
    factor = observation_matrix if isinstance(observation_matrix, ObservationFactor) else None
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

    estimates = _refine(prior_batch, factor, obs_batch, weight_floor)
    return estimates[0] if single else estimates


# Byte budget of one block's reduced grams: small enough to stay in cache.
_BLOCK_BYTES = 2 * 1024 * 1024
# A bin whose proven rcond bound reaches this skips the ``dpocon`` estimate.
_PROVEN_RCOND = 10 * _RCOND


def _weight_floors(priors: np.ndarray, weight_floor: float | None) -> np.ndarray:
    """Per-bin weight floors."""
    if weight_floor is not None:
        return np.full(priors.shape[0], float(weight_floor))
    means = priors.mean(axis=1) if priors.shape[1] else np.zeros(priors.shape[0])
    return np.maximum(means * 1e-3, _EPS)


def _rcond_bounds(factor: ObservationFactor, weights: np.ndarray) -> np.ndarray:
    """Per-bin lower bounds on ``rcond₁(B_r diag(w) B_rᵀ)`` (module docstring)."""
    norm_bounds = (factor.row_mass @ weights.T).max(axis=0)
    return weights.min(axis=1) * factor.gram_floor / (np.sqrt(factor.rank) * norm_bounds)


def _refine(
    priors: np.ndarray, factor: ObservationFactor, observed: np.ndarray, weight_floor: float | None
) -> np.ndarray:
    """Refine a ``(T, n_od)`` batch through the rank-reduced solve, block by block."""
    k = factor.rank
    if k == 0:  # B = 0: nothing is observed, so nothing is corrected
        return np.clip(priors, 0.0, None)
    n_bins = priors.shape[0]
    size = max(1, min(n_bins, _BLOCK_BYTES // (8 * k * k)))
    grams = np.zeros((size, k, k))
    estimates = np.empty_like(priors)
    for start in range(0, n_bins, size):
        block = slice(start, min(start + size, n_bins))
        estimates[block] = _refine_block(
            priors[block], factor, observed[block], weight_floor, grams
        )
    return estimates


def _refine_block(
    priors: np.ndarray,
    factor: ObservationFactor,
    observed: np.ndarray,
    weight_floor: float | None,
    buffer: np.ndarray,
) -> np.ndarray:
    """Refine one block of bins, its reduced grams factored in ``buffer``."""
    weights = np.maximum(priors, _weight_floors(priors, weight_floor)[:, np.newaxis])
    k = factor.rank
    upper = factor.outer @ weights.T  # the grams' upper triangles, one column per bin
    rows, cols = np.triu_indices(k)
    grams = buffer[: priors.shape[0]]
    # Written into the lower triangle of C-ordered storage, so each
    # ``grams[t].T`` is a Fortran-ordered matrix with the triangle in "U".
    grams[:, cols, rows] = upper.T
    projected = (factor.projector @ observed.T).T - (factor.basis @ priors.T).T
    bounds = _rcond_bounds(factor, weights)
    unproven = np.flatnonzero(bounds < _PROVEN_RCOND)
    norms = np.zeros(priors.shape[0])
    if unproven.size:
        norms[unproven] = (factor.incidence @ np.abs(upper[:, unproven])).max(axis=0)
    solved = np.zeros((priors.shape[0], k))
    fallback = []
    for t in range(priors.shape[0]):
        chol, info = lapack.dpotrf(grams[t].T, lower=0, clean=0, overwrite_a=1)
        rcond = bounds[t]  # a proven lower bound; dpocon runs where it is too low to decide
        if info == 0 and rcond < _PROVEN_RCOND:
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
    prior: np.ndarray, matrix: sparse.csr_matrix, observed: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """One bin through the ``m x m`` ``pinv`` formulation (the fallback)."""
    weighted = matrix.multiply(weights[np.newaxis, :]).tocsr()  # B W
    gram = (weighted @ matrix.T).toarray()
    try:
        gram_pinv = np.linalg.pinv(gram, rcond=_RCOND)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - SVD non-convergence
        raise EstimationError("failed to invert the weighted normal matrix") from exc
    correction = weighted.T @ (gram_pinv @ (observed - matrix @ prior))
    return np.clip(prior + correction, 0.0, None)

