"""Iterative proportional fitting (step 3 of the estimation blueprint).

After the least-squares refinement, the estimate is made consistent with the
observed ingress (row-sum) and egress (column-sum) totals by alternately
rescaling rows and columns.  This is the classic IPF / RAS / Kruithof
procedure; the paper notes that "step 3 remains the same across many
solutions".
"""

from __future__ import annotations

import numpy as np

from repro._validation import require_positive_int
from repro.errors import ShapeError, ValidationError

__all__ = ["iterative_proportional_fitting", "iterative_proportional_fitting_series"]


def iterative_proportional_fitting(
    matrix: np.ndarray,
    row_totals: np.ndarray,
    column_totals: np.ndarray,
    *,
    max_iterations: int = 100,
    tolerance: float = 1e-8,
) -> np.ndarray:
    """Scale ``matrix`` so its row/column sums match the given totals.

    Parameters
    ----------
    matrix:
        Non-negative seed matrix, shape ``(n, n)``.
    row_totals, column_totals:
        Target ingress and egress totals, length ``n``.  They are rescaled
        internally so both sum to the same grand total (the mean of the two),
        because measured marginals rarely agree exactly.
    max_iterations:
        Iteration cap (at least 1).
    tolerance:
        Convergence threshold on the maximum relative marginal mismatch.

    Returns
    -------
    numpy.ndarray
        The fitted matrix.  Structural zeros of the seed remain zero; rows or
        columns whose seed mass is zero but whose target is positive receive a
        uniform allocation over the non-fixed cells before fitting, so the
        procedure cannot silently drop traffic.
    """
    max_iterations = require_positive_int(max_iterations, "max_iterations")
    seed = np.asarray(matrix, dtype=float)
    if seed.ndim != 2 or seed.shape[0] != seed.shape[1]:
        raise ShapeError(f"matrix must be square, got shape {seed.shape}")
    if np.any(seed < 0):
        raise ValidationError("IPF seed matrix must be non-negative")
    n = seed.shape[0]
    rows = np.asarray(row_totals, dtype=float)
    cols = np.asarray(column_totals, dtype=float)
    if rows.shape != (n,) or cols.shape != (n,):
        raise ShapeError("row_totals and column_totals must have length n")
    if np.any(rows < 0) or np.any(cols < 0):
        raise ValidationError("marginal totals must be non-negative")

    grand_row, grand_col = rows.sum(), cols.sum()
    if grand_row <= 0 or grand_col <= 0:
        return np.zeros_like(seed)
    # Reconcile the two marginals to a common grand total.
    grand = 0.5 * (grand_row + grand_col)
    rows = rows * (grand / grand_row)
    cols = cols * (grand / grand_col)

    current = seed.copy()
    # Give empty-but-needed rows/columns a uniform seed so they can be scaled.
    empty_rows = (current.sum(axis=1) <= 0) & (rows > 0)
    current[empty_rows, :] = 1.0
    empty_cols = (current.sum(axis=0) <= 0) & (cols > 0)
    current[:, empty_cols] = np.maximum(current[:, empty_cols], 1.0)

    for _ in range(max_iterations):
        row_sums = current.sum(axis=1)
        row_scale = np.where(row_sums > 0, rows / np.where(row_sums > 0, row_sums, 1.0), 0.0)
        current = current * row_scale[:, None]
        col_sums = current.sum(axis=0)
        col_scale = np.where(col_sums > 0, cols / np.where(col_sums > 0, col_sums, 1.0), 0.0)
        current = current * col_scale[None, :]
        row_error = _max_relative_mismatch(current.sum(axis=1), rows)
        col_error = _max_relative_mismatch(current.sum(axis=0), cols)
        if max(row_error, col_error) < tolerance:
            break
    return current


def _max_relative_mismatch(actual: np.ndarray, target: np.ndarray) -> float:
    scale = np.maximum(target, 1e-12)
    mask = target > 0
    if not np.any(mask):
        return 0.0
    return float(np.max(np.abs(actual[mask] - target[mask]) / scale[mask]))


def iterative_proportional_fitting_series(
    matrices: np.ndarray,
    row_totals: np.ndarray,
    column_totals: np.ndarray,
    *,
    max_iterations: int = 100,
    tolerance: float = 1e-8,
    iteration_counts: np.ndarray | None = None,
) -> np.ndarray:
    """Batched IPF over a ``(T, n, n)`` stack of seed matrices.

    Vectorised equivalent of running :func:`iterative_proportional_fitting`
    independently on every bin (bit-identical to that loop): each bin keeps
    its own convergence state, and bins that have met the tolerance are
    frozen while the rest keep iterating, exactly as the per-bin ``break``
    would leave them.

    Parameters
    ----------
    matrices:
        Non-negative seed matrices, shape ``(T, n, n)``.
    row_totals, column_totals:
        Target ingress and egress totals, shape ``(T, n)``.
    max_iterations, tolerance:
        As in :func:`iterative_proportional_fitting`.
    iteration_counts:
        Optional out-array of shape ``(T,)`` (integer dtype); on return,
        entry ``t`` is the number of scaling sweeps bin ``t`` ran before
        convergence froze it (``max_iterations`` if it never converged,
        0 for zero-total bins).  The fitted values are bit-identical with
        or without it.
    """
    max_iterations = require_positive_int(max_iterations, "max_iterations")
    seeds = np.asarray(matrices, dtype=float)
    if seeds.ndim != 3 or seeds.shape[1] != seeds.shape[2]:
        raise ShapeError(f"matrices must have shape (T, n, n), got {seeds.shape}")
    if np.any(seeds < 0):
        raise ValidationError("IPF seed matrices must be non-negative")
    t, n, _ = seeds.shape
    rows = np.asarray(row_totals, dtype=float)
    cols = np.asarray(column_totals, dtype=float)
    if rows.shape != (t, n) or cols.shape != (t, n):
        raise ShapeError(f"row/column totals must have shape (T, n) = ({t}, {n})")
    if np.any(rows < 0) or np.any(cols < 0):
        raise ValidationError("marginal totals must be non-negative")

    grand_rows = rows.sum(axis=1)
    grand_cols = cols.sum(axis=1)
    zero_bins = (grand_rows <= 0) | (grand_cols <= 0)
    # Reconcile the two marginals to a common per-bin grand total.
    grands = 0.5 * (grand_rows + grand_cols)
    safe_rows = np.where(grand_rows > 0, grand_rows, 1.0)
    safe_cols = np.where(grand_cols > 0, grand_cols, 1.0)
    rows = rows * (grands / safe_rows)[:, np.newaxis]
    cols = cols * (grands / safe_cols)[:, np.newaxis]

    if iteration_counts is not None:
        if iteration_counts.shape != (t,):
            raise ShapeError(f"iteration_counts must have shape (T,) = ({t},)")
        iteration_counts[:] = 0

    # The active stack is scaled in place; a bin is written back to
    # ``current`` when it converges, or at the iteration cap.
    active = np.flatnonzero(~zero_bins)
    sub = seeds[active]
    sub_rows = rows[active]
    sub_cols = cols[active]
    # Give empty-but-needed rows/columns a uniform seed so they can be scaled.
    empty_rows = (sub.sum(axis=2) <= 0) & (sub_rows > 0)
    sub[empty_rows] = 1.0
    empty_cols = (sub.sum(axis=1) <= 0) & (sub_cols > 0)
    np.maximum(sub, 1.0, out=sub, where=empty_cols[:, np.newaxis, :])
    current = np.zeros(seeds.shape)
    row_sums = sub.sum(axis=2)
    for iteration in range(1, max_iterations + 1):
        if active.size == 0:
            break
        row_scale = np.where(
            row_sums > 0, sub_rows / np.where(row_sums > 0, row_sums, 1.0), 0.0
        )
        np.multiply(sub, row_scale[:, :, np.newaxis], out=sub)
        col_sums = sub.sum(axis=1)
        col_scale = np.where(
            col_sums > 0, sub_cols / np.where(col_sums > 0, col_sums, 1.0), 0.0
        )
        np.multiply(sub, col_scale[:, np.newaxis, :], out=sub)
        if iteration_counts is not None:
            iteration_counts[active] = iteration
        # The next sweep's row scaling reuses these row sums.
        row_sums = sub.sum(axis=2)
        row_error = _max_relative_mismatch_rows(row_sums, sub_rows)
        col_error = _max_relative_mismatch_rows(sub.sum(axis=1), sub_cols)
        # Mirror the scalar loop's ``max(row, col) < tolerance`` check exactly,
        # including its NaN semantics (Python's max returns its first argument
        # unless the second compares greater, and NaN comparisons are False).
        combined = np.where(col_error > row_error, col_error, row_error)
        converged = combined < tolerance
        if converged.any():
            current[active[converged]] = sub[converged]
            keep = ~converged
            active, sub, sub_rows, sub_cols, row_sums = (
                active[keep], sub[keep], sub_rows[keep], sub_cols[keep], row_sums[keep]
            )
    current[active] = sub
    return current


def _max_relative_mismatch_rows(actual: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Per-bin version of :func:`_max_relative_mismatch` over ``(T, n)`` rows."""
    scale = np.maximum(target, 1e-12)
    relative = np.where(target > 0, np.abs(actual - target) / scale, 0.0)
    return relative.max(axis=1)

