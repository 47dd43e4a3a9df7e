"""Iterative proportional fitting (step 3 of the estimation blueprint).

After the least-squares refinement, the estimate is made consistent with the
observed ingress (row-sum) and egress (column-sum) totals by alternately
rescaling rows and columns.  This is the classic IPF / RAS / Kruithof
procedure; the paper notes that "step 3 remains the same across many
solutions".

There is one kernel, :func:`iterative_proportional_fitting_series`, which
fits a ``(T, n, n)`` stack bin by bin; the single-matrix
:func:`iterative_proportional_fitting` is a one-bin call of it.
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
    seed = np.asarray(matrix, dtype=float)
    if seed.ndim != 2 or seed.shape[0] != seed.shape[1]:
        raise ShapeError(f"matrix must be square, got shape {seed.shape}")
    rows = np.asarray(row_totals, dtype=float)
    cols = np.asarray(column_totals, dtype=float)
    if rows.shape != (seed.shape[0],) or cols.shape != (seed.shape[0],):
        raise ShapeError("row_totals and column_totals must have length n")
    return iterative_proportional_fitting_series(
        seed[np.newaxis], rows[np.newaxis], cols[np.newaxis],
        max_iterations=max_iterations, tolerance=tolerance,
    )[0]


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

    Every bin is fitted independently: each keeps its own convergence
    state, and bins that have met the tolerance are frozen while the rest
    keep iterating, so a bin's result does not depend on the rest of the
    stack.

    Parameters
    ----------
    matrices:
        Non-negative seed matrices, shape ``(T, n, n)``.
    row_totals, column_totals:
        Target ingress and egress totals, shape ``(T, n)``.
    max_iterations:
        Iteration cap (at least 1).
    tolerance:
        Convergence threshold on each bin's maximum relative marginal
        mismatch.
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
        row_error = _max_relative_mismatch(row_sums, sub_rows)
        col_error = _max_relative_mismatch(sub.sum(axis=1), sub_cols)
        # ``max(row, col) < tolerance`` per bin, with Python's ``max`` NaN
        # semantics: the row error stands unless the column error compares
        # greater, and NaN comparisons are False.
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


def _max_relative_mismatch(actual: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Per-bin maximum relative marginal mismatch over ``(T, n)`` rows."""
    scale = np.maximum(target, 1e-12)
    relative = np.where(target > 0, np.abs(actual - target) / scale, 0.0)
    return relative.max(axis=1)

