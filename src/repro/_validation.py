"""Internal validation helpers shared across subpackages.

These helpers normalise user input into canonical ``numpy`` arrays and raise
:class:`repro.errors.ValidationError` / :class:`repro.errors.ShapeError` with
informative messages when the input is unusable.  They are deliberately small
and explicit; every public entry point of the package funnels array arguments
through them.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.errors import ShapeError, ValidationError


def as_1d_array(values: Iterable[float], name: str, *, length: int | None = None) -> np.ndarray:
    """Convert ``values`` to a 1-D float array, optionally checking its length."""
    array = np.asarray(values, dtype=float)
    if array.ndim != 1:
        raise ShapeError(f"{name} must be one-dimensional, got shape {array.shape}")
    if length is not None and array.shape[0] != length:
        raise ShapeError(f"{name} must have length {length}, got {array.shape[0]}")
    if not np.all(np.isfinite(array)):
        raise ValidationError(f"{name} must contain only finite values")
    return array


def as_square_matrix(values: Iterable[Iterable[float]], name: str, *, size: int | None = None) -> np.ndarray:
    """Convert ``values`` to a square 2-D float array."""
    array = np.asarray(values, dtype=float)
    if array.ndim != 2 or array.shape[0] != array.shape[1]:
        raise ShapeError(f"{name} must be a square matrix, got shape {array.shape}")
    if size is not None and array.shape[0] != size:
        raise ShapeError(f"{name} must be {size}x{size}, got {array.shape[0]}x{array.shape[1]}")
    if not np.all(np.isfinite(array)):
        raise ValidationError(f"{name} must contain only finite values")
    return array


def as_series_array(values, name: str, *, nodes: int | None = None) -> np.ndarray:
    """Convert ``values`` to a (T, n, n) float array of traffic matrices."""
    array = np.asarray(values, dtype=float)
    if array.ndim == 2:
        array = array[np.newaxis, :, :]
    if array.ndim != 3 or array.shape[1] != array.shape[2]:
        raise ShapeError(
            f"{name} must have shape (T, n, n) with square matrices, got {array.shape}"
        )
    if nodes is not None and array.shape[1] != nodes:
        raise ShapeError(f"{name} must have n={nodes} nodes, got {array.shape[1]}")
    if not np.all(np.isfinite(array)):
        raise ValidationError(f"{name} must contain only finite values")
    return array


def require_nonnegative(array: np.ndarray, name: str, *, tolerance: float = 0.0) -> np.ndarray:
    """Raise unless every entry of ``array`` is >= -tolerance; clip tiny negatives."""
    minimum = float(np.min(array)) if array.size else 0.0
    if minimum < -tolerance:
        raise ValidationError(f"{name} must be non-negative, found minimum {minimum}")
    return np.clip(array, 0.0, None)


def require_probability(value: float, name: str) -> float:
    """Validate that ``value`` lies in the closed unit interval."""
    value = float(value)
    if not np.isfinite(value) or value < 0.0 or value > 1.0:
        raise ValidationError(f"{name} must lie in [0, 1], got {value}")
    return value


def require_finite_nonnegative(value: float, name: str) -> float:
    """Validate that ``value`` is a finite number ``>= 0`` (rejects nan and inf)."""
    value = float(value)
    if not np.isfinite(value) or value < 0.0:
        raise ValidationError(f"{name} must be finite and >= 0, got {value}")
    return value


def require_positive_int(value: int, name: str) -> int:
    """Validate that ``value`` is a strictly positive integer."""
    if int(value) != value or value <= 0:
        raise ValidationError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


def normalized(values: np.ndarray, name: str) -> np.ndarray:
    """Return ``values`` scaled to sum to one.

    Raises if the sum is not strictly positive, because a preference vector
    with zero mass cannot be normalised meaningfully.
    """
    total = float(np.sum(values))
    if total <= 0.0:
        raise ValidationError(f"{name} must have a positive sum to be normalised, got {total}")
    return values / total


def node_names(names: Sequence[str] | None, count: int) -> tuple[str, ...]:
    """Return validated node names, generating ``node00..`` defaults when absent."""
    if names is None:
        return tuple(f"node{i:02d}" for i in range(count))
    names = tuple(str(name) for name in names)
    if len(names) != count:
        raise ShapeError(f"expected {count} node names, got {len(names)}")
    if len(set(names)) != len(names):
        raise ValidationError("node names must be unique")
    return names
