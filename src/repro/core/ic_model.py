"""The independent-connection (IC) model family (paper Section 3).

The IC model describes an OD flow as the superposition of *forward* traffic
(initiator to responder) and *reverse* traffic (responder to initiator) of the
connections whose initiator sits at the origin or the destination:

General IC model (Eq. 1)::

    X_ij = f_ij * A_i * P_j / sum(P)  +  (1 - f_ji) * A_j * P_i / sum(P)

Simplified IC model (Eq. 2): a single network-wide forward fraction ``f``.

Temporal variants (Eqs. 3-5) restrict which parameters may vary with time:

* time-varying  — ``f(t), A_i(t), P_i(t)`` all vary,
* stable-f      — ``f`` fixed, ``A_i(t), P_i(t)`` vary,
* stable-fP     — ``f`` and ``P_i`` fixed, only ``A_i(t)`` varies.

This module provides the batched ``*_ic_series`` kernels that the fits,
priors and synthesis run on, the per-bin :func:`general_ic_matrix` that the
general-model fit evaluates, one model class
(:class:`StableFPICModel`, the synthetic-generation recipe of Section 5.5)
and the degrees-of-freedom accounting used in Section 5.1.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro._validation import (
    as_1d_array,
    as_square_matrix,
    normalized,
    require_nonnegative,
    require_positive_int,
    require_probability,
)
from repro.core.traffic_matrix import TrafficMatrixSeries
from repro.errors import ShapeError, ValidationError

__all__ = [
    "general_ic_matrix",
    "general_ic_series",
    "simplified_ic_series",
    "time_varying_ic_series",
    "StableFPICModel",
    "degrees_of_freedom",
]


def _as_series_2d(values, name: str, *, length: int | None = None) -> np.ndarray:
    """Coerce ``values`` into a validated non-negative ``(T, n)`` float array."""
    array = np.asarray(values, dtype=float)
    if array.ndim == 1:
        array = array[np.newaxis, :]
    if array.ndim != 2:
        raise ShapeError(f"{name} must have shape (T, n), got {array.shape}")
    if length is not None and array.shape[1] != length:
        raise ShapeError(f"{name} must have n={length} columns, got {array.shape[1]}")
    if not np.all(np.isfinite(array)):
        raise ValidationError(f"{name} must contain only finite values")
    minimum = float(array.min()) if array.size else 0.0
    if minimum < 0.0:
        raise ValidationError(f"{name} must be non-negative, found minimum {minimum}")
    return np.clip(array, 0.0, None)


# ---------------------------------------------------------------------------
# numerical workhorses
# ---------------------------------------------------------------------------

def general_ic_matrix(forward_fraction, activity, preference) -> np.ndarray:
    """Evaluate the general IC model (Eq. 1) for one time bin.

    Parameters
    ----------
    forward_fraction:
        ``(n, n)`` matrix of per-pair forward fractions ``f_ij`` in [0, 1].
    activity:
        Length-``n`` vector of activity levels ``A_i`` (bytes initiated at i).
    preference:
        Length-``n`` vector of preference values ``P_i``; normalised
        internally so only relative magnitudes matter.

    Returns
    -------
    numpy.ndarray
        The ``(n, n)`` traffic matrix predicted by the model.
    """
    f = as_square_matrix(forward_fraction, "forward_fraction")
    if np.any(f < 0.0) or np.any(f > 1.0):
        raise ValidationError("forward_fraction entries must lie in [0, 1]")
    n = f.shape[0]
    a = require_nonnegative(as_1d_array(activity, "activity", length=n), "activity")
    p = require_nonnegative(as_1d_array(preference, "preference", length=n), "preference")
    p = normalized(p, "preference")
    forward = f * np.outer(a, p)
    reverse = (1.0 - f.T) * np.outer(p, a)
    return forward + reverse


# Per-chunk working-set budget for the series kernels: bins are processed in
# blocks whose (chunk, n, n) outer-product stack fits the cache, which keeps
# the scale / transpose / accumulate passes in L2 instead of main memory.
_KERNEL_CHUNK_BYTES = 256 * 1024


def _kernel_chunk(n: int) -> int:
    return max(1, _KERNEL_CHUNK_BYTES // max(n * n * 8, 1))


def simplified_ic_series(forward_fraction: float, activity_series, preference) -> np.ndarray:
    """Vectorised simplified IC model over a ``(T, n)`` activity series.

    Bin ``t`` is ``f * outer(A(t), P) + (1 - f) * outer(P, A(t))`` with
    ``P`` normalised to sum to one (Eq. 2 with stable ``f`` and ``P``).
    Returns a ``(T, n, n)`` array; used by the stable-fP model, the fits,
    the priors and synthesis.
    """
    f = require_probability(forward_fraction, "forward_fraction")
    a = _as_series_2d(activity_series, "activity_series")
    p = require_nonnegative(
        as_1d_array(preference, "preference", length=a.shape[1]), "preference"
    )
    p = normalized(p, "preference")
    t, n = a.shape
    out = np.empty((t, n, n))
    chunk = _kernel_chunk(n)
    for start in range(0, t, chunk):
        stop = min(start + chunk, t)
        base = np.einsum("ti,j->tij", a[start:stop], p)  # A_i * P_j per bin
        block = out[start:stop]
        np.multiply(base, f, out=block)                  # f * (A_i P_j)
        base *= 1.0 - f                                  # (1-f) * (A_i P_j)
        block += base.transpose(0, 2, 1)                 # + (1-f) * (P_i A_j)
    return out


def general_ic_series(forward_fraction, activity_series, preference) -> np.ndarray:
    """Vectorised general IC model (Eq. 1) over a ``(T, n)`` activity series.

    Batched equivalent of stacking :func:`general_ic_matrix` per bin: the
    ``(n, n)`` forward-fraction matrix and the ``(n,)`` preference vector are
    fixed while activity varies with time.  Returns a ``(T, n, n)`` array
    that is bit-identical to the per-bin loop.
    """
    f = as_square_matrix(forward_fraction, "forward_fraction")
    if np.any(f < 0.0) or np.any(f > 1.0):
        raise ValidationError("forward_fraction entries must lie in [0, 1]")
    n = f.shape[0]
    a = _as_series_2d(activity_series, "activity_series", length=n)
    p = require_nonnegative(as_1d_array(preference, "preference", length=n), "preference")
    p = normalized(p, "preference")
    reverse_fraction = np.ascontiguousarray(1.0 - f.T)
    t = a.shape[0]
    out = np.empty((t, n, n))
    chunk = _kernel_chunk(n)
    for start in range(0, t, chunk):
        stop = min(start + chunk, t)
        base = np.einsum("ti,j->tij", a[start:stop], p)    # A_i * P_j per bin
        block = out[start:stop]
        np.multiply(base, f, out=block)                    # f_ij * (A_i P_j)
        block += reverse_fraction * base.transpose(0, 2, 1)  # + (1-f_ji) * (P_i A_j)
    return out


def time_varying_ic_series(forward_series, activity_series, preference_series) -> np.ndarray:
    """Vectorised simplified IC model with per-bin ``f(t)``/``A(t)``/``P(t)``.

    Bin ``t`` is ``f(t) * outer(A(t), P(t)) + (1 - f(t)) * outer(P(t), A(t))``
    (Eqs. 3-4): the preference of each bin is normalised to sum to
    one independently.  ``forward_series`` may be a scalar (stable-f, Eq. 4)
    or a length-``T`` array (time-varying, Eq. 3).  Returns a ``(T, n, n)``
    array.
    """
    a = _as_series_2d(activity_series, "activity_series")
    p = _as_series_2d(preference_series, "preference_series", length=a.shape[1])
    if a.shape[0] != p.shape[0]:
        raise ShapeError(
            f"activity and preference series must match, got {a.shape} vs {p.shape}"
        )
    t = a.shape[0]
    f = np.asarray(forward_series, dtype=float)
    if f.ndim == 0:
        f = np.full(t, require_probability(float(f), "forward_fraction"))
    elif f.ndim == 1:
        if f.shape[0] != t:
            raise ShapeError(f"forward_series must have length T={t}, got {f.shape[0]}")
        if not np.all(np.isfinite(f)) or np.any(f < 0.0) or np.any(f > 1.0):
            raise ValidationError("forward_series entries must lie in [0, 1]")
    else:
        raise ShapeError(f"forward_series must be a scalar or (T,) array, got {f.shape}")
    totals = p.sum(axis=1)
    if np.any(totals <= 0.0):
        raise ValidationError(
            "preference_series must have a positive sum in every bin to be normalised"
        )
    p = p / totals[:, np.newaxis]
    n = a.shape[1]
    out = np.empty((t, n, n))
    chunk = _kernel_chunk(n)
    for start in range(0, t, chunk):
        stop = min(start + chunk, t)
        base = np.einsum("ti,tj->tij", a[start:stop], p[start:stop])  # A_i(t) * P_j(t)
        block = out[start:stop]
        f_block = f[start:stop, np.newaxis, np.newaxis]
        np.multiply(base, f_block, out=block)      # f(t) * (A_i P_j)
        base *= 1.0 - f_block                      # (1-f(t)) * (A_i P_j)
        block += base.transpose(0, 2, 1)           # + (1-f(t)) * (P_i A_j)
    return out


# ---------------------------------------------------------------------------
# model class
# ---------------------------------------------------------------------------

class StableFPICModel:
    """Stable-fP IC model (Eq. 5): ``f`` and ``P`` fixed, ``A_i(t)`` varies.

    Bundles the fitted (or chosen) ``f`` and preference vector with node
    names, so a what-if scenario or a synthetic series is one
    :meth:`series` call on an activity series.
    """

    name = "stable-fP"

    def __init__(self, forward_fraction: float, preference, nodes: Sequence[str] | None = None):
        self._forward = require_probability(forward_fraction, "forward_fraction")
        p = require_nonnegative(as_1d_array(preference, "preference"), "preference")
        self._preference = normalized(p, "preference")
        self._nodes = tuple(nodes) if nodes is not None else tuple(
            f"node{i:02d}" for i in range(self._preference.shape[0])
        )

    @property
    def n_nodes(self) -> int:
        return self._preference.shape[0]

    @property
    def forward_fraction(self) -> float:
        return self._forward

    @property
    def preference(self) -> np.ndarray:
        return self._preference.copy()

    def series(self, activity_series, *, bin_seconds: float = 300.0) -> TrafficMatrixSeries:
        """Traffic-matrix series for a ``(T, n)`` activity series (vectorised)."""
        matrices = simplified_ic_series(self._forward, activity_series, self._preference)
        return TrafficMatrixSeries(matrices, self._nodes, bin_seconds=bin_seconds)

    def degrees_of_freedom(self, timesteps: int) -> int:
        """Inputs needed to describe ``timesteps`` bins: ``n*t + n + 1``."""
        return degrees_of_freedom(self.name, self.n_nodes, timesteps)


# ---------------------------------------------------------------------------
# degrees of freedom (Section 5.1)
# ---------------------------------------------------------------------------

_DOF_FORMULAS = {
    "gravity": lambda n, t: 2 * n * t - 1,
    "time-varying": lambda n, t: 3 * n * t,
    "stable-f": lambda n, t: 2 * n * t + 1,
    "stable-fP": lambda n, t: n * t + n + 1,
}


def degrees_of_freedom(model: str, n_nodes: int, timesteps: int) -> int:
    """Degrees of freedom (model inputs) for ``timesteps`` bins of an ``n``-node network.

    The formulas are quoted directly from Section 5.1 of the paper:
    gravity ``2nt - 1``, time-varying IC ``3nt``, stable-f ``2nt + 1`` and
    stable-fP ``nt + n + 1``.
    """
    n = require_positive_int(n_nodes, "n_nodes")
    t = require_positive_int(timesteps, "timesteps")
    key = str(model)
    if key not in _DOF_FORMULAS:
        raise ValidationError(
            f"unknown model {model!r}; expected one of {sorted(_DOF_FORMULAS)}"
        )
    return int(_DOF_FORMULAS[key](n, t))
