"""The gravity-model baseline.

The gravity model assumes a packet's ingress and egress points are
independent, which leads to the prediction

.. math::  X_{ij} \\approx X_{i*} \\, X_{*j} / X_{**}

where ``X_{i*}`` is node ``i``'s total ingress traffic, ``X_{*j}`` node ``j``'s
total egress traffic and ``X_{**}`` the network total.  The paper uses the
gravity model both as the accuracy baseline (Section 5.1) and as the baseline
prior for traffic-matrix estimation (Section 6); this module implements both
roles, including building the gravity estimate from measured marginals alone
(the setting in which it is used in practice).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro._validation import as_1d_array, require_nonnegative
from repro.core.traffic_matrix import TrafficMatrix, TrafficMatrixSeries
from repro.errors import ShapeError, ValidationError
from repro.registry import register_model

__all__ = ["gravity_matrix", "gravity_series_values", "gravity_series", "GravityModel"]


def gravity_series_values(ingress, egress) -> np.ndarray:
    """Vectorised gravity kernel over ``(T, n)`` ingress/egress marginals.

    Batched equivalent of stacking :func:`gravity_matrix` per bin; zero-traffic
    bins yield all-zero matrices.  Returns a ``(T, n, n)`` array that is
    bit-identical to the per-bin loop.
    """
    ingress = np.atleast_2d(np.asarray(ingress, dtype=float))
    egress = np.atleast_2d(np.asarray(egress, dtype=float))
    if ingress.ndim != 2 or ingress.shape != egress.shape:
        raise ShapeError(
            f"ingress and egress series must both have shape (T, n), "
            f"got {ingress.shape} vs {egress.shape}"
        )
    for name, array in (("ingress", ingress), ("egress", egress)):
        if not np.all(np.isfinite(array)):
            raise ValidationError(f"{name} must contain only finite values")
    ingress = require_nonnegative(ingress, "ingress")
    egress = require_nonnegative(egress, "egress")
    totals = ingress.sum(axis=1)
    safe_totals = np.where(totals > 0, totals, 1.0)
    estimates = np.einsum("ti,tj->tij", ingress, egress) / safe_totals[:, None, None]
    estimates[totals <= 0] = 0.0
    return estimates


def gravity_matrix(ingress, egress) -> np.ndarray:
    """Gravity estimate ``X_ij = ingress_i * egress_j / total`` for one bin.

    The two marginals need not sum to exactly the same total (measurement
    noise); the denominator used is the ingress total, matching the common
    formulation ``X_i* X_*j / X_**``.  A zero-traffic bin yields an all-zero
    matrix.
    """
    ingress = require_nonnegative(as_1d_array(ingress, "ingress"), "ingress")
    egress = require_nonnegative(
        as_1d_array(egress, "egress", length=ingress.shape[0]), "egress"
    )
    total = float(ingress.sum())
    if total <= 0.0:
        return np.zeros((ingress.shape[0], ingress.shape[0]))
    return np.outer(ingress, egress) / total


def gravity_series(series) -> TrafficMatrixSeries:
    """Gravity estimate of every bin of ``series`` from its own marginals.

    This reproduces how the gravity model is evaluated in Section 5.1: the
    model is given the true per-bin ingress and egress counts (its ``2n``
    inputs per bin) and asked to reconstruct the full matrix.
    """
    if not isinstance(series, TrafficMatrixSeries):
        series = TrafficMatrixSeries(series)
    estimates = gravity_series_values(series.ingress, series.egress)
    return TrafficMatrixSeries(estimates, series.nodes, bin_seconds=series.bin_seconds)


@register_model("gravity", description="Gravity model: independent ingress/egress (the accuracy baseline)")
class GravityModel:
    """Object-style wrapper mirroring the IC model classes.

    ``GravityModel`` carries node names only; the gravity estimate is fully
    determined by the marginals handed to :meth:`matrix` / :meth:`series`.
    """

    name = "gravity"

    def __init__(self, nodes: Sequence[str] | None = None):
        self._nodes = tuple(nodes) if nodes is not None else None

    def matrix(self, ingress, egress) -> np.ndarray:
        """Gravity traffic matrix from one bin's ingress/egress counts."""
        return gravity_matrix(ingress, egress)

    def series(self, ingress_series, egress_series, *, bin_seconds: float = 300.0) -> TrafficMatrixSeries:
        """Gravity series from ``(T, n)`` ingress and egress count series (vectorised)."""
        ingress = np.atleast_2d(np.asarray(ingress_series, dtype=float))
        egress = np.atleast_2d(np.asarray(egress_series, dtype=float))
        if ingress.shape != egress.shape:
            raise ShapeError(
                f"ingress and egress series must match, got {ingress.shape} vs {egress.shape}"
            )
        matrices = gravity_series_values(ingress, egress)
        return TrafficMatrixSeries(matrices, self._nodes, bin_seconds=bin_seconds)

    def fit_series(self, series: TrafficMatrixSeries) -> TrafficMatrixSeries:
        """Gravity reconstruction of ``series`` from its own marginals."""
        return gravity_series(series)

    def degrees_of_freedom(self, n_nodes: int, timesteps: int) -> int:
        """Inputs needed for ``timesteps`` bins: ``2*n*t - 1`` (Section 5.1)."""
        return 2 * n_nodes * timesteps - 1

    @staticmethod
    def matrix_from_traffic(matrix: TrafficMatrix) -> np.ndarray:
        """Gravity reconstruction of a single matrix from its own marginals."""
        return gravity_matrix(matrix.ingress, matrix.egress)
