"""The gravity-model baseline.

The gravity model assumes a packet's ingress and egress points are
independent, which leads to the prediction

.. math::  X_{ij} \\approx X_{i*} \\, X_{*j} / X_{**}

where ``X_{i*}`` is node ``i``'s total ingress traffic, ``X_{*j}`` node ``j``'s
total egress traffic and ``X_{**}`` the network total.  The paper uses the
gravity model both as the accuracy baseline (Section 5.1) and as the baseline
prior for traffic-matrix estimation (Section 6).  This module holds the one
batched kernel, :func:`gravity_series_values`, which builds the estimate from
``(T, n)`` measured marginals alone (the setting in which it is used in
practice), and :func:`gravity_series`, the Section 5.1 reconstruction of a
series from its own marginals.
"""

from __future__ import annotations

import numpy as np

from repro._validation import require_nonnegative
from repro.core.traffic_matrix import TrafficMatrixSeries
from repro.errors import ShapeError, ValidationError

__all__ = ["gravity_series_values", "gravity_series"]


def gravity_series_values(ingress, egress) -> np.ndarray:
    """Vectorised gravity kernel over ``(T, n)`` ingress/egress marginals.

    Bin ``t`` gets ``X_ij = ingress_i * egress_j / total``.  The two
    marginals need not sum to exactly the same total (measurement noise);
    the denominator is the ingress total, matching the common formulation
    ``X_i* X_*j / X_**``.  Zero-traffic bins yield all-zero matrices.
    Returns a ``(T, n, n)`` array.
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
