"""Figure 10 / Section 5.6: routing asymmetry and the simplified IC model.

Under hot-potato routing between peer ASes that interconnect at multiple
points, the reverse traffic of a connection may leave the network at a
different node than where its forward traffic entered, making the effective
``f_ij`` asymmetric (``f_ij > f_ji``).  The simplified model — a single
network-wide ``f`` — is then misspecified, while the general model (per-pair
``f_ij``) is not.  This experiment generates traffic from a general-IC ground
truth with a controllable asymmetry level and compares the fit quality of the
simplified (stable-fP) model against the gravity baseline and against an
oracle general-IC reconstruction, quantifying how much accuracy the
simplification costs as asymmetry grows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._tables import format_rows
from repro.core.fitting import fit_stable_fp
from repro.core.gravity import gravity_series
from repro.core.ic_model import general_ic_series
from repro.core.metrics import mean_relative_error
from repro.core.traffic_matrix import TrafficMatrixSeries
from repro.synthesis.activity import ActivityModel
from repro.synthesis.preference import lognormal_preferences

__all__ = ["RoutingAsymmetryResult", "run_routing_asymmetry"]


@dataclass(frozen=True)
class RoutingAsymmetryResult:
    """Fit errors as a function of the injected routing asymmetry.

    Attributes
    ----------
    asymmetry_levels:
        The injected per-pair asymmetry magnitudes (std of the antisymmetric
        perturbation added to ``f_ij``).
    simplified_errors:
        Mean relative error of the simplified (stable-fP) fit at each level.
    general_oracle_errors:
        Error of the general-IC reconstruction using the true ``f_ij`` matrix
        (the best the general model could do).
    gravity_errors:
        Error of the gravity baseline at each level.
    """

    asymmetry_levels: np.ndarray
    simplified_errors: np.ndarray
    general_oracle_errors: np.ndarray
    gravity_errors: np.ndarray

    def format_table(self) -> str:
        rows = [
            [
                self.asymmetry_levels[i],
                self.simplified_errors[i],
                self.general_oracle_errors[i],
                self.gravity_errors[i],
            ]
            for i in range(self.asymmetry_levels.size)
        ]
        return format_rows(
            ["asymmetry level", "simplified IC error", "general IC (oracle) error", "gravity error"],
            rows,
        )


def run_routing_asymmetry(
    *,
    n_nodes: int = 12,
    n_bins: int = 48,
    base_f: float = 0.25,
    asymmetry_levels: tuple[float, ...] = (0.0, 0.05, 0.1, 0.2),
    seed: int = 3,
) -> RoutingAsymmetryResult:
    """Sweep the routing-asymmetry level and compare model fits.

    Parameters
    ----------
    n_nodes, n_bins:
        Size of the synthetic scenario.
    base_f:
        The network-wide forward fraction before asymmetry is injected.
    asymmetry_levels:
        Standard deviations of the antisymmetric perturbation of ``f_ij``
        (hot-potato routing moves reverse traffic to a different egress, which
        raises ``f_ij`` and lowers ``f_ji`` in equal measure).
    seed:
        Seed for the scenario.
    """
    rng = np.random.default_rng(seed)
    preference = lognormal_preferences(n_nodes, seed=rng)
    activity = ActivityModel(n_nodes, seed=rng).generate(n_bins)
    simplified, oracle, gravity = [], [], []
    for level in asymmetry_levels:
        perturbation = rng.normal(0.0, level, size=(n_nodes, n_nodes)) if level > 0 else np.zeros((n_nodes, n_nodes))
        antisymmetric = (perturbation - perturbation.T) / 2.0
        f_matrix = np.clip(base_f + antisymmetric, 0.02, 0.98)
        matrices = general_ic_series(f_matrix, activity, preference)
        noise = rng.lognormal(0.0, 0.05, size=matrices.shape)
        series = TrafficMatrixSeries(matrices * noise)
        fit = fit_stable_fp(series)
        simplified.append(fit.mean_error)
        oracle.append(mean_relative_error(series, matrices))
        gravity.append(mean_relative_error(series, gravity_series(series)))
    return RoutingAsymmetryResult(
        asymmetry_levels=np.asarray(asymmetry_levels, dtype=float),
        simplified_errors=np.asarray(simplified),
        general_oracle_errors=np.asarray(oracle),
        gravity_errors=np.asarray(gravity),
    )
