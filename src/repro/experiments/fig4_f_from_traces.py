"""Figure 4: measuring ``f`` directly from bidirectional link traces.

The paper measures ``f`` for the (IPLS, CLEV) and (CLEV, IPLS) node pairs
from two-hour Abilene packet traces, per 5-minute bin, and draws three
conclusions: values in the 0.2-0.3 range are reasonable, the two directions
give similar values (spatial stability), and the values are stable over time.
This experiment runs the same measurement procedure
(:func:`repro.traces.matching.measure_forward_fraction`) on synthetic
bidirectional traces whose application mix targets the same aggregate ``f``,
and additionally reports the per-application forward fractions the paper
cites from earlier studies (web ≈ 0.06, p2p ≈ 0.35, interactive ≈ 0.05).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._tables import format_rows
from repro.traces.applications import DEFAULT_APPLICATION_MIX, aggregate_forward_fraction
from repro.traces.matching import FMeasurement, measure_forward_fraction
from repro.traces.trace_generator import BidirectionalTraceGenerator

__all__ = ["FTraceResult", "run_f_from_traces"]


@dataclass(frozen=True)
class FTraceResult:
    """Outcome of the Figure 4 measurement.

    Attributes
    ----------
    measurement:
        The per-bin measurement (both directions).
    true_f_a, true_f_b:
        Ground-truth aggregate ``f`` of connections initiated at each node
        (available because the trace is synthetic).
    per_application_f:
        Expected per-application forward fractions of the generating mix.
    """

    measurement: FMeasurement
    true_f_a: float
    true_f_b: float
    per_application_f: dict[str, float]

    @property
    def mean_measured_f(self) -> tuple[float, float]:
        return self.measurement.mean_f()

    def format_table(self) -> str:
        mean_ab, mean_ba = self.measurement.mean_f()
        std_ab, std_ba = self.measurement.temporal_spread()
        rows = [
            [f"measured f ({self.measurement.node_a}->{self.measurement.node_b})", mean_ab],
            [f"measured f ({self.measurement.node_b}->{self.measurement.node_a})", mean_ba],
            ["temporal std (a->b)", std_ab],
            ["temporal std (b->a)", std_ba],
            ["spatial gap |f_ab - f_ba|", self.measurement.spatial_gap()],
            ["unknown traffic fraction", self.measurement.unknown_fraction],
            ["true f (a-initiated)", self.true_f_a],
            ["true f (b-initiated)", self.true_f_b],
        ]
        rows.extend([f"application f: {name}", value] for name, value in self.per_application_f.items())
        rows.append(["aggregate mix f (expected)", aggregate_forward_fraction()])
        return format_rows(["quantity", "value"], rows)


def run_f_from_traces(
    *,
    duration_seconds: float = 7200.0,
    bin_seconds: float = 300.0,
    connections_per_hour: int = 3000,
    seed: int = 5,
) -> FTraceResult:
    """Generate an Abilene-like trace pair and measure ``f`` per bin.

    The defaults mirror the paper's two-hour window with 5-minute bins.
    """
    generator = BidirectionalTraceGenerator(
        "IPLS", "CLEV", connections_per_hour=connections_per_hour, seed=seed
    )
    pair = generator.generate(duration_seconds)
    measurement = measure_forward_fraction(pair, bin_seconds=bin_seconds)
    per_application = {
        profile.name: profile.expected_forward_fraction for profile in DEFAULT_APPLICATION_MIX
    }
    return FTraceResult(
        measurement=measurement,
        true_f_a=pair.true_forward_fraction(pair.node_a),
        true_f_b=pair.true_forward_fraction(pair.node_b),
        per_application_f=per_application,
    )
