"""Link-utilization analysis: what a traffic matrix does to the network.

Traffic matrices exist to answer capacity questions: given a TM (measured,
estimated or synthetic) and a routed topology, how loaded is every link, and
where is the network closest to saturation?  This module computes per-link
loads and utilizations from a traffic-matrix series and a routing matrix, the
natural downstream consumer of everything else in this package (and the
engine of the what-if analyses the paper motivates — varying ``f``, ``{P_i}``
or ``{A_i(t)}`` and seeing where hot spots appear).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.traffic_matrix import TrafficMatrixSeries
from repro.errors import ValidationError
from repro.topology.routing import RoutingMatrix, build_routing_matrix
from repro.topology.topology import Topology

__all__ = ["LinkUtilization", "compute_link_utilization"]


@dataclass(frozen=True)
class LinkUtilization:
    """Per-link load and utilization over a traffic-matrix series.

    Attributes
    ----------
    routing:
        The routing matrix used (defines the link ordering).
    loads_bps:
        Link loads in bits per second, shape ``(T, n_links)``.
    utilization:
        Loads divided by link capacities, same shape.
    bin_seconds:
        Averaging interval used to convert byte volumes to rates.
    """

    routing: RoutingMatrix
    loads_bps: np.ndarray
    utilization: np.ndarray
    bin_seconds: float

    @property
    def peak_utilization(self) -> float:
        """The single highest link utilization over all bins."""
        return float(self.utilization.max()) if self.utilization.size else 0.0

    def max_utilization_per_link(self) -> np.ndarray:
        """Per-link maximum utilization across time, shape ``(n_links,)``."""
        return self.utilization.max(axis=0)

    def busiest_links(self, count: int = 5) -> list[tuple[str, float]]:
        """The ``count`` links with the highest peak utilization.

        Returns ``(link name, peak utilization)`` pairs sorted descending.
        """
        peaks = self.max_utilization_per_link()
        order = np.argsort(peaks)[::-1][: max(count, 0)]
        return [
            (f"{self.routing.links[r].source}->{self.routing.links[r].target}", float(peaks[r]))
            for r in order
        ]

    def overloaded_links(self, threshold: float = 1.0) -> list[str]:
        """Names of links whose utilization ever exceeds ``threshold``."""
        peaks = self.max_utilization_per_link()
        return [
            f"{link.source}->{link.target}"
            for link, peak in zip(self.routing.links, peaks)
            if peak > threshold
        ]


def compute_link_utilization(
    topology: Topology,
    series: TrafficMatrixSeries,
    *,
    routing: RoutingMatrix | None = None,
) -> LinkUtilization:
    """Route a traffic-matrix series over a topology and report link utilization.

    Parameters
    ----------
    topology:
        The network (node order must match the series).
    series:
        Traffic matrices in bytes per bin.
    routing:
        Optional pre-built routing matrix (must belong to ``topology``);
        rebuilt from IGP weights when omitted.
    """
    if topology.nodes != series.nodes:
        raise ValidationError(
            "topology and series must agree on node names and order for utilization analysis"
        )
    if routing is None:
        routing = build_routing_matrix(topology)
    elif routing.nodes != topology.nodes:
        raise ValidationError("the supplied routing matrix belongs to a different topology")
    loads_bytes = series.to_vectors() @ routing.matrix.T
    loads_bps = loads_bytes * 8.0 / series.bin_seconds
    capacities = np.array([link.capacity for link in routing.links])
    utilization = loads_bps / capacities[np.newaxis, :]
    return LinkUtilization(
        routing=routing,
        loads_bps=loads_bps,
        utilization=utilization,
        bin_seconds=series.bin_seconds,
    )
