"""Simulated link-count measurements: the ``Y = R x`` system.

In an operational network the link counts ``Y`` come from SNMP byte counters
and the routing matrix ``R`` from the IGP configuration.  Here both are
derived from our topology substrate, and the "measurements" are produced by
pushing a ground-truth traffic matrix through the routing matrix — optionally
with multiplicative measurement noise, since SNMP counters are imperfect.

The ingress and egress node counts (``X_{i*}`` and ``X_{*j}``) are carried
alongside the link counts because every prior in Section 6 consumes them and
because the IPF step enforces them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ShapeError, ValidationError
from repro.streaming import as_chunk_stream
from repro.topology.routing import RoutingMatrix, build_routing_matrix
from repro.topology.topology import Topology

__all__ = ["LinkLoadSystem", "simulate_link_loads", "simulate_link_loads_streaming"]


@dataclass(frozen=True)
class LinkLoadSystem:
    """Observed quantities available to a traffic-matrix estimator.

    Attributes
    ----------
    routing:
        The routing matrix ``R`` (known to the operator from IGP configuration).
    link_loads:
        Link byte counts, shape ``(T, n_links)``.
    ingress, egress:
        Node ingress/egress byte counts, shape ``(T, n)``.
    """

    routing: RoutingMatrix
    link_loads: np.ndarray
    ingress: np.ndarray
    egress: np.ndarray

    def __post_init__(self):
        t = self.link_loads.shape[0]
        if self.link_loads.ndim != 2 or self.link_loads.shape[1] != self.routing.n_links:
            raise ShapeError("link_loads must have shape (T, n_links)")
        n = self.routing.n_nodes
        for name, array in (("ingress", self.ingress), ("egress", self.egress)):
            if array.shape != (t, n):
                raise ShapeError(f"{name} must have shape (T, n) = ({t}, {n}), got {array.shape}")

    @property
    def n_timesteps(self) -> int:
        return self.link_loads.shape[0]

    @property
    def n_nodes(self) -> int:
        return self.routing.n_nodes

    def augmented_system(self, *, as_sparse: bool = False):
        """The stacked observation matrix and observations.

        Returns ``(B, Z)`` where ``B`` stacks the routing matrix on top of the
        ingress/egress summing operators (shape ``(n_links + 2n, n^2)``) and
        ``Z`` stacks the corresponding observations (shape ``(T, n_links + 2n)``).
        Using the augmented system in the least-squares step is what lets the
        prior be corrected toward *all* available measurements.

        With ``as_sparse=True`` the stacked operator is assembled as a
        ``scipy.sparse`` CSR matrix straight from the routing matrix's sparse
        form and the one-per-column marginal operators — the routing matrix
        is never densified, which is what makes the augmented least squares
        viable at large ``n`` (the dense operator grows as ``n^3`` while its
        occupancy stays ``O(n^2 path_length)``).

        The stacked operator is cached on the routing matrix
        (:meth:`repro.topology.routing.RoutingMatrix.augmented_operator`), so
        every system over the same (memoised) routing shares one copy; only
        the observation stack ``Z`` is assembled per call.
        """
        b = self.routing.augmented_operator(as_sparse=as_sparse)
        z = np.concatenate([self.link_loads, self.ingress, self.egress], axis=1)
        return b, z


def simulate_link_loads(
    topology: Topology,
    series,
    *,
    noise_std: float = 0.0,
    seed: int = 0,
) -> LinkLoadSystem:
    """Produce the measurements an operator would see for a ground-truth series.

    One pass over the ``(T_chunk, n, n)`` blocks of ``series`` assembles the
    link, ingress and egress counter series — all ``O(T (n_links + n))``,
    never more than one chunk of the ``O(T n^2)`` traffic — then applies the
    measurement noise.  Each bin's counters depend only on that bin's
    matrix, so the system does not depend on the chunking.

    Parameters
    ----------
    topology:
        The network carrying the traffic; its node order must match the series.
    series:
        Ground-truth traffic matrices: a
        :class:`~repro.core.traffic_matrix.TrafficMatrixSeries`, a
        ``(T, n, n)`` array or a :class:`~repro.streaming.ChunkStream`.
    noise_std:
        Relative standard deviation of multiplicative Gaussian measurement
        noise applied to link, ingress and egress counters (0 disables noise).
    seed:
        Seed for the measurement-noise generator.
    """
    stream = as_chunk_stream(series)
    if topology.nodes != stream.nodes:
        raise ValidationError(
            "topology and series must agree on node names and order; "
            f"got {topology.nodes[:3]}... vs {stream.nodes[:3]}..."
        )
    if noise_std < 0:
        raise ValidationError("noise_std must be non-negative")
    routing = build_routing_matrix(topology)
    t, n = stream.n_bins, stream.n_nodes
    link_loads = np.empty((t, routing.n_links))
    ingress = np.empty((t, n))
    egress = np.empty((t, n))
    dense_routing_t = routing.matrix.T
    for t0, block in stream.chunks():
        stop = t0 + block.shape[0]
        link_loads[t0:stop] = block.reshape(block.shape[0], n * n) @ dense_routing_t
        ingress[t0:stop] = block.sum(axis=2)
        egress[t0:stop] = block.sum(axis=1)
    if noise_std > 0:
        rng = np.random.default_rng(seed)
        link_loads = link_loads * rng.normal(1.0, noise_std, size=link_loads.shape)
        ingress = ingress * rng.normal(1.0, noise_std, size=ingress.shape)
        egress = egress * rng.normal(1.0, noise_std, size=egress.shape)
        link_loads = np.clip(link_loads, 0.0, None)
        ingress = np.clip(ingress, 0.0, None)
        egress = np.clip(egress, 0.0, None)
    return LinkLoadSystem(routing=routing, link_loads=link_loads, ingress=ingress, egress=egress)


def simulate_link_loads_streaming(topology: Topology, source, **kwargs) -> LinkLoadSystem:
    """:func:`simulate_link_loads` under the name chunk-stream callers use."""
    return simulate_link_loads(topology, source, **kwargs)
