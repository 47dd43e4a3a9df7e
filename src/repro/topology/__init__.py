"""PoP-level topology and routing substrate.

Traffic-matrix estimation (Section 6) needs the linear system ``Y = R x``
relating link counts to OD flows, which in turn needs a network topology with
IGP link weights and a shortest-path routing matrix.  This subpackage
provides:

* :class:`repro.topology.topology.Topology` — a validated PoP-level topology
  (nodes, weighted directed links, capacities),
* :mod:`repro.topology.routing` — the routing matrix of shortest-path
  routing with equal-cost splitting, built on ``scipy.sparse.csgraph``,
* :mod:`repro.topology.library` — ready-made topologies standing in for the
  networks used in the paper (Geant 22 PoPs, Totem 23 PoPs, Abilene 11 PoPs)
  plus synthetic topology generators.
"""

from repro.topology.topology import Link, Topology
from repro.topology.routing import RoutingMatrix, build_routing_matrix
from repro.topology.library import (
    abilene_topology,
    geant_topology,
    random_topology,
    totem_topology,
)

__all__ = [
    "Link",
    "Topology",
    "RoutingMatrix",
    "build_routing_matrix",
    "geant_topology",
    "totem_topology",
    "abilene_topology",
    "random_topology",
]
