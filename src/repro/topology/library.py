"""Ready-made topologies standing in for the networks used in the paper.

The paper's datasets come from two networks:

* **Geant** — the pan-European research backbone, 22 PoPs in the D1 dataset
  and 23 PoPs in the Totem D2 dataset (the German PoP ``de`` split into
  ``de1``/``de2``).
* **Abilene** — the US Internet2 backbone (11 PoPs), from which the D3 packet
  traces were collected at the Indianapolis (IPLS) router.

The exact 2004 link-level maps are not required for any result in the paper —
only a realistic, strongly connected PoP-level backbone over which shortest
paths and the routing matrix can be computed.  The adjacencies below follow
the publicly documented backbone structure closely enough for that purpose
(ring-plus-chords in Europe with the dense core around de/fr/ch/it/nl/uk, and
the well-known Abilene chain).  A seeded random topology generator is also
provided for scaling studies.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TopologyError, ValidationError
from repro.registry import TOPOLOGIES, register_topology
from repro.topology.topology import Link, Topology

__all__ = ["geant_topology", "totem_topology", "abilene_topology", "random_topology"]


GEANT_POPS: tuple[str, ...] = (
    "at", "be", "ch", "cz", "de", "es", "fr", "gr", "hr", "hu", "ie",
    "il", "it", "lu", "nl", "pl", "pt", "se", "si", "sk", "uk", "ny",
)

# (a, b, igp weight): an approximate PoP-level GEANT backbone.  Weights are
# loosely distance-based so that shortest paths are realistic and not all
# equal-cost.
_GEANT_EDGES: tuple[tuple[str, str, float], ...] = (
    ("uk", "ie", 10.0),
    ("uk", "nl", 5.0),
    ("uk", "fr", 6.0),
    ("uk", "ny", 30.0),
    ("ny", "de", 35.0),
    ("nl", "de", 4.0),
    ("nl", "be", 3.0),
    ("be", "fr", 4.0),
    ("fr", "ch", 5.0),
    ("fr", "es", 8.0),
    ("es", "pt", 5.0),
    ("pt", "uk", 12.0),
    ("es", "it", 9.0),
    ("ch", "it", 4.0),
    ("ch", "de", 5.0),
    ("de", "at", 5.0),
    ("de", "cz", 4.0),
    ("de", "se", 9.0),
    ("de", "lu", 3.0),
    ("lu", "fr", 3.0),
    ("se", "pl", 8.0),
    ("pl", "cz", 4.0),
    ("cz", "sk", 3.0),
    ("sk", "at", 3.0),
    ("at", "hu", 3.0),
    ("at", "si", 3.0),
    ("at", "it", 6.0),
    ("hu", "hr", 3.0),
    ("si", "hr", 2.0),
    ("hr", "gr", 8.0),
    ("gr", "it", 9.0),
    ("il", "it", 14.0),
    ("il", "gr", 10.0),
    ("hu", "sk", 2.0),
    ("pl", "de", 6.0),
    ("se", "nl", 8.0),
)


@register_topology("geant", description="22-PoP pan-European Geant backbone (D1)", metadata={"n_nodes": 22})
def geant_topology() -> Topology:
    """The 22-PoP Geant topology used by the D1 dataset."""
    topology = Topology("geant", GEANT_POPS)
    for a, b, weight in _GEANT_EDGES:
        topology.add_bidirectional_link(a, b, weight=weight, capacity=10e9)
    topology.validate_connected()
    return topology


@register_topology("totem", description="23-PoP Totem variant of Geant with the German PoP split (D2)", metadata={"n_nodes": 23})
def totem_topology() -> Topology:
    """The 23-PoP Totem variant of Geant: ``de`` is split into ``de1`` and ``de2``."""
    pops = tuple(p for p in GEANT_POPS if p != "de") + ("de1", "de2")
    topology = Topology("totem", pops)
    for a, b, weight in _GEANT_EDGES:
        if "de" in (a, b):
            continue
        topology.add_bidirectional_link(a, b, weight=weight, capacity=10e9)
    # Split the German PoP: de1 keeps the western links, de2 the eastern ones,
    # with a short internal link between the two.
    topology.add_bidirectional_link("de1", "de2", weight=1.0, capacity=40e9)
    for neighbor, weight in (("nl", 4.0), ("ny", 35.0), ("lu", 3.0), ("ch", 5.0)):
        topology.add_bidirectional_link("de1", neighbor, weight=weight, capacity=10e9)
    for neighbor, weight in (("at", 5.0), ("cz", 4.0), ("se", 9.0), ("pl", 6.0)):
        topology.add_bidirectional_link("de2", neighbor, weight=weight, capacity=10e9)
    topology.validate_connected()
    return topology


ABILENE_POPS: tuple[str, ...] = (
    "STTL", "SNVA", "LOSA", "DNVR", "KSCY", "HSTN", "IPLS", "CHIN", "ATLA", "WASH", "NYCM",
)

_ABILENE_EDGES: tuple[tuple[str, str, float], ...] = (
    ("STTL", "SNVA", 10.0),
    ("STTL", "DNVR", 10.0),
    ("SNVA", "LOSA", 6.0),
    ("SNVA", "DNVR", 11.0),
    ("LOSA", "HSTN", 14.0),
    ("DNVR", "KSCY", 6.0),
    ("KSCY", "HSTN", 8.0),
    ("KSCY", "IPLS", 6.0),
    ("HSTN", "ATLA", 10.0),
    ("IPLS", "CHIN", 3.0),
    ("IPLS", "ATLA", 7.0),
    ("CHIN", "NYCM", 9.0),
    ("ATLA", "WASH", 7.0),
    ("WASH", "NYCM", 3.0),
)


@register_topology("abilene", description="11-PoP Abilene / Internet2 backbone (D3 trace site)", metadata={"n_nodes": 11})
def abilene_topology() -> Topology:
    """The 11-PoP Abilene (Internet2) backbone, source of the D3 packet traces."""
    topology = Topology("abilene", ABILENE_POPS)
    for a, b, weight in _ABILENE_EDGES:
        topology.add_bidirectional_link(a, b, weight=weight, capacity=10e9)
    topology.validate_connected()
    return topology


def build_named_topology(name: str) -> Topology:
    """Build the registered topology ``name`` from its name alone.

    ``estimate``, ``sweep`` and ``serve`` take a topology by name, so a
    factory registered as ``parameterized`` (``random`` needs ``n_nodes``)
    is rejected with a :class:`ValidationError` instead of being called
    without its arguments.
    """
    entry = TOPOLOGIES.entry(name)
    if entry.metadata.get("parameterized"):
        raise ValidationError(
            f"topology {name!r} takes parameters and cannot be built by name; "
            "register a concrete instance instead"
        )
    return entry.obj()


@register_topology("random", description="Seeded random ring-plus-chords topology for scaling studies", metadata={"parameterized": True})
def random_topology(n_nodes: int, *, seed: int = 0, mean_degree: float = 3.0) -> Topology:
    """A seeded random strongly connected PoP-level topology.

    The construction places the PoPs on a ring (guaranteeing strong
    connectivity) and adds random chords until the requested mean degree is
    reached, with random IGP weights in [1, 10].  Useful for scaling studies
    and property-based tests.
    """
    if n_nodes < 2:
        raise TopologyError("random_topology needs at least 2 nodes")
    rng = np.random.default_rng(seed)
    nodes = [f"pop{i:02d}" for i in range(n_nodes)]
    topology = Topology(f"random{n_nodes}", nodes)
    for i in range(n_nodes):
        a, b = nodes[i], nodes[(i + 1) % n_nodes]
        if not topology.has_link(a, b):
            topology.add_bidirectional_link(a, b, weight=float(rng.uniform(1, 10)))
    target_links = int(mean_degree * n_nodes / 2)
    attempts = 0
    while topology.n_links // 2 < target_links and attempts < 50 * target_links:
        attempts += 1
        i, j = rng.integers(0, n_nodes, size=2)
        if i == j:
            continue
        a, b = nodes[int(i)], nodes[int(j)]
        if topology.has_link(a, b):
            continue
        topology.add_bidirectional_link(a, b, weight=float(rng.uniform(1, 10)))
    topology.validate_connected()
    return topology
