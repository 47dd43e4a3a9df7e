"""PoP-level network topology.

A :class:`Topology` is a set of named access points (PoPs) connected by
directed links, each carrying an IGP weight (used for shortest-path routing)
and a capacity (used only for sanity checks and reporting).  Links are stored
directionally because backbone links are instrumented per direction (SNMP
byte counters exist for each direction separately), which is also how the
routing matrix must be built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from scipy import sparse
from scipy.sparse import csgraph

from repro.errors import TopologyError

__all__ = ["Link", "Topology"]


@dataclass(frozen=True)
class Link:
    """A directed link between two PoPs.

    Attributes
    ----------
    source, target:
        PoP names.
    weight:
        IGP metric used for shortest-path routing (must be positive).
    capacity:
        Link capacity in bits per second (informational).
    """

    source: str
    target: str
    weight: float = 1.0
    capacity: float = 10e9

    def __post_init__(self):
        if self.source == self.target:
            raise TopologyError(f"self-loop link at {self.source!r} is not allowed")
        if self.weight <= 0:
            raise TopologyError(f"link {self.source}->{self.target} must have positive weight")
        if self.capacity <= 0:
            raise TopologyError(f"link {self.source}->{self.target} must have positive capacity")

    @property
    def key(self) -> tuple[str, str]:
        """The ``(source, target)`` pair identifying this link."""
        return (self.source, self.target)


class Topology:
    """A named, directed, weighted PoP-level topology.

    Parameters
    ----------
    name:
        Human-readable topology name (e.g. ``"geant"``).
    nodes:
        PoP names; order is preserved and defines node indices everywhere.
    links:
        Directed links.  Use :meth:`add_bidirectional_link` or pass both
        directions explicitly; backbone links are almost always symmetric in
        existence (though not necessarily in weight).
    """

    def __init__(self, name: str, nodes: Sequence[str], links: Iterable[Link] = ()):
        names = [str(node) for node in nodes]
        if len(set(names)) != len(names):
            raise TopologyError("node names must be unique")
        if not names:
            raise TopologyError("a topology needs at least one node")
        self._name = str(name)
        self._nodes: list[str] = names
        self._index = {node: i for i, node in enumerate(names)}
        self._links: dict[tuple[str, str], Link] = {}
        for link in links:
            self.add_link(link)

    # -- construction ------------------------------------------------------

    def add_link(self, link: Link) -> None:
        """Add a directed link; both endpoints must already be nodes."""
        for endpoint in (link.source, link.target):
            if endpoint not in self._index:
                raise TopologyError(f"link endpoint {endpoint!r} is not a node of {self._name!r}")
        if link.key in self._links:
            raise TopologyError(f"duplicate link {link.source}->{link.target}")
        self._links[link.key] = link

    def add_bidirectional_link(
        self, a: str, b: str, *, weight: float = 1.0, capacity: float = 10e9
    ) -> None:
        """Add the two directed links ``a->b`` and ``b->a`` with equal weight."""
        self.add_link(Link(a, b, weight=weight, capacity=capacity))
        self.add_link(Link(b, a, weight=weight, capacity=capacity))

    # -- accessors -----------------------------------------------------------

    @property
    def name(self) -> str:
        return self._name

    @property
    def nodes(self) -> tuple[str, ...]:
        """PoP names in index order."""
        return tuple(self._nodes)

    @property
    def n_nodes(self) -> int:
        return len(self._nodes)

    @property
    def links(self) -> tuple[Link, ...]:
        """All directed links in insertion order."""
        return tuple(self._links.values())

    @property
    def n_links(self) -> int:
        return len(self._links)

    def node_index(self, name: str) -> int:
        """Index of the PoP called ``name``."""
        try:
            return self._index[name]
        except KeyError as exc:
            raise TopologyError(f"unknown node {name!r} in topology {self._name!r}") from exc

    def has_link(self, source: str, target: str) -> bool:
        """Whether the directed link ``source -> target`` exists."""
        return (source, target) in self._links

    def link(self, source: str, target: str) -> Link:
        """The directed link ``source -> target``."""
        try:
            return self._links[(source, target)]
        except KeyError as exc:
            raise TopologyError(f"no link {source}->{target} in topology {self._name!r}") from exc

    def neighbors(self, node: str) -> list[str]:
        """Nodes reachable from ``node`` over a single directed link."""
        self.node_index(node)
        return [target for (source, target) in self._links if source == node]

    def __iter__(self) -> Iterator[Link]:
        return iter(self.links)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Topology({self._name!r}, nodes={self.n_nodes}, links={self.n_links})"

    # -- graph views -----------------------------------------------------------

    def adjacency(self) -> sparse.csr_matrix:
        """The ``(n, n)`` CSR matrix of IGP weights: ``[i, j]`` is link ``i -> j``'s weight."""
        links = self._links.values()
        rows = [self._index[link.source] for link in links]
        cols = [self._index[link.target] for link in links]
        weights = [link.weight for link in links]
        return sparse.csr_matrix((weights, (rows, cols)), shape=(self.n_nodes, self.n_nodes))

    def is_strongly_connected(self) -> bool:
        """Whether every PoP can reach every other PoP over directed links."""
        n_components, _ = csgraph.connected_components(
            self.adjacency(), directed=True, connection="strong"
        )
        return n_components == 1

    def validate_connected(self) -> None:
        """Raise :class:`TopologyError` unless the topology is strongly connected."""
        if not self.is_strongly_connected():
            raise TopologyError(
                f"topology {self._name!r} is not strongly connected; routing would be undefined"
            )
