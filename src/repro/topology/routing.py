"""Shortest-path routing and routing-matrix construction.

The estimation problem of Section 6 is ``Y = R x`` where ``x`` is the
vectorised traffic matrix (row-major OD order, see
:func:`repro.core.traffic_matrix.od_pairs`), ``Y`` the vector of per-link byte
counts and ``R`` the routing matrix: ``R[r, s]`` is the fraction of OD pair
``s`` that traverses link ``r`` (1 for single shortest paths, fractional under
equal-cost multipath splitting).

Routing is computed from IGP link weights with Dijkstra's algorithm
(via networkx).  Intra-PoP traffic (``i == j``) never touches a backbone link,
so its routing-matrix column is zero — exactly why TM estimation is
under-constrained and why the augmented system also carries the ingress and
egress counts.

A routing matrix has only ``O(n^2 * path_length)`` non-zeros out of
``n_links * n^2`` entries, so :class:`RoutingMatrix` stores a
``scipy.sparse`` CSR matrix and materialises the dense array lazily (and
caches it) for the callers that need dense linear algebra.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
from scipy import sparse

from repro.errors import ShapeError, TopologyError
from repro.topology.topology import Topology

__all__ = [
    "RoutingMatrix",
    "shortest_paths",
    "build_routing_matrix",
    "clear_routing_cache",
]


def shortest_paths(topology: Topology, *, all_paths: bool = False) -> dict[tuple[str, str], list[list[str]]]:
    """All shortest paths between every ordered PoP pair.

    Parameters
    ----------
    topology:
        The network.
    all_paths:
        When true, return *every* equal-cost shortest path (for ECMP
        splitting); otherwise a single deterministic shortest path per pair.

    Returns
    -------
    dict
        Maps ``(origin, destination)`` to a list of node paths.  The
        diagonal pairs map to the single-node path ``[origin]``.
    """
    topology.validate_connected()
    graph = topology.to_networkx()
    result: dict[tuple[str, str], list[list[str]]] = {}
    for origin in topology.nodes:
        if all_paths:
            for destination in topology.nodes:
                if origin == destination:
                    result[(origin, destination)] = [[origin]]
                else:
                    paths = list(
                        nx.all_shortest_paths(graph, origin, destination, weight="weight")
                    )
                    result[(origin, destination)] = paths
        else:
            lengths, paths = nx.single_source_dijkstra(graph, origin, weight="weight")
            for destination in topology.nodes:
                if origin == destination:
                    result[(origin, destination)] = [[origin]]
                elif destination in paths:
                    result[(origin, destination)] = [paths[destination]]
                else:  # pragma: no cover - unreachable once connectivity validated
                    raise TopologyError(f"no path from {origin} to {destination}")
    return result


class RoutingMatrix:
    """A routing matrix together with the link and OD-pair orderings it uses.

    Parameters
    ----------
    matrix:
        Either a dense ``(n_links, n_nodes**2)`` array or a ``scipy.sparse``
        matrix of the same shape; entry ``(r, s)`` is the fraction of OD pair
        ``s`` carried on link ``r``.  Whichever representation is supplied,
        the other is derived lazily and cached.
    links:
        The directed links, in row order.
    nodes:
        PoP names, defining the row-major OD-pair column order.
    """

    def __init__(self, matrix, links: tuple, nodes: tuple[str, ...]):
        self._links = tuple(links)
        self._nodes = tuple(str(node) for node in nodes)
        self._augmented: dict[bool, object] = {}
        self._factors: dict[tuple[bool, bool], object] = {}
        if sparse.issparse(matrix):
            self._sparse: sparse.csr_matrix | None = matrix.tocsr()
            self._dense: np.ndarray | None = None
            shape = self._sparse.shape
        else:
            self._dense = np.asarray(matrix, dtype=float)
            self._sparse = None
            shape = self._dense.shape
        self._csc: sparse.csc_matrix | None = None
        n = len(self._nodes)
        if len(shape) != 2 or shape != (len(self._links), n * n):
            raise ShapeError(
                f"routing matrix must have shape (n_links, n_nodes**2) = "
                f"({len(self._links)}, {n * n}), got {shape}"
            )
        self._node_index = {node: i for i, node in enumerate(self._nodes)}

    # -- representations ----------------------------------------------------

    @property
    def matrix(self) -> np.ndarray:
        """The dense ``(n_links, n_nodes**2)`` array (materialised lazily, cached).

        Returned read-only: the dense and sparse forms are cached views of
        one logical matrix, so in-place edits would silently desynchronise
        them.
        """
        if self._dense is None:
            self._dense = self._sparse.toarray()
        view = self._dense.view()
        view.flags.writeable = False
        return view

    @property
    def sparse(self) -> sparse.csr_matrix:
        """The CSR form (materialised lazily from a dense input, cached)."""
        if self._sparse is None:
            self._sparse = sparse.csr_matrix(self._dense)
        return self._sparse

    # -- basic accessors ----------------------------------------------------

    @property
    def links(self) -> tuple:
        return self._links

    @property
    def nodes(self) -> tuple[str, ...]:
        return self._nodes

    @property
    def n_links(self) -> int:
        return len(self._links)

    @property
    def n_nodes(self) -> int:
        return len(self._nodes)

    def node_index(self, name: str) -> int:
        """Index of the PoP called ``name`` (cached O(1) lookup)."""
        try:
            return self._node_index[name]
        except KeyError as exc:
            raise TopologyError(f"unknown node {name!r} in routing matrix") from exc

    def column(self, origin: str, destination: str) -> np.ndarray:
        """The routing-matrix column of the OD pair ``origin -> destination``."""
        col = self.node_index(origin) * self.n_nodes + self.node_index(destination)
        if self._dense is not None:
            return self._dense[:, col].copy()
        if self._csc is None:
            self._csc = self.sparse.tocsc()
        column = np.zeros(self.n_links)
        start, stop = self._csc.indptr[col], self._csc.indptr[col + 1]
        column[self._csc.indices[start:stop]] = self._csc.data[start:stop]
        return column

    def link_loads(self, traffic_vector: np.ndarray, *, use_sparse: bool = False) -> np.ndarray:
        """Link loads ``Y = R x`` for vectorised traffic matrices.

        Accepts a single ``(n^2,)`` vector, a ``(T, n^2)`` time series or a
        ``(B, T, n^2)`` batch of series; the returned array mirrors the input
        shape with the trailing axis replaced by ``n_links``.  With
        ``use_sparse=True`` the product runs on the CSR form — much faster
        and lighter for large topologies, at the cost of a different
        floating-point summation order than the dense product.
        """
        traffic = np.asarray(traffic_vector, dtype=float)
        n_od = self.n_nodes * self.n_nodes
        if traffic.ndim == 0 or traffic.ndim > 3 or traffic.shape[-1] != n_od:
            raise ShapeError(
                f"traffic vectors must have trailing dimension n_nodes**2 = {n_od} "
                f"and at most 3 dimensions, got shape {traffic.shape}"
            )
        if traffic.ndim == 1:
            if use_sparse:
                return self.sparse @ traffic
            return self.matrix @ traffic
        flat = traffic.reshape(-1, n_od)
        if use_sparse:
            loads = (self.sparse @ flat.T).T
        else:
            loads = flat @ self.matrix.T
        return np.asarray(loads).reshape(*traffic.shape[:-1], self.n_links)

    def augmented_operator(self, *, as_sparse: bool = False):
        """The stacked ``[R; H; G]`` observation operator, built once and cached.

        ``H`` and ``G`` are the ingress/egress summing operators of
        Section 6.2; the stack only depends on the routing matrix and the
        node count, so it is shared by every measurement system over this
        topology — a sweep's cells and priors all solve against one operator
        instead of each re-stacking their own.
        """
        cached = self._augmented.get(bool(as_sparse))
        if cached is None:
            from repro.core.priors import marginal_operators

            h, g, _ = marginal_operators(self.n_nodes, as_sparse=as_sparse)
            if as_sparse:
                cached = sparse.vstack([self.sparse, h, g], format="csr")
            else:
                cached = np.vstack([self.matrix, h, g])
                cached.flags.writeable = False
            self._augmented[bool(as_sparse)] = cached
        return cached

    def observation_factor(self, *, augmented: bool = True, as_sparse: bool = False):
        """The tomogravity factor of the observation operator, built once and cached.

        ``augmented`` selects the stacked ``[R; H; G]`` operator (else the
        routing matrix alone) and ``as_sparse`` its representation; see
        :func:`repro.estimation.tomogravity.factor_observation_operator`.
        The factor lives exactly as long as this routing matrix, so dropping
        the routing memo drops it too.
        """
        key = (bool(augmented), bool(as_sparse))
        cached = self._factors.get(key)
        if cached is None:
            from repro.estimation.tomogravity import factor_observation_operator

            if augmented:
                operator = self.augmented_operator(as_sparse=as_sparse)
            else:
                operator = self.sparse if as_sparse else self.matrix
            cached = self._factors[key] = factor_observation_operator(operator)
        return cached

    def rank(self) -> int:
        """Numerical rank of the routing matrix (always < n^2: the system is ill-posed)."""
        return int(np.linalg.matrix_rank(self.matrix))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RoutingMatrix(n_links={self.n_links}, n_nodes={self.n_nodes}, "
            f"nnz={self.sparse.nnz})"
        )


# Routing matrices memoised by topology content: Dijkstra plus matrix
# assembly is pure in (nodes, links, ecmp), and a sweep's cells all route
# over the same few topologies — sharing the instance also shares its lazily
# cached dense/CSC forms, the stacked augmented operator and its tomogravity
# factors.
_ROUTING_CACHE: dict[tuple, RoutingMatrix] = {}
_ROUTING_CACHE_MAX = 8


def _topology_fingerprint(topology: Topology, ecmp: bool) -> tuple:
    """A value key identifying a topology's routing problem exactly."""
    return (tuple(topology.nodes), tuple(topology.links), bool(ecmp))


def clear_routing_cache() -> None:
    """Drop every memoised routing matrix (tests and benchmarks)."""
    _ROUTING_CACHE.clear()


def build_routing_matrix(topology: Topology, *, ecmp: bool = True) -> RoutingMatrix:
    """Build (or fetch the memoised) routing matrix of ``topology``.

    The build is pure in the topology's nodes, links and weights, so results
    are memoised by content: every measurement simulation over the same
    network — each cell of a grid sweep, every prior of a scenario — shares
    one :class:`RoutingMatrix` instance instead of re-running Dijkstra and
    re-assembling the matrix per call.

    The matrix is assembled as sparse COO triplets from the per-origin
    shortest-path traversal and stored as CSR; equal-cost shares accumulate
    exactly as the former dense ``+=`` loop did, so the dense
    materialisation is bit-identical to the historical dense build.

    Parameters
    ----------
    topology:
        The network; must be strongly connected.
    ecmp:
        When true, traffic of an OD pair is split equally across all
        equal-cost shortest paths (fractional routing-matrix entries); when
        false a single shortest path carries all of it.
    """
    key = _topology_fingerprint(topology, ecmp)
    cached = _ROUTING_CACHE.get(key)
    if cached is not None:
        return cached
    routing = _build_routing_matrix(topology, ecmp=ecmp)
    if len(_ROUTING_CACHE) >= _ROUTING_CACHE_MAX:
        _ROUTING_CACHE.pop(next(iter(_ROUTING_CACHE)))
    _ROUTING_CACHE[key] = routing
    return routing


def _build_routing_matrix(topology: Topology, *, ecmp: bool = True) -> RoutingMatrix:
    """The uncached routing build (see :func:`build_routing_matrix`)."""
    paths = shortest_paths(topology, all_paths=ecmp)
    links = topology.links
    link_index = {link.key: r for r, link in enumerate(links)}
    nodes = topology.nodes
    node_index = {node: i for i, node in enumerate(nodes)}
    n = len(nodes)
    entries: dict[tuple[int, int], float] = {}
    for (origin, destination), node_paths in paths.items():
        if origin == destination:
            continue
        column = node_index[origin] * n + node_index[destination]
        share = 1.0 / len(node_paths)
        for node_path in node_paths:
            for hop_source, hop_target in zip(node_path[:-1], node_path[1:]):
                key = (link_index[(hop_source, hop_target)], column)
                entries[key] = entries.get(key, 0.0) + share
    if entries:
        rows, cols = (np.asarray(axis, dtype=np.int64) for axis in zip(*entries))
        data = np.fromiter(entries.values(), dtype=float, count=len(entries))
    else:  # pragma: no cover - single-node topology
        rows = cols = np.zeros(0, dtype=np.int64)
        data = np.zeros(0)
    matrix = sparse.csr_matrix((data, (rows, cols)), shape=(len(links), n * n))
    return RoutingMatrix(matrix=matrix, links=tuple(links), nodes=nodes)
