"""Shortest-path routing and routing-matrix construction.

The estimation problem of Section 6 is ``Y = R x`` where ``x`` is the
vectorised traffic matrix (row-major OD order, see
:func:`repro.core.traffic_matrix.od_pairs`), ``Y`` the vector of per-link byte
counts and ``R`` the routing matrix: ``R[r, s]`` is the fraction of OD pair
``s`` that traverses link ``r`` (1 for single shortest paths, fractional under
equal-cost multipath splitting).

Routing follows IGP link weights: one ``scipy.sparse.csgraph`` Dijkstra
gives the all-pairs distances, and each OD pair is split evenly over its
shortest paths, counted per origin over the shortest-path DAG (see
:func:`_build_routing_matrix`).  Intra-PoP traffic (``i == j``) never
touches a backbone link, so its routing-matrix column is zero — exactly why
TM estimation is under-constrained and why the augmented system also carries
the ingress and egress counts.

A routing matrix has only ``O(n^2 * path_length)`` non-zeros out of
``n_links * n^2`` entries, so :class:`RoutingMatrix` stores a
``scipy.sparse`` CSR matrix and materialises the dense array lazily (and
caches it) for the callers that need dense linear algebra.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.linalg import solve_triangular
from scipy.sparse import csgraph

from repro.errors import ShapeError, TopologyError
from repro.topology.topology import Topology

__all__ = [
    "RoutingMatrix",
    "build_routing_matrix",
    "clear_routing_cache",
]


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


# Routing matrices memoised by topology content: the build is pure in
# (nodes, links), and a sweep's cells all route over the same few
# topologies — sharing the instance also shares its lazily cached dense/CSC
# forms, the stacked augmented operator and its tomogravity factors.
_ROUTING_CACHE: dict[tuple, RoutingMatrix] = {}
_ROUTING_CACHE_MAX = 8


def _topology_fingerprint(topology: Topology) -> tuple:
    """A value key identifying a topology's routing problem exactly."""
    return (tuple(topology.nodes), tuple(topology.links))


def clear_routing_cache() -> None:
    """Drop every memoised routing matrix (tests and benchmarks)."""
    _ROUTING_CACHE.clear()


def build_routing_matrix(topology: Topology) -> RoutingMatrix:
    """Build (or fetch the memoised) routing matrix of ``topology``.

    Traffic of each OD pair is split equally across all of its equal-cost
    shortest paths under the IGP weights, so entries are fractional where
    paths tie.  The build is pure in the topology's nodes, links and
    weights, so results are memoised by content: every measurement
    simulation over the same network — each cell of a grid sweep, every
    prior of a scenario — shares one :class:`RoutingMatrix` instance.

    Parameters
    ----------
    topology:
        The network; must be strongly connected.
    """
    key = _topology_fingerprint(topology)
    cached = _ROUTING_CACHE.get(key)
    if cached is not None:
        return cached
    routing = _build_routing_matrix(topology)
    if len(_ROUTING_CACHE) >= _ROUTING_CACHE_MAX:
        _ROUTING_CACHE.pop(next(iter(_ROUTING_CACHE)))
    _ROUTING_CACHE[key] = routing
    return routing


def _build_routing_matrix(topology: Topology) -> RoutingMatrix:
    """The uncached routing build (see :func:`build_routing_matrix`).

    For each origin ``s`` the shortest-path DAG holds the links ``u -> v``
    with ``D[s,u] + w == D[s,v]`` — the exact-float relaxation test of
    Dijkstra itself.  Ordering the nodes by ``D[s,·]`` makes the DAG strictly
    upper triangular, so one unit-triangular solve of ``(I - DAG) N = I``
    counts the DAG paths ``N[v,t]`` from every node to every other, exactly
    in floating point while the counts stay below 2**53.  Link ``u -> v``
    then carries ``N[s,u] N[v,t] / N[s,t]`` of OD pair ``(s, t)``: the share
    of its equal-cost paths through that link, correctly rounded.
    """
    topology.validate_connected()
    nodes, links = topology.nodes, topology.links
    n = len(nodes)
    source = np.array([topology.node_index(link.source) for link in links], dtype=np.int64)
    target = np.array([topology.node_index(link.target) for link in links], dtype=np.int64)
    weight = np.array([link.weight for link in links], dtype=float)
    distances = csgraph.dijkstra(topology.adjacency(), directed=True)
    identity = np.eye(n)
    rows, cols, data = [], [], []
    for origin, distance in enumerate(distances):
        tight = np.flatnonzero(distance[source] + weight == distance[target])
        rank = np.empty(n, dtype=np.int64)
        rank[np.argsort(distance, kind="stable")] = np.arange(n)
        unit_upper = identity.copy()
        unit_upper[rank[source[tight]], rank[target[tight]]] = -1.0
        counts = solve_triangular(unit_upper, identity, unit_diagonal=True)[np.ix_(rank, rank)]
        through = counts[origin, source[tight], np.newaxis] * counts[target[tight]]
        link_at, destination = np.nonzero(through)
        rows.append(tight[link_at])
        cols.append(origin * n + destination)
        data.append(through[link_at, destination] / counts[origin, destination])
    matrix = sparse.csr_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(len(links), n * n),
    )
    return RoutingMatrix(matrix=matrix, links=links, nodes=nodes)
