"""Tests for shortest-path routing and routing-matrix construction."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from test_tomogravity_kernel import ring_with_chords

from repro.topology.library import (
    abilene_topology,
    geant_topology,
    random_topology,
    totem_topology,
)
from repro.topology.routing import build_routing_matrix
from repro.topology.topology import Topology


def make_line() -> Topology:
    """a - b - c with unit weights: the a->c path must use both links."""
    topology = Topology("line", ["a", "b", "c"])
    topology.add_bidirectional_link("a", "b")
    topology.add_bidirectional_link("b", "c")
    return topology


def make_square() -> Topology:
    """A 4-cycle with equal weights: two equal-cost paths between opposite corners."""
    topology = Topology("square", ["a", "b", "c", "d"])
    for pair in (("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")):
        topology.add_bidirectional_link(*pair)
    return topology


def used_links(routing, origin: str, destination: str) -> dict[tuple[str, str], float]:
    """The links carrying OD pair ``origin -> destination`` and their shares."""
    column = routing.column(origin, destination)
    return {routing.links[r].key: float(column[r]) for r in np.flatnonzero(column)}


class TestShortestPaths:
    def test_line_path(self):
        routing = build_routing_matrix(make_line())
        assert used_links(routing, "a", "c") == {("a", "b"): 1.0, ("b", "c"): 1.0}
        assert used_links(routing, "a", "a") == {}

    def test_all_paths_mode_finds_both_ecmp_paths(self):
        routing = build_routing_matrix(make_square())
        assert used_links(routing, "a", "c") == {
            ("a", "b"): 0.5, ("b", "c"): 0.5, ("a", "d"): 0.5, ("d", "c"): 0.5,
        }

    def test_respects_weights(self):
        topology = Topology("w", ["a", "b", "c"])
        topology.add_bidirectional_link("a", "b", weight=10.0)
        topology.add_bidirectional_link("b", "c", weight=10.0)
        topology.add_bidirectional_link("a", "c", weight=50.0)
        routing = build_routing_matrix(topology)
        assert used_links(routing, "a", "c") == {("a", "b"): 1.0, ("b", "c"): 1.0}


class TestRoutingMatrix:
    def test_line_matrix_entries(self):
        routing = build_routing_matrix(make_line())
        column = routing.column("a", "c")
        used = {routing.links[r].key for r in np.nonzero(column)[0]}
        assert used == {("a", "b"), ("b", "c")}
        np.testing.assert_allclose(column[np.nonzero(column)], 1.0)

    def test_intra_pop_columns_are_zero(self):
        routing = build_routing_matrix(make_line())
        for node in ("a", "b", "c"):
            np.testing.assert_allclose(routing.column(node, node), 0.0)

    def test_ecmp_splits_traffic(self):
        routing = build_routing_matrix(make_square())
        column = routing.column("a", "c")
        nonzero = column[np.nonzero(column)]
        np.testing.assert_allclose(nonzero, 0.5)
        assert nonzero.size == 4  # two 2-hop paths

    def test_column_sums_equal_path_hop_counts(self):
        """Each OD column sums to its (expected) path length in hops."""
        line_hops = lambda i, j: abs(i - j)  # noqa: E731
        cycle_hops = lambda i, j: min(abs(i - j), 4 - abs(i - j))  # noqa: E731
        for topology, hops in ((make_line(), line_hops), (make_square(), cycle_hops)):
            routing = build_routing_matrix(topology)
            for i, origin in enumerate(topology.nodes):
                for j, destination in enumerate(topology.nodes):
                    column = routing.column(origin, destination)
                    assert column.sum() == pytest.approx(hops(i, j))

    def test_link_loads_shapes(self):
        routing = build_routing_matrix(make_line())
        single = routing.link_loads(np.ones(9))
        batch = routing.link_loads(np.ones((5, 9)))
        stacked = routing.link_loads(np.ones((3, 5, 9)))
        assert single.shape == (routing.n_links,)
        assert batch.shape == (5, routing.n_links)
        assert stacked.shape == (3, 5, routing.n_links)

    def test_link_loads_rejects_bad_trailing_dimension(self):
        routing = build_routing_matrix(make_line())
        with pytest.raises(Exception):
            routing.link_loads(np.ones(8))

    def test_link_loads_sparse_matches_dense(self):
        routing = build_routing_matrix(make_square())
        rng = np.random.default_rng(2)
        for shape in ((16,), (7, 16), (2, 3, 16)):
            traffic = rng.random(shape)
            dense = traffic @ routing.matrix.T
            via_sparse = routing.link_loads(traffic)
            np.testing.assert_allclose(via_sparse, dense, rtol=1e-12, atol=0)
            assert via_sparse.shape == dense.shape

    def test_rank_is_deficient(self):
        """The estimation problem must be under-constrained (rank < n^2)."""
        routing = build_routing_matrix(geant_topology())
        assert routing.rank() < routing.n_nodes**2

    def test_sparse_and_dense_representations_agree(self):
        routing = build_routing_matrix(geant_topology())
        assert routing.sparse.shape == routing.matrix.shape
        np.testing.assert_array_equal(routing.sparse.toarray(), routing.matrix)
        # Far fewer non-zeros than entries: the sparse form is the point.
        assert routing.sparse.nnz < 0.25 * routing.matrix.size

    def test_dense_constructed_matrix_gains_sparse_view(self):
        from repro.topology.routing import RoutingMatrix

        reference = build_routing_matrix(make_line())
        dense = RoutingMatrix(
            matrix=reference.matrix.copy(), links=reference.links, nodes=reference.nodes
        )
        np.testing.assert_array_equal(dense.sparse.toarray(), reference.matrix)
        np.testing.assert_array_equal(dense.column("a", "c"), reference.column("a", "c"))

    def test_column_uses_cached_node_index(self):
        routing = build_routing_matrix(make_line())
        assert routing.node_index("b") == 1
        from repro.errors import TopologyError

        with pytest.raises(TopologyError):
            routing.column("a", "nope")

    def test_column_from_sparse_matches_dense_column(self):
        routing = build_routing_matrix(make_square())
        sparse_column = routing.column("a", "c")
        dense_column = routing.matrix[:, routing.node_index("a") * 4 + routing.node_index("c")]
        np.testing.assert_array_equal(sparse_column, dense_column)

    def test_shape_mismatch_rejected(self):
        from repro.errors import ShapeError
        from repro.topology.routing import RoutingMatrix

        with pytest.raises(ShapeError):
            RoutingMatrix(matrix=np.zeros((2, 5)), links=("x", "y"), nodes=("a", "b"))

    def test_traffic_conservation_on_abilene(self):
        """Total bytes on first-hop links of an OD pair equal the OD volume."""
        topology = abilene_topology()
        routing = build_routing_matrix(topology)
        n = topology.n_nodes
        rng = np.random.default_rng(0)
        tm = rng.random((n, n))
        np.fill_diagonal(tm, 0.0)
        loads = routing.link_loads(tm.reshape(-1))
        # Sum of loads on links leaving node i equals traffic originated at i
        # plus transit traffic through i; at minimum it is >= the origin total.
        for i, node in enumerate(topology.nodes):
            outgoing = [r for r, link in enumerate(routing.links) if link.source == node]
            assert loads[outgoing].sum() >= tm[i].sum() - 1e-9


def assert_unit_flows(routing) -> None:
    """Every OD column is a unit flow from its origin to its destination."""
    n, matrix = routing.n_nodes, routing.sparse
    heads = np.array([routing.node_index(link.source) for link in routing.links])
    tails = np.array([routing.node_index(link.target) for link in routing.links])
    signs = np.r_[np.ones(routing.n_links), -np.ones(routing.n_links)]
    incidence = sparse.csr_matrix(
        (signs, (np.r_[heads, tails], np.tile(np.arange(routing.n_links), 2))),
        shape=(n, routing.n_links),
    )
    origin, destination = np.divmod(np.arange(n * n), n)
    od = np.flatnonzero(origin != destination)
    signs = np.r_[np.ones(od.size), -np.ones(od.size)]
    expected = sparse.csr_matrix(
        (signs, (np.r_[origin[od], destination[od]], np.tile(od, 2))), shape=(n, n * n)
    )
    assert abs(incidence @ matrix - expected).max() <= 1e-12
    assert np.all(matrix.data > 0.0) and np.all(matrix.data <= 1.0)


class TestRoutingKernel:
    @pytest.mark.parametrize("factory", [geant_topology, totem_topology, abilene_topology])
    def test_paper_topology_columns_are_unit_flows(self, factory):
        assert_unit_flows(build_routing_matrix(factory()))

    @given(st.integers(min_value=2, max_value=30), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_random_topology_columns_are_unit_flows(self, n_nodes, seed):
        assert_unit_flows(build_routing_matrix(random_topology(n_nodes, seed=seed)))

    def test_large_ring_columns_are_unit_flows(self):
        assert_unit_flows(build_routing_matrix(ring_with_chords(200)))

    # sha256 over the CSR (data, indices, indptr) of each paper topology's
    # routing matrix, recorded from the per-pair path-enumeration build.
    PINNED = {
        "geant": "d204a1b9e5f89874c5577663b723539b42450c7dcb81f6ad281cb9aa9cbb01c7",
        "totem": "6beeb7d01b277e7ab37cf68481d80145721c0e45ead91ed60cf2bed20bcc1f19",
        "abilene": "5b3e63e0391b741f673a281fecc47af29be678f758b8c47c37460ddfd917fe83",
    }

    @pytest.mark.parametrize("factory", [geant_topology, totem_topology, abilene_topology])
    def test_paper_topology_matrices_are_pinned(self, factory):
        topology = factory()
        matrix = build_routing_matrix(topology).sparse
        digest = hashlib.sha256()
        for part in (matrix.data, matrix.indices, matrix.indptr):
            digest.update(np.ascontiguousarray(part).tobytes())
        assert digest.hexdigest() == self.PINNED[topology.name]

    def test_single_node_routes_to_empty_matrix(self):
        routing = build_routing_matrix(Topology("solo", ["a"]))
        assert routing.sparse.shape == (0, 1)
        assert routing.matrix.shape == (0, 1)


def test_component_routing_matrix_build():
    routing = build_routing_matrix(geant_topology())
    assert routing.matrix.shape[1] == 22 * 22
