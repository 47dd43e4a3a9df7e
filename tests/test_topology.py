"""Tests for the topology substrate and the built-in topology library."""

from __future__ import annotations

import pytest

from repro.errors import TopologyError
from repro.topology.library import (
    abilene_topology,
    geant_topology,
    random_topology,
    totem_topology,
)
from repro.topology.topology import Link, Topology


class TestLink:
    def test_valid_link(self):
        link = Link("a", "b", weight=2.0, capacity=1e9)
        assert link.key == ("a", "b")

    def test_rejects_self_loop(self):
        with pytest.raises(TopologyError):
            Link("a", "a")

    def test_rejects_non_positive_weight(self):
        with pytest.raises(TopologyError):
            Link("a", "b", weight=0.0)

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(TopologyError):
            Link("a", "b", capacity=-1.0)


class TestTopology:
    def make_triangle(self) -> Topology:
        topology = Topology("tri", ["a", "b", "c"])
        topology.add_bidirectional_link("a", "b")
        topology.add_bidirectional_link("b", "c")
        topology.add_bidirectional_link("c", "a")
        return topology

    def test_basic_counts(self):
        topology = self.make_triangle()
        assert topology.n_nodes == 3
        assert topology.n_links == 6

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(TopologyError):
            Topology("bad", ["a", "a"])

    def test_empty_topology_rejected(self):
        with pytest.raises(TopologyError):
            Topology("empty", [])

    def test_link_endpoint_must_exist(self):
        topology = Topology("t", ["a", "b"])
        with pytest.raises(TopologyError):
            topology.add_link(Link("a", "zz"))

    def test_duplicate_link_rejected(self):
        topology = Topology("t", ["a", "b"])
        topology.add_link(Link("a", "b"))
        with pytest.raises(TopologyError):
            topology.add_link(Link("a", "b"))

    def test_node_index_and_lookup(self):
        topology = self.make_triangle()
        assert topology.node_index("b") == 1
        with pytest.raises(TopologyError):
            topology.node_index("zz")

    def test_has_link_and_link(self):
        topology = self.make_triangle()
        assert topology.has_link("a", "b")
        assert topology.link("a", "b").source == "a"
        with pytest.raises(TopologyError):
            topology.link("a", "zz")

    def test_neighbors(self):
        topology = self.make_triangle()
        assert sorted(topology.neighbors("a")) == ["b", "c"]

    def test_connectivity_checks(self):
        connected = self.make_triangle()
        assert connected.is_strongly_connected()
        connected.validate_connected()
        disconnected = Topology("d", ["a", "b", "c"])
        disconnected.add_bidirectional_link("a", "b")
        assert not disconnected.is_strongly_connected()
        with pytest.raises(TopologyError):
            disconnected.validate_connected()


class TestLibrary:
    def test_geant_dimensions(self):
        topology = geant_topology()
        assert topology.n_nodes == 22
        assert topology.is_strongly_connected()

    def test_totem_dimensions(self):
        topology = totem_topology()
        assert topology.n_nodes == 23
        assert "de1" in topology.nodes and "de2" in topology.nodes
        assert "de" not in topology.nodes
        assert topology.is_strongly_connected()

    def test_abilene_dimensions(self):
        topology = abilene_topology()
        assert topology.n_nodes == 11
        assert topology.has_link("IPLS", "KSCY")
        assert topology.is_strongly_connected()

    def test_random_topology_connected_and_seeded(self):
        a = random_topology(15, seed=3)
        b = random_topology(15, seed=3)
        assert a.n_nodes == 15
        assert a.is_strongly_connected()
        assert {link.key for link in a.links} == {link.key for link in b.links}

    def test_random_topology_rejects_tiny(self):
        with pytest.raises(TopologyError):
            random_topology(1)
