"""Tests for the packet/flow trace substrate and the Section 5.2 f-measurement."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import TraceError, ValidationError
from repro.traces.applications import (
    DEFAULT_APPLICATION_MIX,
    ApplicationProfile,
    aggregate_forward_fraction,
)
from repro.traces.connections import Connection
from repro.traces.flows import FiveTuple, FlowRecord
from repro.traces.matching import measure_forward_fraction
from repro.traces.trace_generator import BidirectionalTraceGenerator


class TestApplications:
    def test_default_mix_shares_sum_to_one(self):
        total = sum(profile.connection_share for profile in DEFAULT_APPLICATION_MIX)
        assert total == pytest.approx(1.0)

    def test_web_is_strongly_asymmetric(self):
        web = next(p for p in DEFAULT_APPLICATION_MIX if p.name == "web")
        assert web.expected_forward_fraction < 0.1

    def test_p2p_is_roughly_symmetric(self):
        p2p = next(p for p in DEFAULT_APPLICATION_MIX if p.name == "p2p")
        assert 0.25 < p2p.expected_forward_fraction < 0.5

    def test_aggregate_f_in_paper_range(self):
        assert 0.15 < aggregate_forward_fraction() < 0.35

    def test_sample_volumes_shape(self):
        rng = np.random.default_rng(0)
        forward, reverse = DEFAULT_APPLICATION_MIX[0].sample_volumes(rng, size=10)
        assert forward.shape == (10,)
        assert np.all(forward > 0) and np.all(reverse > 0)

    def test_invalid_profiles_rejected(self):
        with pytest.raises(ValidationError):
            ApplicationProfile("bad", 1.0, -1.0, 1.0, 1.0, 0.5)
        with pytest.raises(ValidationError):
            ApplicationProfile("bad", 1.0, 1.0, 1.0, 1.0, -0.5)

    def test_empty_mix_rejected(self):
        with pytest.raises(ValidationError):
            aggregate_forward_fraction(())


class TestFiveTupleAndFlow:
    def test_reversal(self):
        five = FiveTuple("1.1.1.1", "2.2.2.2", 1234, 80)
        rev = five.reversed()
        assert rev.src_ip == "2.2.2.2" and rev.dst_port == 1234
        assert rev.reversed() == five

    def test_canonical_is_direction_independent(self):
        five = FiveTuple("1.1.1.1", "2.2.2.2", 1234, 80)
        assert five.canonical() == five.reversed().canonical()

    def test_port_validation(self):
        with pytest.raises(TraceError):
            FiveTuple("a", "b", -1, 80)
        with pytest.raises(TraceError):
            FiveTuple("a", "b", 80, 70000)

    def test_flow_record_validation(self):
        five = FiveTuple("a", "b", 1, 2)
        with pytest.raises(TraceError):
            FlowRecord(five, "l", bytes=-1.0, packets=1, start=0.0, end=1.0, carries_syn=True)
        with pytest.raises(TraceError):
            FlowRecord(five, "l", bytes=1.0, packets=1, start=2.0, end=1.0, carries_syn=True)

    def test_bytes_in_bin_prorates(self):
        five = FiveTuple("a", "b", 1, 2)
        flow = FlowRecord(five, "l", bytes=100.0, packets=1, start=0.0, end=10.0, carries_syn=True)
        assert flow.bytes_in_bin(0.0, 5.0) == pytest.approx(50.0)
        assert flow.bytes_in_bin(0.0, 10.0) == pytest.approx(100.0)
        assert flow.bytes_in_bin(20.0, 30.0) == 0.0
        assert flow.overlaps_bin(5.0, 6.0)
        assert not flow.overlaps_bin(11.0, 12.0)


class TestConnection:
    def make_connection(self, start=10.0) -> Connection:
        return Connection(
            initiator_ip="h1",
            responder_ip="s1",
            initiator_port=40000,
            responder_port=80,
            initiator_node="IPLS",
            responder_node="CLEV",
            forward_bytes=100.0,
            reverse_bytes=900.0,
            start=start,
            duration=30.0,
            application="web",
        )

    def test_forward_fraction(self):
        assert self.make_connection().forward_fraction == pytest.approx(0.1)

    def test_flow_records_directions(self):
        connection = self.make_connection()
        forward, reverse = connection.flow_records("IPLS->CLEV", "CLEV->IPLS")
        assert forward.link == "IPLS->CLEV" and forward.bytes == 100.0
        assert reverse.link == "CLEV->IPLS" and reverse.bytes == 900.0
        assert forward.carries_syn and not reverse.carries_syn
        assert forward.five_tuple.reversed() == reverse.five_tuple

    def test_syn_not_visible_for_straddling_connection(self):
        connection = self.make_connection(start=-5.0)
        forward, _ = connection.flow_records("a->b", "b->a", window_start=0.0)
        assert not forward.carries_syn

    def test_validation(self):
        with pytest.raises(TraceError):
            Connection("h", "s", 1, 2, "A", "B", -1.0, 1.0, 0.0, 1.0)
        with pytest.raises(TraceError):
            Connection("h", "s", 1, 2, "A", "B", 1.0, 1.0, 0.0, 0.0)


class TestTraceGenerator:
    def test_deterministic_with_seed(self):
        a = BidirectionalTraceGenerator(seed=7, connections_per_hour=200).generate(1800)
        b = BidirectionalTraceGenerator(seed=7, connections_per_hour=200).generate(1800)
        assert len(a.connections) == len(b.connections)
        assert a.connections[0].forward_bytes == b.connections[0].forward_bytes

    def test_flow_counts_match_connections(self):
        pair = BidirectionalTraceGenerator(seed=1, connections_per_hour=500).generate(1800)
        assert len(pair.a_to_b) + len(pair.b_to_a) == 2 * len(pair.connections)

    def test_straddling_fraction_roughly_respected(self):
        pair = BidirectionalTraceGenerator(
            seed=2, connections_per_hour=2000, straddling_fraction=0.2
        ).generate(3600)
        straddling = sum(1 for c in pair.connections if c.start < 0)
        fraction = straddling / len(pair.connections)
        assert 0.1 < fraction < 0.3

    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            BidirectionalTraceGenerator(initiation_balance=2.0)
        with pytest.raises(ValidationError):
            BidirectionalTraceGenerator(connections_per_hour=0)
        with pytest.raises(ValidationError):
            BidirectionalTraceGenerator(straddling_fraction=1.0)
        with pytest.raises(ValidationError):
            BidirectionalTraceGenerator().generate(0.0)

    def test_true_forward_fraction_in_mix_range(self):
        pair = BidirectionalTraceGenerator(seed=3, connections_per_hour=3000).generate(3600)
        assert 0.1 < pair.true_forward_fraction("IPLS") < 0.4


class TestMeasureForwardFraction:
    def test_measured_f_close_to_ground_truth(self):
        pair = BidirectionalTraceGenerator(seed=4, connections_per_hour=4000).generate(7200)
        measurement = measure_forward_fraction(pair, bin_seconds=300.0)
        mean_ab, mean_ba = measurement.mean_f()
        assert abs(mean_ab - pair.true_forward_fraction("IPLS")) < 0.08
        assert abs(mean_ba - pair.true_forward_fraction("CLEV")) < 0.08

    def test_number_of_bins(self):
        pair = BidirectionalTraceGenerator(seed=5, connections_per_hour=500).generate(3600)
        measurement = measure_forward_fraction(pair, bin_seconds=300.0)
        assert measurement.n_bins == 12

    def test_spatial_stability_of_symmetric_traffic(self):
        pair = BidirectionalTraceGenerator(
            seed=6, connections_per_hour=4000, initiation_balance=0.5
        ).generate(7200)
        measurement = measure_forward_fraction(pair, bin_seconds=600.0)
        assert measurement.spatial_gap() < 0.1

    def test_unknown_fraction_grows_with_straddling(self):
        low = BidirectionalTraceGenerator(seed=7, connections_per_hour=2000, straddling_fraction=0.02).generate(3600)
        high = BidirectionalTraceGenerator(seed=7, connections_per_hour=2000, straddling_fraction=0.3).generate(3600)
        f_low = measure_forward_fraction(low).unknown_fraction
        f_high = measure_forward_fraction(high).unknown_fraction
        assert f_high > f_low

    def test_invalid_bin_size(self):
        pair = BidirectionalTraceGenerator(seed=8, connections_per_hour=100).generate(600)
        with pytest.raises(ValidationError):
            measure_forward_fraction(pair, bin_seconds=0.0)
