"""Tests for the network model and packet counters."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.simulation.network import (
    TCP_MSS,
    NetworkModel,
    PacketCounters,
    _segments,
)


class TestSegments:
    def test_minimum_one(self):
        assert _segments(0) == 1
        assert _segments(-5) == 1

    def test_mss_boundaries(self):
        assert _segments(TCP_MSS) == 1
        assert _segments(TCP_MSS + 1) == 2
        assert _segments(10 * TCP_MSS) == 10


class TestPacketCounters:
    def test_udp_counts_both_ends(self):
        a, b = PacketCounters(), PacketCounters()
        a.count_udp(b)
        assert a.udp_sent == 1
        assert b.udp_received == 1
        assert a.total_packets == 1
        assert b.total_packets == 1
        a.count_udp(b, 5)
        assert (a.udp_sent, b.udp_received) == (6, 6)

    def test_tcp_exchange_is_symmetric(self):
        a, b = PacketCounters(), PacketCounters()
        a.count_tcp_exchange(b, bytes_to_other=200, bytes_from_other=8000)
        # Whatever a sends, b receives, and vice versa.
        assert a.tcp_sent == b.tcp_received
        assert a.tcp_received == b.tcp_sent
        # The 8000-byte direction needs 6 data segments.
        assert b.tcp_sent >= 6

    def test_total_packets_sums_all(self):
        c = PacketCounters(
            udp_sent=1, udp_received=2, tcp_sent=3, tcp_received=4
        )
        assert c.total_packets == 10


class TestNetworkModel:
    def test_transfer_time_components(self):
        net = NetworkModel(lan_latency=0.001, bandwidth=1000.0)
        assert net.transfer_time(0) == pytest.approx(0.001)
        assert net.transfer_time(500) == pytest.approx(0.001 + 0.5)

    def test_defaults_are_fast_ethernet(self):
        net = NetworkModel()
        # 100 Mb/s: 12500 bytes take ~1 ms plus latency.
        assert net.transfer_time(12500) == pytest.approx(
            net.lan_latency + 0.001
        )

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            NetworkModel(lan_latency=-1)
        with pytest.raises(ConfigurationError):
            NetworkModel(bandwidth=0)
