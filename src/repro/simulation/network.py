"""Network model and netstat-style counters for the simulated cluster.

The testbed is a 100 Mb/s Ethernet LAN: messages between cluster nodes
see a small fixed latency plus serialization delay.  Origin servers add
their own reply delay at the node level (the 1-second sleep), not here.

Packet counting mirrors what the paper collected with ``netstat``: "the
number of UDP datagrams sent and received, the TCP packets sent and
received, and the total number of IP packets handled by the Ethernet
network interface.  The third number is roughly the sum of the first
two."
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

#: Ethernet MSS used to convert byte counts into TCP packet estimates.
TCP_MSS = 1460

#: TCP handshake/teardown packets per connection (SYN, SYN-ACK, ACK,
#: FIN+ACK exchanges approximated).
TCP_SETUP_PACKETS = 4


@dataclass
class PacketCounters:
    """Per-node interface counters (the netstat rows of Table II)."""

    udp_sent: int = 0
    udp_received: int = 0
    tcp_sent: int = 0
    tcp_received: int = 0

    @property
    def total_packets(self) -> int:
        """Total IP packets handled by the interface."""
        return (
            self.udp_sent
            + self.udp_received
            + self.tcp_sent
            + self.tcp_received
        )

    def count_udp(self, other: "PacketCounters", datagrams: int = 1) -> None:
        """Record *datagrams* UDP datagrams from ``self`` to ``other``."""
        self.udp_sent += datagrams
        other.udp_received += datagrams

    def count_tcp_exchange(
        self,
        other: "PacketCounters",
        bytes_to_other: int,
        bytes_from_other: int,
    ) -> None:
        """Record one TCP connection exchanging the given byte volumes."""
        to_packets = _segments(bytes_to_other) + TCP_SETUP_PACKETS // 2
        from_packets = _segments(bytes_from_other) + TCP_SETUP_PACKETS // 2
        # Data segments one way are ACKed the other way; approximate one
        # ACK per two segments, matching TCP's delayed-ACK behaviour.
        self.tcp_sent += to_packets + from_packets // 2
        self.tcp_received += from_packets + to_packets // 2
        other.tcp_sent += from_packets + to_packets // 2
        other.tcp_received += to_packets + from_packets // 2


def _segments(byte_count: int) -> int:
    """TCP data segments needed for *byte_count* bytes (at least one)."""
    if byte_count <= 0:
        return 1
    return (byte_count + TCP_MSS - 1) // TCP_MSS


@dataclass(frozen=True)
class NetworkModel:
    """Latency/bandwidth parameters of the experiment LAN."""

    #: One-way fixed latency between any two cluster nodes, seconds.
    lan_latency: float = 0.0002
    #: Link bandwidth in bytes/second (100 Mb/s Ethernet).
    bandwidth: float = 100e6 / 8

    def __post_init__(self) -> None:
        if self.lan_latency < 0:
            raise ConfigurationError("lan_latency must be >= 0")
        if self.bandwidth <= 0:
            raise ConfigurationError("bandwidth must be > 0")

    def transfer_time(self, num_bytes: int) -> float:
        """One-way delivery time for a message of *num_bytes*."""
        return self.lan_latency + max(0, num_bytes) / self.bandwidth
