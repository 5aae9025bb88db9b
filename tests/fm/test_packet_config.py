"""Unit tests for packets, FMConfig, and buffer-partitioning policies."""

import pytest

from repro.errors import ConfigError
from repro.fm.config import FMConfig
from repro.fm.packet import Packet, PacketType
from repro.fm.policies.base import ContextGeometry
from repro.fm.policies.static import FullBuffer, StaticPartition


class TestPacket:
    def test_data_size_includes_header(self):
        pkt = Packet(PacketType.DATA, 0, 1, payload_bytes=100)
        assert pkt.size_bytes == Packet.HEADER_BYTES + 100

    def test_control_packets_are_small(self):
        for ptype in (PacketType.REFILL, PacketType.HALT, PacketType.READY):
            assert Packet(ptype, 0, 1).size_bytes == Packet.CONTROL_BYTES

    def test_control_packets_reject_payload(self):
        with pytest.raises(ConfigError):
            Packet(PacketType.HALT, 0, 1, payload_bytes=10)

    def test_nic_control_classification(self):
        assert Packet(PacketType.HALT, 0, 1).is_nic_control
        assert Packet(PacketType.READY, 0, 1).is_nic_control
        assert not Packet(PacketType.REFILL, 0, 1).is_nic_control
        assert not Packet(PacketType.DATA, 0, 1).is_nic_control

    def test_fragment_validation(self):
        with pytest.raises(ConfigError):
            Packet(PacketType.DATA, 0, 1, frag_index=2, frag_count=2)

    def test_last_fragment_flag(self):
        assert Packet(PacketType.DATA, 0, 1, frag_index=1, frag_count=2).is_last_fragment
        assert not Packet(PacketType.DATA, 0, 1, frag_index=0, frag_count=2).is_last_fragment

    def test_sequence_numbers_increase(self):
        a = Packet(PacketType.DATA, 0, 1)
        b = Packet(PacketType.DATA, 0, 1)
        assert b.seq > a.seq


class TestFMConfig:
    def test_paper_geometry(self):
        cfg = FMConfig()
        assert cfg.packet_bytes == 1560
        assert cfg.recv_queue_packets == 668  # 1 MB pinned buffer
        assert cfg.send_queue_packets == 252  # ~400 KB NIC SRAM
        assert cfg.recv_buffer_bytes == 668 * 1560
        assert cfg.send_buffer_bytes == 252 * 1560

    def test_payload_bytes(self):
        cfg = FMConfig()
        assert cfg.payload_bytes == 1560 - 24

    def test_packets_for_message_sizes(self):
        cfg = FMConfig()
        assert cfg.packets_for(0) == 1
        assert cfg.packets_for(1) == 1
        assert cfg.packets_for(cfg.payload_bytes) == 1
        assert cfg.packets_for(cfg.payload_bytes + 1) == 2
        assert cfg.packets_for(10 * cfg.payload_bytes) == 10

    def test_packets_for_negative_rejected(self):
        with pytest.raises(ConfigError):
            FMConfig().packets_for(-1)

    def test_validation(self):
        with pytest.raises(ConfigError):
            FMConfig(packet_bytes=10, header_bytes=24)
        with pytest.raises(ConfigError):
            FMConfig(max_contexts=0)
        with pytest.raises(ConfigError):
            FMConfig(low_water_fraction=1.0)
        with pytest.raises(ConfigError):
            FMConfig(pio_rate=0)


class TestStaticPartition:
    """The original FM division: C0 = Br / (n^2 p)."""

    @pytest.mark.parametrize("n,expected_c0", [
        (1, 41),   # 668 // 16
        (2, 10),   # 334 // 32
        (3, 4),    # 222 // 48
        (4, 2),    # 167 // 64
        (5, 1),    # 133 // 80
        (6, 1),    # 111 // 96
        (7, 0),    # 95 // 112 -> no communication possible
        (8, 0),    # paper: "No communication is even possible for as few as 8"
    ])
    def test_credit_collapse_matches_paper(self, n, expected_c0):
        cfg = FMConfig(max_contexts=n, num_processors=16)
        # "report" mode: the zero-credit cells are the collapse the paper
        # documents; the default mode refuses to build them.
        geo = StaticPartition(on_zero_credit="report").geometry(cfg)
        assert geo.initial_credits == expected_c0

    def test_queues_divided_by_contexts(self):
        cfg = FMConfig(max_contexts=4)
        geo = StaticPartition().geometry(cfg)
        assert geo.recv_packets == 668 // 4
        assert geo.send_packets == 252 // 4


class TestFullBuffer:
    """The paper's scheme: C0 = Br / p, independent of n."""

    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_credits_independent_of_contexts(self, n):
        cfg = FMConfig(max_contexts=n, num_processors=16)
        geo = FullBuffer().geometry(cfg)
        assert geo.initial_credits == 668 // 16 == 41

    def test_full_queues(self):
        cfg = FMConfig(max_contexts=8)
        geo = FullBuffer().geometry(cfg)
        assert geo.recv_packets == 668
        assert geo.send_packets == 252

    def test_improvement_factor_is_n_squared(self):
        """Section 3.3: 'these adjustments increased the maximal credit
        number by a factor of n^2'."""
        for n in (2, 4):
            cfg = FMConfig(max_contexts=n, num_processors=4)
            static = StaticPartition().geometry(cfg).initial_credits
            full = FullBuffer().geometry(cfg).initial_credits
            # Integer division makes the ratio approximate; check bounds.
            assert full >= static * n * n * 0.8

    def test_describe_mentions_policy(self):
        cfg = FMConfig()
        assert "full-buffer" in FullBuffer().describe(cfg)
        assert "static-partition" in StaticPartition().describe(cfg)


class TestContextGeometry:
    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            ContextGeometry(recv_packets=-1, send_packets=0, initial_credits=0)
