"""Unit tests for the NIC (SRAM, halt bit), fabric, DMA, and control LAN."""

from dataclasses import dataclass

import pytest

from repro.errors import ConfigError, HardwareError, RoutingError
from repro.hardware.dma import DmaEngine, DmaSpec
from repro.hardware.ethernet import ControlNetwork, EthernetSpec
from repro.hardware.link import LinkSpec
from repro.hardware.network import MyrinetFabric
from repro.hardware.nic import MyrinetNIC, NicSpec
from repro.sim import Simulator
from repro.units import KiB


@dataclass
class FakePacket:
    size_bytes: int = 1560
    label: str = ""


class SinkFirmware:
    """Minimal firmware stub: records arrivals."""

    def __init__(self):
        self.received = []

    def on_packet_arrival(self, packet):
        self.received.append(packet)


@pytest.fixture
def sim():
    return Simulator()


def make_nic(sim, node_id):
    nic = MyrinetNIC(sim, node_id)
    nic.firmware = SinkFirmware()
    return nic


class TestNicSram:
    def test_firmware_reservation_counts(self, sim):
        nic = MyrinetNIC(sim, 0)
        assert nic.sram_free == nic.spec.sram_bytes - nic.spec.firmware_reserved

    def test_allocate_and_free(self, sim):
        nic = MyrinetNIC(sim, 0)
        nic.allocate_sram(100 * KiB, "ctx0")
        assert nic.sram_allocated("ctx0") == 100 * KiB
        nic.free_sram("ctx0")
        assert nic.sram_allocated("ctx0") == 0

    def test_overcommit_raises(self, sim):
        nic = MyrinetNIC(sim, 0)
        with pytest.raises(HardwareError, match="over-commit"):
            nic.allocate_sram(600 * KiB, "huge")

    def test_duplicate_tag_raises(self, sim):
        nic = MyrinetNIC(sim, 0)
        nic.allocate_sram(1 * KiB, "x")
        with pytest.raises(HardwareError):
            nic.allocate_sram(1 * KiB, "x")

    def test_firmware_reservation_is_protected(self, sim):
        with pytest.raises(HardwareError):
            MyrinetNIC(sim, 0).free_sram("firmware")

    def test_halt_bit(self, sim):
        nic = MyrinetNIC(sim, 0)
        assert not nic.halted
        nic.set_halt_bit()
        assert nic.halted
        nic.clear_halt_bit()
        assert not nic.halted

    def test_delivery_without_firmware_raises(self, sim):
        nic = MyrinetNIC(sim, 0)
        with pytest.raises(HardwareError, match="firmware"):
            nic.deliver(FakePacket())


class TestFabric:
    def test_register_and_transmit(self, sim):
        fabric = MyrinetFabric(sim)
        a, b = make_nic(sim, 0), make_nic(sim, 1)
        fabric.register(a)
        fabric.register(b)
        pkt = FakePacket(label="hello")
        fabric.transmit(0, 1, pkt)
        sim.run()
        assert b.firmware.received == [pkt]
        assert fabric.packets_moved == 1

    def test_latency_is_wire_plus_fallthrough(self, sim):
        link = LinkSpec()
        fabric = MyrinetFabric(sim, link)
        for i in range(2):
            fabric.register(make_nic(sim, i))
        pkt = FakePacket(size_bytes=1560)
        arrival = fabric.transmit(0, 1, pkt)
        sim.run()
        expected = link.latency(1) + link.wire_time(1560)
        assert sim.now == pytest.approx(expected)
        assert arrival.processed

    def test_self_transmit_rejected(self, sim):
        fabric = MyrinetFabric(sim)
        fabric.register(make_nic(sim, 0))
        with pytest.raises(RoutingError):
            fabric.transmit(0, 0, FakePacket())

    def test_unknown_destination_rejected(self, sim):
        fabric = MyrinetFabric(sim)
        fabric.register(make_nic(sim, 0))
        with pytest.raises(RoutingError):
            fabric.transmit(0, 9, FakePacket())

    def test_per_pair_fifo_order(self, sim):
        fabric = MyrinetFabric(sim)
        a, b = make_nic(sim, 0), make_nic(sim, 1)
        fabric.register(a)
        fabric.register(b)
        pkts = [FakePacket(label=f"p{i}") for i in range(5)]
        for p in pkts:
            fabric.transmit(0, 1, p)
        sim.run()
        assert [p.label for p in b.firmware.received] == ["p0", "p1", "p2", "p3", "p4"]

    def test_fan_in_serialises_at_destination(self, sim):
        """Two senders to one receiver: deliveries are spaced >= wire time."""
        link = LinkSpec()
        fabric = MyrinetFabric(sim, link)
        nics = [make_nic(sim, i) for i in range(3)]
        for nic in nics:
            fabric.register(nic)
        times = []
        fabric.observer = lambda pkt, dep, arr: times.append(arr)
        fabric.transmit(0, 2, FakePacket())
        fabric.transmit(1, 2, FakePacket())
        sim.run()
        assert times[1] - times[0] >= link.wire_time(1560) - 1e-12

    def test_unregister_removes_node(self, sim):
        fabric = MyrinetFabric(sim)
        fabric.register(make_nic(sim, 0))
        fabric.register(make_nic(sim, 1))
        fabric.unregister(1)
        assert fabric.node_ids == [0]
        with pytest.raises(RoutingError):
            fabric.transmit(0, 1, FakePacket())


class TestDma:
    def test_transfer_time_model(self, sim):
        dma = DmaEngine(sim, DmaSpec(bandwidth=100e6, setup_time=1e-6))
        assert dma.request(1_000_000) == pytest.approx(1e-6 + 0.01)

    def test_transfers_serialise(self, sim):
        dma = DmaEngine(sim, DmaSpec(bandwidth=100e6, setup_time=0.0))
        assert dma.request(1_000_000) == pytest.approx(0.01)
        assert dma.request(1_000_000) == pytest.approx(0.02)
        sim.run(until=0.015)
        # Requested mid-transfer: queues behind the second one.
        assert dma.request(1_000_000) == pytest.approx(0.015)
        sim.run(until=0.05)
        # Requested with the engine idle: starts at once.
        assert dma.request(1_000_000) == pytest.approx(0.01)

    def test_negative_size_rejected(self, sim):
        with pytest.raises(ConfigError):
            DmaEngine(sim).request(-1)

    def test_counters(self, sim):
        dma = DmaEngine(sim)
        dma.request(100)
        dma.request(200)
        assert dma.bytes_moved == 300 and dma.transfers == 2


class TestControlNetwork:
    def test_unicast_delivery(self, sim):
        net = ControlNetwork(sim)
        got = []
        net.register(1, lambda src, msg: got.append((src, msg, sim.now)))
        net.register(0, lambda src, msg: None)
        net.send(0, 1, "switch-slot")
        sim.run()
        assert got[0][:2] == (0, "switch-slot")
        assert got[0][2] >= net.spec.base_latency

    def test_broadcast_excludes_sender(self, sim):
        net = ControlNetwork(sim)
        got = []
        for i in range(4):
            net.register(i, lambda src, msg, i=i: got.append(i))
        net.broadcast(0, "tick")
        sim.run()
        assert sorted(got) == [1, 2, 3]

    def test_broadcast_skew_is_bounded(self, sim):
        spec = EthernetSpec()
        net = ControlNetwork(sim, spec)
        times = []
        for i in range(8):
            net.register(i, lambda src, msg: times.append(sim.now))
        net.broadcast(0, "tick")
        sim.run()
        assert max(times) - min(times) <= spec.broadcast_skew

    def test_send_to_unknown_raises(self, sim):
        with pytest.raises(RoutingError):
            ControlNetwork(sim).send(0, 5, "x")

    def test_duplicate_registration_raises(self, sim):
        net = ControlNetwork(sim)
        net.register(0, lambda s, m: None)
        with pytest.raises(RoutingError):
            net.register(0, lambda s, m: None)
