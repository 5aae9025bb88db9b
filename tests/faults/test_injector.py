"""Unit tests for the fault model and the deterministic injector."""

import itertools

import pytest

from repro.errors import ConfigError
from repro.faults.injector import FaultInjector
from repro.faults.model import FaultSpec
from repro.fm.packet import Packet, PacketType
from repro.hardware.link import LinkSpec
from repro.hardware.network import MyrinetFabric
from repro.sim import Simulator
from repro.sim.rand import RandomStreams

_seqs = itertools.count()


def data_packet(src=0, dst=1, payload=1024):
    return Packet(PacketType.DATA, src_node=src, dst_node=dst,
                  seq=next(_seqs), job_id=1, payload_bytes=payload)


class TestFaultSpec:
    def test_defaults_are_inert(self):
        spec = FaultSpec()
        assert not spec.enabled
        assert not spec.link_faults
        assert not spec.daemon_faults

    @pytest.mark.parametrize("field", ["drop_rate", "dup_rate", "corrupt_rate",
                                       "jitter_rate", "daemon_stall_rate",
                                       "daemon_crash_rate"])
    def test_rates_must_be_probabilities(self, field):
        with pytest.raises(ConfigError):
            FaultSpec(**{field: 1.0})
        with pytest.raises(ConfigError):
            FaultSpec(**{field: -0.1})

    def test_link_fault_budget_capped(self):
        with pytest.raises(ConfigError, match="exceed 1"):
            FaultSpec(drop_rate=0.5, dup_rate=0.4, corrupt_rate=0.2)

    def test_enabled_flags(self):
        assert FaultSpec(drop_rate=0.1).link_faults
        assert FaultSpec(sram_flip_rate=1.0).enabled
        assert not FaultSpec(sram_flip_rate=1.0).link_faults
        assert FaultSpec(daemon_stall_rate=0.1).daemon_faults


class TestLinkDecisions:
    def make(self, spec, seed=0, link=None):
        return FaultInjector(spec, RandomStreams(seed), link=link)

    def test_certain_drop(self):
        inj = self.make(FaultSpec(drop_rate=0.999))
        copies, pkt, delay = inj.on_transmit(data_packet(), 0, 1)
        assert copies == 0
        assert inj.drops == 1
        assert pkt.seq in inj.faulted_seqs

    def test_certain_dup(self):
        inj = self.make(FaultSpec(dup_rate=0.999))
        copies, pkt, _ = inj.on_transmit(data_packet(), 0, 1)
        assert copies == 2
        assert inj.dups == 1

    def test_certain_corrupt_clones_the_packet(self):
        inj = self.make(FaultSpec(corrupt_rate=0.999))
        original = data_packet()
        copies, delivered, _ = inj.on_transmit(original, 0, 1)
        assert copies == 1
        assert delivered.corrupted and not original.corrupted
        assert delivered.seq == original.seq  # dedup key survives the clone
        assert delivered.size_bytes == original.size_bytes

    def test_control_packets_are_exempt(self):
        inj = self.make(FaultSpec(drop_rate=0.999))
        for ptype in (PacketType.HALT, PacketType.READY, PacketType.REFILL):
            pkt = Packet(ptype, src_node=0, dst_node=1, seq=0)
            copies, _, _ = inj.on_transmit(pkt, 0, 1)
            assert copies == 1
        assert inj.drops == 0

    def test_acks_are_faultable(self):
        inj = self.make(FaultSpec(drop_rate=0.999))
        ack = Packet(PacketType.ACK, src_node=0, dst_node=1, seq=0,
                     ack_seq=7)
        copies, _, _ = inj.on_transmit(ack, 0, 1)
        assert copies == 0

    def test_jitter_bounded_and_counted(self):
        spec = FaultSpec(jitter_rate=0.999, jitter_max=5e-6)
        inj = self.make(spec)
        for _ in range(50):
            _, _, delay = inj.on_transmit(data_packet(), 0, 1)
            assert 0.0 <= delay < spec.jitter_max
        assert inj.jitters >= 45  # rate is 0.999, not 1.0

    def test_bit_error_rate_feeds_corruption(self):
        link = LinkSpec(bit_error_rate=1e-4)  # ~1024B packet: p ~ 0.56
        inj = self.make(FaultSpec(), link=link)
        results = [inj.on_transmit(data_packet(), 0, 1) for _ in range(200)]
        assert inj.corruptions > 0
        assert any(pkt.corrupted for _, pkt, _ in results)

    def test_same_seed_same_decisions(self):
        spec = FaultSpec(drop_rate=0.1, dup_rate=0.1, corrupt_rate=0.1,
                         jitter_rate=0.2)

        def trial(seed):
            inj = self.make(spec, seed=seed)
            out = [inj.on_transmit(data_packet(), 0, 1)[0] for _ in range(300)]
            return out, inj.counters()

        assert trial(3) == trial(3)
        assert trial(3) != trial(4)

    def test_counters_dict(self):
        inj = self.make(FaultSpec(drop_rate=0.999))
        inj.on_transmit(data_packet(), 0, 1)
        c = inj.counters()
        assert c["drops"] == 1
        assert set(c) == {"drops", "dups", "corruptions", "jitters",
                          "sram_flips", "daemon_stalls", "daemon_crashes"}


class TestDaemonDecisions:
    def test_disabled_never_fires(self):
        inj = FaultInjector(FaultSpec(), RandomStreams(0))
        assert inj.daemon_disruption(0) == (None, 0.0)

    def test_rates_respected(self):
        spec = FaultSpec(daemon_stall_rate=0.5, daemon_crash_rate=0.4,
                         daemon_stall_max=0.001)
        inj = FaultInjector(spec, RandomStreams(0))
        kinds = {"stall": 0, "crash": 0, None: 0}
        for _ in range(500):
            kind, delay = inj.daemon_disruption(0)
            kinds[kind] += 1
            assert 0.0 <= delay < spec.daemon_stall_max or kind is None
        assert kinds["stall"] > 100 and kinds["crash"] > 100
        assert inj.daemon_stalls == kinds["stall"]
        assert inj.daemon_crashes == kinds["crash"]


class _SinkNic:
    """Just enough of a NIC for MyrinetFabric.register."""

    def __init__(self, node_id):
        self.node_id = node_id
        self.arrivals = []

    def deliver_event(self, event):
        self.arrivals.append(event._value)


class TestFabricIntegration:
    def rig(self, spec, seed=0):
        sim = Simulator()
        fabric = MyrinetFabric(sim, LinkSpec())
        nics = [_SinkNic(0), _SinkNic(1)]
        for nic in nics:
            fabric.register(nic)
        fabric.fault_injector = FaultInjector(spec, RandomStreams(seed))
        return sim, fabric, nics

    def test_drop_never_delivers(self):
        sim, fabric, nics = self.rig(FaultSpec(drop_rate=0.999))
        fabric.transmit(0, 1, data_packet())
        sim.run()
        assert nics[1].arrivals == []

    def test_dup_delivers_twice(self):
        sim, fabric, nics = self.rig(FaultSpec(dup_rate=0.999))
        pkt = data_packet()
        fabric.transmit(0, 1, pkt)
        sim.run()
        assert nics[1].arrivals == [pkt, pkt]

    def test_jitter_preserves_fifo(self):
        """Per-pair FIFO (the flush protocol's foundation) survives
        arbitrary jitter: deliveries stay in transmit order."""
        sim, fabric, nics = self.rig(
            FaultSpec(jitter_rate=0.9, jitter_max=50e-6))
        packets = [data_packet() for _ in range(40)]

        def sender():
            for pkt in packets:
                fabric.transmit(0, 1, pkt)
                yield sim.timeout(1e-6)

        sim.process(sender())
        sim.run()
        assert nics[1].arrivals == packets


class TestSramFlips:
    def test_flip_corrupts_a_queued_descriptor(self):
        from repro.fm.harness import FMNetwork

        sim = Simulator()
        net = FMNetwork(sim, 2)
        ep0, _ = net.create_job(1, [0, 1])
        # Park packets in the send queue with the card halted so the flip
        # process has descriptors to hit.
        net.nodes[0].nic.set_halt_bit()
        for i in range(8):
            ep0.context.send_queue.append(data_packet())
        spec = FaultSpec(sram_flip_rate=1e6)  # ~one flip per microsecond
        inj = FaultInjector(spec, RandomStreams(0))
        sim.process(inj.sram_flip_process(net.firmwares[0]))
        sim.run(until=1e-4)
        assert inj.sram_flips > 0
        assert net.nodes[0].nic.sram_faults == inj.sram_flips
        assert any(p.corrupted for p in ep0.context.send_queue.snapshot())

    def test_flips_land_only_in_installed_contexts(self):
        """A node with one installed and one switched-out context, both
        holding queued descriptors: flips hit only the installed one."""
        from repro.fm.config import FMConfig
        from repro.fm.context import ContextState
        from repro.fm.harness import FMNetwork

        sim = Simulator()
        net = FMNetwork(sim, 2, config=FMConfig(max_contexts=2))
        installed, _ = net.create_job(1, [0, 1])
        stored, _ = net.create_job(2, [0, 1])
        net.nodes[0].nic.set_halt_bit()
        for ep in (installed, stored):
            for i in range(8):
                ep.context.send_queue.append(data_packet())
        net.firmwares[0].remove_context(stored.context)
        assert stored.context.state is ContextState.STORED
        inj = FaultInjector(FaultSpec(sram_flip_rate=1e6), RandomStreams(0))
        sim.process(inj.sram_flip_process(net.firmwares[0]))
        sim.run(until=1e-4)
        assert any(p.corrupted
                   for p in installed.context.send_queue.snapshot())
        assert not any(p.corrupted
                       for p in stored.context.send_queue.snapshot())
