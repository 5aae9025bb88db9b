"""Unit tests for the LANai firmware: contexts, scanning, drops, control."""

import pytest

from repro.errors import HardwareError, PacketLossError, ProtocolError
from repro.fm.config import FMConfig
from repro.fm.context import ContextState, FMContext
from repro.fm.harness import FMNetwork
from repro.fm.packet import Packet, PacketType
from repro.fm.policies.static import FullBuffer, StaticPartition
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator()


def make_net(sim, nodes=2, strict=False, **cfg):
    defaults = dict(num_processors=max(nodes, 2))
    defaults.update(cfg)
    return FMNetwork(sim, nodes, config=FMConfig(**defaults), strict_no_loss=strict)


def make_ctx(sim, net, job_id, node_id, nodes=2, policy=None):
    rank_to_node = {r: r for r in range(nodes)}
    return FMContext.create(sim, node_id, job_id, node_id, rank_to_node,
                            net.config, policy or StaticPartition())


class TestContextManagement:
    def test_install_allocates_sram(self, sim):
        net = make_net(sim)
        fw = net.firmware(0)
        ctx = make_ctx(sim, net, 1, 0)
        free_before = net.node(0).nic.sram_free
        fw.install_context(ctx)
        expected = ctx.geometry.send_packets * net.config.packet_bytes
        assert net.node(0).nic.sram_free == free_before - expected
        assert ctx.state is ContextState.ACTIVE
        assert fw.installed_jobs == [1]

    def test_remove_frees_sram_and_stores(self, sim):
        net = make_net(sim)
        fw = net.firmware(0)
        ctx = make_ctx(sim, net, 1, 0)
        free_before = net.node(0).nic.sram_free
        fw.install_context(ctx)
        fw.remove_context(ctx)
        assert net.node(0).nic.sram_free == free_before
        assert ctx.state is ContextState.STORED

    def test_two_full_buffer_contexts_cannot_coexist(self, sim):
        """The whole point: a full-size send queue owns the card."""
        net = make_net(sim)
        fw = net.firmware(0)
        fw.install_context(make_ctx(sim, net, 1, 0, policy=FullBuffer()))
        with pytest.raises(HardwareError, match="over-commit"):
            fw.install_context(make_ctx(sim, net, 2, 0, policy=FullBuffer()))

    def test_static_partition_contexts_coexist(self, sim):
        net = make_net(sim, max_contexts=4)
        fw = net.firmware(0)
        for job in range(4):
            fw.install_context(make_ctx(sim, net, job, 0))
        assert fw.installed_jobs == [0, 1, 2, 3]

    def test_duplicate_job_rejected(self, sim):
        net = make_net(sim)
        fw = net.firmware(0)
        fw.install_context(make_ctx(sim, net, 1, 0))
        with pytest.raises(ProtocolError, match="already"):
            fw.install_context(make_ctx(sim, net, 1, 0))

    def test_wrong_node_rejected(self, sim):
        net = make_net(sim)
        ctx = make_ctx(sim, net, 1, 1)
        with pytest.raises(ProtocolError, match="node"):
            net.firmware(0).install_context(ctx)

    def test_remove_uninstalled_rejected(self, sim):
        net = make_net(sim)
        with pytest.raises(ProtocolError):
            net.firmware(0).remove_context(make_ctx(sim, net, 1, 0))


class TestDropBehaviour:
    def _inject_data(self, net, job_id=42):
        packet = Packet(PacketType.DATA, src_node=1, dst_node=0,
                        job_id=job_id, payload_bytes=100)
        net.fabric.transmit(1, 0, packet)
        return packet

    def test_packet_for_unknown_job_dropped(self, sim):
        net = make_net(sim)
        packet = self._inject_data(net)
        sim.run()
        assert net.firmware(0).dropped_packets == [packet]

    def test_strict_mode_raises_on_drop(self, sim):
        net = make_net(sim, strict=True)
        self._inject_data(net)
        with pytest.raises(PacketLossError):
            sim.run()

    def test_packet_for_stored_context_dropped(self, sim):
        net = make_net(sim)
        fw = net.firmware(0)
        ctx = make_ctx(sim, net, 7, 0)
        fw.install_context(ctx)
        fw.remove_context(ctx)
        self._inject_data(net, job_id=7)
        sim.run()
        assert len(fw.dropped_packets) == 1

    def test_unhandled_nic_control_raises(self, sim):
        net = make_net(sim)
        net.fabric.transmit(1, 0, Packet(PacketType.HALT, 1, 0))
        with pytest.raises(ProtocolError, match="no flush protocol"):
            sim.run()


class TestRoundRobinScan:
    def test_send_scan_alternates_between_contexts(self, sim):
        """Two contexts with queued packets: the LANai serves both."""
        net = make_net(sim, nodes=2, max_contexts=2)
        fw0 = net.firmware(0)
        order = []
        net.fabric.observer = lambda pkt, dep, arr: order.append(pkt.job_id)
        eps = {}
        for job in (1, 2):
            a, b = net.create_job(job, [0, 1], StaticPartition())
            eps[job] = a

        def fill(job):
            for _ in range(3):
                yield from eps[job].library.send(1, 200)

        p1 = sim.process(fill(1))
        p2 = sim.process(fill(2))
        sim.run(max_events=1_000_000)
        data_order = [j for j in order if j in (1, 2)]
        assert sorted(set(data_order)) == [1, 2]
        # Interleaving: not all of job 1 before all of job 2.
        first_two = data_order[:2]
        assert set(first_two) == {1, 2}

    def test_counters(self, sim):
        net = make_net(sim)
        a, b = net.create_job(1, [0, 1], FullBuffer())

        def tx():
            yield from a.library.send(1, 100)

        def rx():
            yield from b.library.extract_messages(1)

        sim.process(tx())
        done = sim.process(rx())
        sim.run_until_processed(done, max_events=100_000)
        assert net.firmware(0).packets_sent == 1
        assert net.firmware(1).packets_received == 1
        assert a.context.stats.packets_sent == 1
        assert b.context.stats.packets_received == 1

    def test_register_control_handler_validates_type(self, sim):
        net = make_net(sim)
        with pytest.raises(ProtocolError):
            net.firmware(0).register_control_handler(PacketType.DATA, lambda p: None)


class TestSendQueueKick:
    def test_switch_rounds_keep_one_kick_per_context(self, sim):
        net = make_net(sim)
        fw = net.firmware(0)
        ctx = make_ctx(sim, net, 1, 0)
        for _ in range(6):   # switched in and out every round
            fw.install_context(ctx)
            fw.remove_context(ctx)
        fw.install_context(ctx)
        assert ctx.send_queue._nonempty_callbacks == [fw.wake]

    def test_context_installed_after_forget_job_wakes_the_card(self, sim):
        net = make_net(sim)
        fw = net.firmware(0)
        old = make_ctx(sim, net, 1, 0)
        fw.install_context(old)
        fw.remove_context(old)
        fw.forget_job(1)
        new = make_ctx(sim, net, 1, 0)
        fw.install_context(new)
        sim.run()            # nothing to send: the card idles
        assert fw.packets_sent == 0
        new.send_queue.append(Packet(PacketType.DATA, 0, 1, job_id=1,
                                     payload_bytes=100))
        sim.run()
        assert fw.packets_sent == 1


class TestHaltBit:
    def test_halted_nic_parks_data_but_keeps_receiving(self, sim):
        net = make_net(sim)
        a, b = net.create_job(1, [0, 1], FullBuffer())
        net.node(0).nic.set_halt_bit()

        def tx():
            yield from a.library.send(1, 500)

        sim.process(tx())
        sim.run(until=0.005)
        assert a.context.send_queue.valid_packets == 1  # parked
        # The other direction still flows in.
        def tx_b():
            yield from b.library.send(0, 500)

        sim.process(tx_b())
        sim.run(until=0.010)
        assert a.context.recv_queue.valid_packets == 1
        # Clearing the bit releases the parked packet.
        net.node(0).nic.clear_halt_bit()
        net.firmware(0).wake()
        sim.run(until=0.015)
        assert a.context.send_queue.valid_packets == 0
        assert b.context.recv_queue.valid_packets == 1
