"""Tests for the PM/SCore-D-style ack/nack transport ablation."""

import pytest

from repro.alternatives.pm_nack import PMNetwork
from repro.fm.config import FMConfig
from repro.fm.policies.static import FullBuffer
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator()


def pm_pair(sim, **cfg):
    defaults = dict(num_processors=2)
    defaults.update(cfg)
    net = PMNetwork(sim, num_nodes=2, config=FMConfig(**defaults))
    a, b = net.create_job(1, [0, 1], FullBuffer())
    return net, a, b


class TestPMTransport:
    def test_p2p_delivery_without_credits(self, sim):
        net, a, b = pm_pair(sim)

        def tx():
            for _ in range(50):
                yield from a.library.send(1, 1200)

        def rx():
            yield from b.library.extract_messages(50)

        sim.process(tx())
        done = sim.process(rx())
        sim.run_until_processed(done, max_events=5_000_000)
        assert b.library.messages_received == 50
        # Every data packet was acknowledged.
        sim.run(until=sim.now + 0.01)
        assert a.firmware.outstanding == 0
        assert a.firmware.acks_received == 50

    def test_full_receive_queue_triggers_nack_and_resend(self, sim):
        # A 12-packet receive queue and a sender that bursts well past it.
        net, a, b = pm_pair(sim, recv_queue_packets=12, send_queue_packets=64)

        def tx():
            for _ in range(60):
                yield from a.library.send(1, 1400)

        def rx():
            # Start extracting only after the flood has begun.
            yield sim.timeout(0.002)
            yield from b.library.extract_messages(60)

        sim.process(tx())
        done = sim.process(rx())
        sim.run_until_processed(done, max_events=20_000_000)
        assert b.firmware.nacks_received == 0  # b sent nacks; a received them
        assert a.firmware.nacks_received > 0
        assert a.firmware.resends > 0
        assert b.library.messages_received == 60  # nothing ultimately lost

    def test_pm_flush_drains_outstanding(self, sim):
        net, a, b = pm_pair(sim)

        def tx():
            for _ in range(30):
                yield from a.library.send(1, 1400)

        sim.process(tx())
        results = {}

        def flusher():
            yield sim.timeout(0.0003)  # mid-stream
            results["duration"] = yield from net.pm_flush(0)

        proc = sim.process(flusher())
        # The receiver never extracts, but the NIC acks on DMA, so the
        # sender's outstanding count still drains.
        sim.run_until_processed(proc, max_events=5_000_000)
        assert a.firmware.outstanding == 0
        assert results["duration"] >= 0
        assert a.context.send_queue.valid_packets >= 0  # halted, parked

    def test_flush_on_idle_node_is_instant(self, sim):
        net, a, b = pm_pair(sim)
        results = {}

        def flusher():
            results["duration"] = yield from net.pm_flush(0)

        proc = sim.process(flusher())
        sim.run_until_processed(proc)
        assert results["duration"] == 0.0

    def test_release_restarts_sending(self, sim):
        net, a, b = pm_pair(sim)

        def tx():
            for _ in range(20):
                yield from a.library.send(1, 1400)

        def control():
            yield from net.pm_flush(0)
            yield sim.timeout(0.001)
            net.pm_release(0)

        def rx():
            yield from b.library.extract_messages(20)

        sim.process(tx())
        sim.process(control())
        done = sim.process(rx())
        sim.run_until_processed(done, max_events=5_000_000)
        assert b.library.messages_received == 20
