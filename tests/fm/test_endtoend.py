"""Integration tests: full FM stack over the simulated fabric."""

import pytest

from repro.errors import ConfigError, CreditError
from repro.fm.config import FMConfig
from repro.fm.harness import FMNetwork
from repro.fm.policies.static import FullBuffer, StaticPartition
from repro.sim import Simulator
from repro.units import mb_per_second


@pytest.fixture
def sim():
    return Simulator()


def p2p_network(sim, **cfg_overrides):
    defaults = dict(num_processors=2)
    defaults.update(cfg_overrides)
    config = FMConfig(**defaults)
    net = FMNetwork(sim, num_nodes=2, config=config, strict_no_loss=True)
    return net, config


class TestPointToPoint:
    def test_single_message_delivery(self, sim):
        net, config = p2p_network(sim)
        sender, receiver = net.create_job(1, [0, 1], FullBuffer())

        def tx():
            yield from sender.library.send(dst_rank=1, nbytes=1000)

        def rx():
            msg = yield from receiver.library.extract()
            assert msg is not None
            assert msg.src_rank == 0
            assert msg.nbytes == 1000

        sim.process(tx())
        done = sim.process(rx())
        sim.run_until_processed(done, max_events=10_000)

    def test_multi_fragment_message_reassembled(self, sim):
        net, config = p2p_network(sim)
        sender, receiver = net.create_job(1, [0, 1], FullBuffer())
        nbytes = config.payload_bytes * 3 + 17  # 4 fragments

        def tx():
            yield from sender.library.send(1, nbytes)

        def rx():
            msgs = yield from receiver.library.extract_messages(1)
            assert msgs[0].nbytes == nbytes

        sim.process(tx())
        done = sim.process(rx())
        sim.run_until_processed(done, max_events=100_000)
        assert receiver.library.messages_received == 1

    def test_many_messages_in_order_no_loss(self, sim):
        net, config = p2p_network(sim)
        sender, receiver = net.create_job(1, [0, 1], FullBuffer())
        count = 200

        def tx():
            for _ in range(count):
                yield from sender.library.send(1, 512)

        def rx():
            msgs = yield from receiver.library.extract_messages(count)
            assert [m.msg_id for m in msgs] == sorted(m.msg_id for m in msgs)

        sim.process(tx())
        done = sim.process(rx())
        sim.run_until_processed(done, max_events=10_000_000)
        assert net.total_dropped() == 0
        assert sender.library.messages_sent == count

    def test_credit_window_recycles(self, sim):
        """Send far more packets than C0: only possible if refills work."""
        net, config = p2p_network(sim)
        sender, receiver = net.create_job(1, [0, 1], FullBuffer())
        c0 = sender.context.geometry.initial_credits
        count = 4 * c0

        def tx():
            for _ in range(count):
                yield from sender.library.send(1, config.payload_bytes)

        def rx():
            yield from receiver.library.extract_messages(count)

        sim.process(tx())
        done = sim.process(rx())
        sim.run_until_processed(done, max_events=10_000_000)
        # Credits must eventually return toward C0 (some may be in flight
        # as a not-yet-applied refill, but never exceed it).
        sim.run()
        assert sender.context.credits.available(1) <= c0

    def test_zero_credit_config_raises(self, sim):
        # 8 contexts, 16 processors: the paper's "no communication" point.
        # The default policy now refuses to build the geometry at all.
        config = FMConfig(max_contexts=8, num_processors=16)
        net = FMNetwork(sim, num_nodes=2, config=config)
        with pytest.raises(ConfigError, match="zero credit window"):
            net.create_job(1, [0, 1], StaticPartition())

    def test_zero_credit_report_mode_keeps_legacy_stall(self, sim):
        # "report" mode preserves the legacy geometry: C0 = 0 and the
        # first send dies on CreditError (the behaviour figure 5 plots).
        config = FMConfig(max_contexts=8, num_processors=16)
        net = FMNetwork(sim, num_nodes=2, config=config)
        sender, receiver = net.create_job(
            1, [0, 1], StaticPartition(on_zero_credit="report"))
        assert sender.context.geometry.initial_credits == 0

        def tx():
            yield from sender.library.send(1, 100)

        proc = sim.process(tx())
        with pytest.raises(CreditError):
            sim.run_until_processed(proc)

    def test_bidirectional_traffic_piggybacks(self, sim):
        net, config = p2p_network(sim)
        a, b = net.create_job(1, [0, 1], FullBuffer())
        rounds = 60

        def ping(lib, peer):
            for _ in range(rounds):
                yield from lib.send(peer, 800)
                yield from lib.extract_messages(1)

        pa = sim.process(ping(a.library, 1))
        pb = sim.process(ping(b.library, 0))
        sim.run(max_events=10_000_000)
        assert pa.processed and pb.processed
        piggy = (a.context.credits.refills_piggybacked
                 + b.context.credits.refills_piggybacked)
        assert piggy > 0, "reverse data traffic should piggyback refills"


class TestBandwidthShape:
    """Coarse sanity on the performance model before the real experiments."""

    def _measure(self, policy, max_contexts, nbytes=1536, count=300):
        sim = Simulator()
        config = FMConfig(max_contexts=max_contexts, num_processors=16)
        net = FMNetwork(sim, num_nodes=2, config=config, strict_no_loss=True)
        sender, receiver = net.create_job(1, [0, 1], policy)
        t0 = {}

        def tx():
            t0["start"] = sim.now
            for _ in range(count):
                yield from sender.library.send(1, nbytes)

        def rx():
            yield from receiver.library.extract_messages(count)

        sim.process(tx())
        done = sim.process(rx())
        try:
            sim.run_until_processed(done, max_events=50_000_000)
        except CreditError:
            return 0.0
        return mb_per_second(count * nbytes, sim.now - t0["start"])

    def test_single_context_near_pio_ceiling(self):
        bw = self._measure(StaticPartition(), max_contexts=1)
        assert 50 < bw < 85, f"1-context bandwidth {bw:.1f} MB/s out of range"

    def test_bandwidth_collapses_with_contexts(self):
        # "report" mode lets the n=8 zero-credit point run (and return 0.0)
        # instead of raising at job creation.
        legacy = lambda: StaticPartition(on_zero_credit="report")
        bw1 = self._measure(legacy(), max_contexts=1)
        bw2 = self._measure(legacy(), max_contexts=2)
        bw4 = self._measure(legacy(), max_contexts=4)
        bw8 = self._measure(legacy(), max_contexts=8)
        assert bw1 > bw2 > bw4 > bw8
        assert bw8 == 0.0  # paper: no communication at 8 contexts
        assert bw4 < 0.5 * bw1

    def test_full_buffer_immune_to_context_count(self):
        bw1 = self._measure(FullBuffer(), max_contexts=1)
        bw8 = self._measure(FullBuffer(), max_contexts=8)
        assert bw8 > 0.85 * bw1


class TestAllToAll:
    def test_four_node_alltoall_no_loss(self, sim):
        config = FMConfig(num_processors=4)
        net = FMNetwork(sim, num_nodes=4, config=config, strict_no_loss=True)
        eps = net.create_job(1, [0, 1, 2, 3], FullBuffer())
        rounds = 15

        def worker(ep):
            others = [r for r in range(4) if r != ep.rank]
            for _ in range(rounds):
                for peer in others:
                    yield from ep.library.send(peer, 1000)
                yield from ep.library.extract_messages(len(others))

        procs = [sim.process(worker(ep)) for ep in eps]
        sim.run(max_events=50_000_000)
        assert all(p.processed for p in procs)
        assert net.total_dropped() == 0
        for ep in eps:
            assert ep.library.messages_received == rounds * 3


class TestGrmCmBaseline:
    def test_stock_initialization_protocol(self, sim):
        """Both processes register via GRM/CM, then communicate."""
        from repro.fm.cm import ContextManager
        from repro.fm.grm import GlobalResourceManager

        config = FMConfig(num_processors=2, max_contexts=2)
        net = FMNetwork(sim, num_nodes=2, config=config, strict_no_loss=True)
        grm = GlobalResourceManager(sim, net.control_net)
        cms = [ContextManager(sim, net.node(i), net.firmware(i), net.control_net,
                              config) for i in range(2)]
        results = {}

        def app(node_id):
            ep = yield from cms[node_id].fm_initialize("myjob", [0, 1])
            results[node_id] = ep
            if ep.rank == 0:
                yield from ep.library.send(1, 500)
            else:
                msgs = yield from ep.library.extract_messages(1)
                results["msg"] = msgs[0]

        procs = [sim.process(app(i)) for i in range(2)]
        sim.run(max_events=1_000_000)
        assert all(p.processed for p in procs)
        assert results[0].rank == 0 and results[1].rank == 1
        assert results["msg"].nbytes == 500
        assert grm.registrations == 2
        assert net.total_dropped() == 0

    def test_cm_slot_exhaustion(self, sim):
        from repro.errors import AllocationError
        from repro.fm.cm import ContextManager

        config = FMConfig(num_processors=2, max_contexts=1)
        net = FMNetwork(sim, num_nodes=2, config=config)
        cm = ContextManager(sim, net.node(0), net.firmware(0), net.control_net, config)
        cm.allocate_context(1, 0, {0: 0, 1: 1})
        with pytest.raises(AllocationError):
            cm.allocate_context(2, 0, {0: 0, 1: 1})
