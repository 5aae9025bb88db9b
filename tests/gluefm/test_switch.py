"""Tests for the buffer-switch algorithms and the backing store."""

import pytest

from repro.errors import ContextSwitchError
from repro.fm.config import FMConfig
from repro.fm.context import FMContext
from repro.fm.packet import Packet, PacketType
from repro.fm.policies.static import FullBuffer
from repro.gluefm.backing import BackingStore
from repro.gluefm.switch import FullCopy, ValidOnlyCopy
from repro.hardware.memory import MemoryModel
from repro.hardware.node import HostNode
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator()


def make_ctx(sim, job_id=1, node_id=0, num_nodes=2):
    cfg = FMConfig(num_processors=num_nodes)
    rank_to_node = {r: r for r in range(num_nodes)}
    return FMContext.create(sim, node_id, job_id, node_id, rank_to_node,
                            cfg, FullBuffer())


def fill(queue, count, payload=1536):
    for i in range(count):
        queue.append(Packet(PacketType.DATA, 0, 1, payload_bytes=payload, msg_id=i))


class TestFullCopyCost:
    def test_cost_is_capacity_not_occupancy(self, sim):
        ctx = make_ctx(sim)
        memory = MemoryModel()
        algo = FullCopy()
        empty_cost, _ = algo.save_cost(ctx, memory, 200e6)
        fill(ctx.recv_queue, 100)
        full_cost, _ = algo.save_cost(ctx, memory, 200e6)
        assert empty_cost == full_cost

    def test_full_switch_within_paper_envelope(self, sim):
        """Save + restore of full buffers: < 85 ms / 17 M cycles (Sec 4.2)."""
        ctx = make_ctx(sim)
        memory = MemoryModel()
        algo = FullCopy()
        clock = 200e6
        save_s, _ = algo.save_cost(ctx, memory, clock)
        restore_s, _ = algo.restore_cost(ctx, memory, clock)
        total = save_s + restore_s
        assert total < 0.085
        assert total * clock < 17_000_000
        assert total > 0.050  # it is still a heavyweight operation

    def test_save_slower_than_restore(self, sim):
        """Reading the send queue off the card (WC read, 14 MB/s) makes the
        save the expensive direction."""
        ctx = make_ctx(sim)
        memory = MemoryModel()
        algo = FullCopy()
        save_s, _ = algo.save_cost(ctx, memory, 200e6)
        restore_s, _ = algo.restore_cost(ctx, memory, 200e6)
        assert save_s > restore_s


class TestValidOnlyCost:
    def test_empty_queues_cost_only_the_scan(self, sim):
        ctx = make_ctx(sim)
        memory = MemoryModel()
        algo = ValidOnlyCopy()
        seconds, nbytes = algo.save_cost(ctx, memory, 200e6)
        assert nbytes == 0
        expected_scan = memory.scan_time(252, 200e6) + memory.scan_time(668, 200e6)
        assert seconds == pytest.approx(expected_scan)

    def test_cost_scales_with_occupancy(self, sim):
        ctx = make_ctx(sim)
        memory = MemoryModel()
        algo = ValidOnlyCopy()
        fill(ctx.recv_queue, 10)
        low, _ = algo.save_cost(ctx, memory, 200e6)
        fill(ctx.recv_queue, 90)
        high, _ = algo.save_cost(ctx, memory, 200e6)
        assert high > low

    def test_improvement_vs_full_copy_on_typical_occupancy(self, sim):
        """Paper: the improved switch is ~an order of magnitude cheaper
        (<12.5 ms vs <85 ms) at realistic occupancies (~100 packets)."""
        ctx = make_ctx(sim)
        fill(ctx.send_queue, 20)
        fill(ctx.recv_queue, 100)
        memory = MemoryModel()
        clock = 200e6
        valid = ValidOnlyCopy()
        full = FullCopy()
        valid_total = (valid.save_cost(ctx, memory, clock)[0]
                       + valid.restore_cost(ctx, memory, clock)[0])
        full_total = (full.save_cost(ctx, memory, clock)[0]
                      + full.restore_cost(ctx, memory, clock)[0])
        assert valid_total < 0.0125           # < 12.5 ms
        assert valid_total * clock < 2_500_000  # < 2.5 M cycles
        assert full_total / valid_total > 5


class TestRun:
    def _run(self, sim, algo, out_ctx, in_ctx, backing, node):
        result = {}

        def proc():
            result["report"] = yield from algo.run(node, out_ctx, in_ctx, backing)

        p = sim.process(proc())
        sim.run_until_processed(p)
        return result["report"]

    def test_run_busies_cpu_and_reports(self, sim):
        node = HostNode(sim, 0)
        ctx_out = make_ctx(sim, job_id=1)
        ctx_in = make_ctx(sim, job_id=2)
        fill(ctx_out.recv_queue, 7)
        backing = BackingStore(now=lambda: sim.now)
        report = self._run(sim, ValidOnlyCopy(), ctx_out, ctx_in, backing, node)
        assert report.out_recv_valid == 7
        assert report.out_send_valid == 0
        assert report.out_job == 1 and report.in_job == 2
        assert sim.now == pytest.approx(report.duration)
        assert node.cpu.busy_time == pytest.approx(report.duration)
        assert report.cycles(200e6) == int(round(report.duration * 200e6))

    def test_idle_slots_cost_nothing_extra(self, sim):
        node = HostNode(sim, 0)
        backing = BackingStore(now=lambda: sim.now)
        report = self._run(sim, FullCopy(), None, None, backing, node)
        assert report.duration == 0.0
        assert report.bytes_copied == 0


class TestRestoreBilling:
    """Regression lock for the phantom-restore-charge bug: a context
    switched in for the first time has no saved image, so the restore
    copy must not be billed (under ValidOnlyCopy the phantom charge even
    scaled with whatever the fresh context's queues held)."""

    def _run(self, sim, algo, out_ctx, in_ctx, backing, node):
        result = {}

        def proc():
            result["report"] = yield from algo.run(node, out_ctx, in_ctx, backing)

        p = sim.process(proc())
        sim.run_until_processed(p)
        return result["report"]

    @pytest.mark.parametrize("algo_cls", [FullCopy, ValidOnlyCopy])
    def test_first_switch_in_bills_nothing(self, sim, algo_cls):
        node = HostNode(sim, 0)
        backing = BackingStore(now=lambda: sim.now)
        in_ctx = make_ctx(sim, job_id=7)
        fill(in_ctx.send_queue, 5)  # pre-queued traffic must not be billed
        fill(in_ctx.recv_queue, 5)
        report = self._run(sim, algo_cls(), None, in_ctx, backing, node)
        assert report.duration == 0.0
        assert report.bytes_copied == 0
        assert node.cpu.busy_time == 0.0
        assert not backing.has_image(7)  # nothing was "restored" either

    @pytest.mark.parametrize("algo_cls", [FullCopy, ValidOnlyCopy])
    def test_second_switch_in_bills_the_restore(self, sim, algo_cls):
        node = HostNode(sim, 0)
        backing = BackingStore(now=lambda: sim.now)
        ctx = make_ctx(sim, job_id=7)
        fill(ctx.send_queue, 5)
        # Round 1: switch the context out (saves an image)...
        self._run(sim, algo_cls(), ctx, None, backing, node)
        assert backing.has_image(7)
        saved_busy = node.cpu.busy_time
        # ...round 2: switch it back in — now the copy is real.
        algo = algo_cls()
        memory = node.memory
        expected, expected_bytes = algo.restore_cost(ctx, memory,
                                                     node.cpu.spec.clock_hz)
        report = self._run(sim, algo, None, ctx, backing, node)
        assert report.duration == pytest.approx(expected)
        assert report.bytes_copied == expected_bytes
        assert expected > 0.0
        assert node.cpu.busy_time == pytest.approx(saved_busy + expected)
        assert not backing.has_image(7)


class TestBackingStore:
    def test_save_then_restore(self, sim):
        ctx = make_ctx(sim)
        fill(ctx.send_queue, 3)
        store = BackingStore(now=lambda: sim.now)
        image = store.save(ctx)
        assert image.send_packets == 3 and image.recv_packets == 0
        restored = store.restore(ctx)
        assert restored is image
        assert not store.has_image(ctx.job_id)

    def test_double_save_rejected(self, sim):
        ctx = make_ctx(sim)
        store = BackingStore(now=lambda: sim.now)
        store.save(ctx)
        with pytest.raises(ContextSwitchError, match="twice"):
            store.save(ctx)

    def test_restore_without_save_rejected(self, sim):
        store = BackingStore(now=lambda: sim.now)
        with pytest.raises(ContextSwitchError, match="no saved image"):
            store.restore(make_ctx(sim))

    def test_tampering_detected(self, sim):
        """A packet appearing or vanishing while stored is an invariant
        violation — the no-loss property the paper claims."""
        ctx = make_ctx(sim)
        fill(ctx.send_queue, 2)
        store = BackingStore(now=lambda: sim.now)
        store.save(ctx)
        ctx.send_queue.try_pop()  # lose a packet behind the store's back
        with pytest.raises(ContextSwitchError, match="changed while stored"):
            store.restore(ctx)

    def test_stats_counters(self, sim):
        ctx = make_ctx(sim)
        store = BackingStore(now=lambda: sim.now)
        store.save(ctx)
        store.restore(ctx)
        assert store.saves == 1 and store.restores == 1
        assert ctx.stats.store_count == 1 and ctx.stats.restore_count == 1
