"""Unit tests for the invariant auditor.

The auditor is itself safety-critical test infrastructure, so each check
is exercised synthetically: packets are pushed through its send/delivery
taps by hand and the verdict is compared against the known ground truth.
"""

import pytest

from repro.faults.audit import AuditReport, InvariantAuditor, credit_leaks
from repro.fm.config import FMConfig
from repro.fm.context import FMContext
from repro.fm.packet import Packet, PacketType
from repro.fm.policies.static import FullBuffer
from repro.gluefm.backing import BackingStore
from repro.sim import Simulator


def pkt(src=0, dst=1, job=1):
    return Packet(PacketType.DATA, src_node=src, dst_node=dst, job_id=job,
                  payload_bytes=100)


def make_ctx(sim, job_id=1, node_id=0, num_nodes=2):
    cfg = FMConfig(num_processors=num_nodes)
    rank_to_node = {r: r for r in range(num_nodes)}
    return FMContext.create(sim, node_id, job_id, node_id, rank_to_node,
                            cfg, FullBuffer())


class TestChannelChecks:
    def test_clean_traffic_is_ok(self):
        a = InvariantAuditor()
        packets = [pkt() for _ in range(5)]
        for p in packets:
            a._on_send(None, p)
        for p in packets:
            a._on_delivery(None, p)
        r = a.report()
        assert r.ok
        assert r.packets_sent == 5 and r.packets_delivered == 5
        assert r.channels == 1

    def test_missing_delivery_is_loss(self):
        a = InvariantAuditor()
        packets = [pkt() for _ in range(3)]
        for p in packets:
            a._on_send(None, p)
        for p in packets[:2]:
            a._on_delivery(None, p)
        r = a.report()
        assert r.lost == 1 and not r.ok

    def test_double_delivery_is_duplication(self):
        a = InvariantAuditor()
        p = pkt()
        a._on_send(None, p)
        a._on_delivery(None, p)
        a._on_delivery(None, p)
        r = a.report()
        assert r.duplicated == 1 and not r.ok

    def test_retransmission_counts_one_send(self):
        a = InvariantAuditor()
        p = pkt()
        a._on_send(None, p)
        a._on_send(None, p)  # the wire retry is not a new packet
        a._on_delivery(None, p)
        r = a.report()
        assert r.packets_sent == 1 and r.ok

    def test_unexcused_reorder_is_fifo_violation(self):
        a = InvariantAuditor()
        p1, p2 = pkt(), pkt()
        a._on_send(None, p1)
        a._on_send(None, p2)
        a._on_delivery(None, p2)
        a._on_delivery(None, p1)
        r = a.report()
        assert r.fifo_violations == 1 and not r.ok

    def test_excused_reorder_is_the_reliability_layer_working(self):
        a = InvariantAuditor()
        p1, p2 = pkt(), pkt()
        a._on_send(None, p1)
        a._on_send(None, p2)
        a._on_delivery(None, p2)
        a._on_delivery(None, p1)  # p1 was dropped and retransmitted
        r = a.report(excused_seqs={p1.seq})
        assert r.fifo_violations == 0 and r.ok
        assert r.reordered_by_retransmit == 1

    def test_channels_are_independent(self):
        a = InvariantAuditor()
        f1, f2 = pkt(src=0, dst=1), pkt(src=0, dst=2)
        a._on_send(None, f1)
        a._on_send(None, f2)
        # Cross-channel interleaving is NOT a FIFO violation.
        a._on_delivery(None, f2)
        a._on_delivery(None, f1)
        r = a.report()
        assert r.channels == 2 and r.ok

    def test_phantom_delivery_counts_as_duplication(self):
        a = InvariantAuditor()
        a._on_delivery(None, pkt())  # delivered but never sent
        r = a.report()
        assert r.duplicated == 1 and not r.ok

    def test_report_to_dict_roundtrip(self):
        r = InvariantAuditor().report()
        d = r.to_dict()
        assert d["ok"] is True
        assert isinstance(r, AuditReport)
        assert set(d) == {"packets_sent", "packets_delivered", "lost",
                          "duplicated", "fifo_violations",
                          "reordered_by_retransmit", "credit_violations",
                          "backing_violations", "channels",
                          "excused_channels", "retransmits", "ok"}


class TestCreditLedger:
    def test_untouched_contexts_balance(self):
        sim = Simulator()
        contexts = {0: make_ctx(sim, node_id=0), 1: make_ctx(sim, node_id=1)}
        assert credit_leaks(contexts) == {}

    def test_vanished_credit_is_a_leak(self):
        sim = Simulator()
        contexts = {0: make_ctx(sim, node_id=0), 1: make_ctx(sim, node_id=1)}
        # A credit spent with no packet anywhere to show for it — exactly
        # what an unrecovered wire drop looks like at quiescence.
        assert contexts[0].credits.try_acquire_send(1)
        leaks = credit_leaks(contexts)
        assert leaks == {(0, 1): 1}

    def test_leak_feeds_report(self):
        sim = Simulator()
        contexts = {0: make_ctx(sim, node_id=0), 1: make_ctx(sim, node_id=1)}
        contexts[0].credits.try_acquire_send(1)
        r = InvariantAuditor().report(job_contexts={1: contexts})
        assert r.credit_violations == 1 and not r.ok


class TestBackingIntegrity:
    def fill(self, queue, count):
        for _ in range(count):
            queue.append(pkt())

    def test_intact_residual_image_passes(self):
        sim = Simulator()
        ctx = make_ctx(sim)
        self.fill(ctx.send_queue, 3)
        backing = BackingStore(now=lambda: sim.now)
        backing.save(ctx)
        r = InvariantAuditor().report(backings=[backing],
                                      stored_contexts={ctx.job_id: ctx})
        assert r.backing_violations == 0 and r.ok

    def test_tampered_stored_queue_is_a_violation(self):
        sim = Simulator()
        ctx = make_ctx(sim)
        self.fill(ctx.send_queue, 3)
        backing = BackingStore(now=lambda: sim.now)
        backing.save(ctx)
        ctx.send_queue.try_pop()  # a packet vanishes while stored
        r = InvariantAuditor().report(backings=[backing],
                                      stored_contexts={ctx.job_id: ctx})
        assert r.backing_violations == 1 and not r.ok

    def test_orphaned_image_is_a_violation(self):
        sim = Simulator()
        ctx = make_ctx(sim)
        backing = BackingStore(now=lambda: sim.now)
        backing.save(ctx)
        r = InvariantAuditor().report(backings=[backing], stored_contexts={})
        assert r.backing_violations == 1 and not r.ok
