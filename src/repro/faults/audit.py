"""End-to-end invariant auditor.

Turns the paper's asserted safety properties into falsifiable checks.
The auditor taps every firmware's send and delivery hooks while the
simulation runs, then — once the cluster has quiesced — verifies, per
channel (job, source node, destination node):

- **no loss**: every DATA seq that left a send queue was delivered;
- **no duplication**: no seq was delivered to an application twice;
- **FIFO order**: deliveries happen in send order, excusing exactly the
  seqs that were retransmitted or destroyed on first transmission (a
  recovered packet legitimately arrives late);

plus two cluster-wide ledgers:

- **credit conservation**: for every directed rank pair, C0 equals
  available + committed-in-send-queue + sitting-in-recv-queue +
  consumed-unreported + returning-in-queued-refills (the quantitative
  form of "a single packet loss can mess up the credit counters");
- **backing-store integrity**: any residual saved image still matches
  the stored context's actual queue contents.

The report contains **counts only, never raw sequence numbers**: the
counts are the verdict, and they merge across the runs of a campaign by
addition (:meth:`AuditReport.publish`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Set

from repro.fm.context import FMContext
from repro.fm.packet import PacketType


@dataclass(frozen=True)
class AuditReport:
    """Quiescence-time verdict (counts only — see module docstring)."""

    packets_sent: int          # unique DATA seqs that left a send queue
    packets_delivered: int     # deliveries into application receive queues
    lost: int                  # sent but never delivered
    duplicated: int            # delivered more than once
    fifo_violations: int       # channels whose in-order deliveries misordered
    reordered_by_retransmit: int  # deliveries excused from the FIFO check
    credit_violations: int     # directed rank pairs with a non-zero leak
    backing_violations: int    # residual images not matching queue contents
    channels: int
    retransmits: int
    excused_channels: int = 0  # channels of failed jobs, skipped entirely

    @property
    def ok(self) -> bool:
        return (self.lost == 0 and self.duplicated == 0
                and self.fifo_violations == 0
                and self.credit_violations == 0
                and self.backing_violations == 0)

    def to_dict(self) -> dict:
        return {
            "packets_sent": self.packets_sent,
            "packets_delivered": self.packets_delivered,
            "lost": self.lost,
            "duplicated": self.duplicated,
            "fifo_violations": self.fifo_violations,
            "reordered_by_retransmit": self.reordered_by_retransmit,
            "credit_violations": self.credit_violations,
            "backing_violations": self.backing_violations,
            "channels": self.channels,
            "retransmits": self.retransmits,
            "excused_channels": self.excused_channels,
            "ok": self.ok,
        }

    def publish(self, registry, prefix: str = "audit") -> None:
        """Fold this report into a telemetry MetricsRegistry.

        Counts become counters; the boolean verdict becomes a 0/1 gauge
        (``audit.ok``).  Gauges merge by addition, so in a merged
        snapshot ``audit.ok`` counts the *passing* reports — all clean
        iff it equals ``audit.reports``.
        """
        for name, value in self.to_dict().items():
            if name == "ok":
                continue
            registry.counter(f"{prefix}.{name}").inc(value)
        registry.counter(f"{prefix}.reports").inc(1)
        registry.gauge(f"{prefix}.ok").add(1 if self.ok else 0)


def _credits_in_queue(queue, toward_node: int) -> tuple:
    committed = 0
    returning = 0
    for pkt in queue.snapshot():
        if pkt.dst_node != toward_node:
            continue
        if pkt.ptype is PacketType.DATA:
            committed += 1
            returning += pkt.piggyback_refill
        elif pkt.ptype is PacketType.REFILL:
            returning += pkt.refill_credits
    return committed, returning


def credit_leaks(contexts: Mapping[int, FMContext]) -> dict:
    """Per directed (sender_rank, receiver_rank) credit shortfall.

    ``contexts`` maps rank -> context for one quiesced job.  Returns only
    non-zero leaks; empty means perfect conservation.  (The production
    twin of the test suite's ``audit_credit_leaks`` helper.)
    """
    leaks: dict = {}
    for src_rank, src_ctx in contexts.items():
        for dst_rank, dst_ctx in contexts.items():
            if src_rank == dst_rank:
                continue
            src_node = src_ctx.node_id
            dst_node = dst_ctx.node_id
            # The live window, not the creation-time geometry: dynamic
            # buffer policies retarget C0 at gang switches, and the
            # conservation identity holds against whatever the window is
            # *now* (set_window moves C0 and the available term in
            # lockstep).  For static policies the two are identical.
            c0 = src_ctx.credits.c0
            available = src_ctx.credits.available(dst_node)
            committed, _ = _credits_in_queue(src_ctx.send_queue, dst_node)
            in_recv = sum(1 for p in dst_ctx.recv_queue.snapshot()
                          if p.src_node == src_node
                          and p.ptype is PacketType.DATA)
            unreported = dst_ctx.credits.consumed_unreported(src_node)
            _, returning = _credits_in_queue(dst_ctx.send_queue, src_node)
            leak = c0 - (available + committed + in_recv + unreported + returning)
            if leak != 0:
                leaks[(src_rank, dst_rank)] = leak
    return leaks


class InvariantAuditor:
    """Observes a cluster's firmwares and issues an :class:`AuditReport`."""

    def __init__(self):
        # channel key -> seqs in first-transmission order
        self._sent: dict = {}
        self._sent_seen: Set[int] = set()
        # channel key -> seqs in delivery order (duplicates included)
        self._delivered: dict = {}

    # ------------------------------------------------------------------ taps
    def attach(self, firmwares: Iterable) -> None:
        """Register send/delivery taps on every firmware (before traffic)."""
        for fw in firmwares:
            fw.data_send_hooks.append(self._on_send)
            fw.data_delivery_hooks.append(self._on_delivery)

    def _on_send(self, ctx, packet) -> None:
        seq = packet.seq
        if seq in self._sent_seen:
            return  # a retransmission, not a new packet
        self._sent_seen.add(seq)
        key = (packet.job_id, packet.src_node, packet.dst_node)
        self._sent.setdefault(key, []).append(seq)

    def _on_delivery(self, ctx, packet) -> None:
        key = (packet.job_id, packet.src_node, packet.dst_node)
        self._delivered.setdefault(key, []).append(packet.seq)

    # ------------------------------------------------------------------ verdict
    def report(self, excused_seqs: Optional[Set[int]] = None,
               job_contexts: Optional[Mapping[int, Mapping[int, FMContext]]] = None,
               backings: Optional[Iterable] = None,
               stored_contexts: Optional[Mapping[int, FMContext]] = None,
               retransmits: int = 0,
               excused_jobs: Optional[Set[int]] = None) -> AuditReport:
        """Run every check against the quiesced state.

        ``excused_seqs`` are seqs whose first wire copy was destroyed or
        that were retransmitted — late delivery of exactly these is the
        reliability layer working, not a FIFO violation.
        ``job_contexts`` maps job_id -> (rank -> context) for the credit
        ledger; ``backings``/``stored_contexts`` (job_id -> context) feed
        the residual-image integrity check.  ``excused_jobs`` are jobs
        that lost a rank to an evicted node: their channels legitimately
        show loss (packets addressed to the corpse), so the per-channel
        checks skip them entirely and report them as ``excused_channels``
        — surviving jobs still get the full no-loss/no-dup/FIFO verdict.
        """
        excused = excused_seqs if excused_seqs is not None else set()
        dead_jobs = excused_jobs if excused_jobs is not None else set()
        lost = duplicated = fifo_violations = reordered = 0
        delivered_total = 0
        excused_channels = 0
        for key, sent in self._sent.items():
            if key[0] in dead_jobs:
                excused_channels += 1
                continue
            delivered = self._delivered.get(key, [])
            delivered_total += len(delivered)
            delivered_set = set(delivered)
            lost += sum(1 for s in sent if s not in delivered_set)
            duplicated += len(delivered) - len(delivered_set)
            in_order = [s for s in delivered if s not in excused]
            reordered += len(delivered) - len(in_order)
            expected = [s for s in sent
                        if s in delivered_set and s not in excused]
            if in_order != expected:
                fifo_violations += 1
        # Deliveries on channels with no recorded send = phantom packets.
        for key, delivered in self._delivered.items():
            if key not in self._sent and key[0] not in dead_jobs:
                delivered_total += len(delivered)
                duplicated += len(delivered)

        credit_violations = 0
        if job_contexts:
            for contexts in job_contexts.values():
                credit_violations += len(credit_leaks(contexts))

        backing_violations = 0
        if backings is not None:
            ctx_of = stored_contexts or {}
            for backing in backings:
                for job_id in list(getattr(backing, "_images", {})):
                    image = backing.image_of(job_id)
                    ctx = ctx_of.get(job_id)
                    if ctx is None:
                        backing_violations += 1  # orphaned image
                        continue
                    send_now = tuple(p.seq for p in ctx.send_queue.snapshot())
                    recv_now = tuple(p.seq for p in ctx.recv_queue.snapshot())
                    if (send_now != image.send_seqs
                            or recv_now != image.recv_seqs):
                        backing_violations += 1

        return AuditReport(
            packets_sent=len(self._sent_seen),
            packets_delivered=delivered_total,
            lost=lost,
            duplicated=duplicated,
            fifo_violations=fifo_violations,
            reordered_by_retransmit=reordered,
            credit_violations=credit_violations,
            backing_violations=backing_violations,
            channels=len(self._sent) - excused_channels,
            retransmits=retransmits,
            excused_channels=excused_channels,
        )
