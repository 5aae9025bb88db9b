"""The host-side FM library linked into each application process.

``FMLibrary`` is what the paper calls "a library that is linked to user
applications and contains an initialization routine and the basic
routines for sending and receiving messages".  ``send`` and ``extract``
are generators: application workloads are simulated processes and yield
through these calls, which charge host CPU time (the ~80 MB/s
write-combining PIO write is the sender-side bottleneck that caps peak
bandwidth) and interact with the context's queues and credits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigError, CreditError
from repro.fm.context import FMContext
from repro.fm.firmware import LanaiFirmware
from repro.fm.packet import Packet, PacketType
from repro.hardware.node import HostNode
from repro.sim.trace import NullTracer, Tracer

_DATA = PacketType.DATA


@dataclass(frozen=True)
class Message:
    """A fully reassembled application message."""

    src_rank: int
    nbytes: int
    msg_id: int
    completed_at: float


class FMLibrary:
    """One process's view of FM: FM_send / FM_extract over its context."""

    def __init__(self, host: HostNode, firmware: LanaiFirmware, context: FMContext,
                 tracer: Optional[Tracer] = None):
        if firmware.nic.node_id != host.node_id:
            raise ConfigError("FMLibrary host and firmware NIC must be the same node")
        self.sim = host.sim
        self.host = host
        self.firmware = firmware
        self.context = context
        self.config = context.config
        self.tracer = tracer if tracer is not None else NullTracer()
        self._reassembly: dict[tuple[int, int], int] = {}  # (src_rank,msg_id) -> frags seen
        # Hot-path constants: FMConfig is frozen, so resolve the derived
        # geometry (a property) and the per-call costs once per library.
        cfg = self.config
        self._payload_cap = cfg.payload_bytes
        # statistics
        self.messages_sent = 0
        self.messages_received = 0
        self.bytes_sent = 0
        self.bytes_received = 0

    # ------------------------------------------------------------------ sending
    def send(self, dst_rank: int, nbytes: int):
        """FM_send: fragment, acquire credits, PIO into the send queue.

        A generator — drive it with ``yield from`` inside a simulated
        process.  Blocks (simulated) on credits and on send-queue space.
        Raises :class:`CreditError` immediately when the credit window is
        zero, i.e. when this buffer partitioning cannot communicate at all.
        """
        ctx = self.context
        if nbytes < 0:
            raise ConfigError(f"negative message size {nbytes}")
        if dst_rank == ctx.rank:
            raise ConfigError("FM does not support self-sends")
        if ctx.geometry.initial_credits == 0:
            raise CreditError(
                "zero credits per peer: no communication possible "
                f"(C0=0 for n={self.config.max_contexts} contexts)"
            )
        dst_node = ctx.node_of_rank(dst_rank)
        cfg = self.config
        payload_cap = self._payload_cap
        sim = self.sim
        msg_id = sim.next_msg_id()
        next_seq = sim.next_seq

        # Hot path: the loop body runs once per packet in every bandwidth
        # experiment, so loop invariants live in locals, the send-queue
        # fullness test reads the queue directly, and the host CPU's busy
        # accounting (HostCPU.busy) is inlined.
        send_queue = ctx.send_queue
        queued = send_queue._items
        credits = ctx.credits
        cpu = self.host.cpu
        src_node, job_id, src_rank = ctx.node_id, ctx.job_id, ctx.rank
        tracer = self.tracer
        # Causal-tracing gate, resolved once per message: off-run cost is
        # one attribute test.
        traced = tracer.enabled
        # == cfg.packets_for(nbytes): a zero-byte message is one packet.
        nfrags = -(-nbytes // payload_cap) or 1
        pio_rate = cfg.pio_rate
        packet_overhead = cfg.host_packet_overhead
        if traced:
            tracer.record("msg-start", node=src_node, job=job_id,
                          msg=msg_id, dst=dst_node, dst_rank=dst_rank,
                          nbytes=nbytes, frags=nfrags)
        # The per-message overhead is folded into the first fragment's
        # busy period: the host is continuously occupied across both, so
        # one sleep for the sum is timing-exact and saves an event.
        overhead = cfg.host_msg_overhead
        remaining = nbytes
        for index in range(nfrags):
            payload = remaining if remaining < payload_cap else payload_cap
            busy = overhead + packet_overhead + payload / pio_rate
            if busy < 0:
                raise ConfigError(f"negative busy time {busy}")
            cpu.busy_time += busy
            yield busy
            overhead = 0.0
            stall_start = -1.0
            while len(queued) >= send_queue.capacity:
                if traced and stall_start < 0.0:
                    stall_start = sim._now
                yield send_queue.wait_space()
            if stall_start >= 0.0:
                tracer.record("stall", node=src_node, job=job_id, msg=msg_id,
                              cause="buffer-full", dur=sim._now - stall_start)
            # Level-triggered credit wait with an atomic take on wakeup:
            # this process can be SIGSTOPped at any yield, and a taken
            # credit must always be accounted for by a visible queued
            # packet (the credit-conservation audits check exactly that).
            stall_start = -1.0
            while not credits.try_acquire_send(dst_node):
                if traced and stall_start < 0.0:
                    stall_start = sim._now
                yield credits.wait_send(dst_node)
            if stall_start >= 0.0:
                tracer.record("stall", node=src_node, job=job_id, msg=msg_id,
                              cause="credit", dur=sim._now - stall_start)
            # Positional: a keyword call costs as much again as the
            # construction itself.  (ptype, src_node, dst_node, seq,
            # job_id, src_rank, dst_rank, payload_bytes, msg_id,
            # frag_index, frag_count, piggyback_refill)
            packet = Packet(_DATA, src_node, dst_node, next_seq(), job_id,
                            src_rank, dst_rank, payload, msg_id, index, nfrags,
                            credits.take_piggyback(dst_node))
            send_queue.append(packet)
            if traced:
                tracer.record("pkt-enq", node=src_node, job=job_id,
                              msg=msg_id, frag=index, seq=packet.seq,
                              dst=dst_node)
            remaining -= payload

        self.messages_sent += 1
        self.bytes_sent += nbytes
        if tracer.enabled:
            tracer.record("msg-send", node=src_node, job=job_id,
                          dst_rank=dst_rank, nbytes=nbytes, msg_id=msg_id)

    # ------------------------------------------------------------------ receiving
    def extract(self):
        """FM_extract: consume one packet from the receive queue.

        A generator whose return value is the completed :class:`Message`
        if this packet finished one, else ``None``.  Blocks (simulated)
        until a packet is available.  Handles credit bookkeeping: the
        consume is recorded, and when the sender's credits (as seen from
        here) fall below the low-water mark an explicit refill control
        packet is emitted.
        """
        ctx = self.context
        cfg = self.config
        recv_queue = ctx.recv_queue
        # Level-triggered wait + atomic pop: the packet stays visible in
        # the queue until this process actually runs (SIGSTOP-safe).
        while not recv_queue._items:
            yield recv_queue.wait_nonempty()
        packet = recv_queue.try_pop()
        # Note the consume atomically with the dequeue (see credits.py).
        # CreditState.note_consumed and refill_due run inline, once per
        # packet.  The refill test must follow the copy-out sleep: a
        # piggyback sent meanwhile, or a window change while this process
        # is stopped, moves the count or the threshold.
        credits = ctx.credits
        consumed = credits._consumed
        src_node = packet.src_node
        consumed[src_node] += 1
        busy = cfg.extract_packet_overhead + packet.payload_bytes / cfg.extract_copy_rate
        if busy < 0:
            raise ConfigError(f"negative busy time {busy}")
        self.host.cpu.busy_time += busy
        yield busy

        if consumed[src_node] >= credits.refill_threshold:
            yield self.host.cpu.busy(cfg.refill_send_overhead)
            tracer = self.tracer
            traced = tracer.enabled
            stall_start = -1.0
            while ctx.send_queue.is_full:
                if traced and stall_start < 0.0:
                    stall_start = self.sim.now
                yield ctx.send_queue.wait_space()
            if stall_start >= 0.0:
                tracer.record("stall", node=ctx.node_id, job=ctx.job_id,
                              msg=-1, cause="refill-queue",
                              dur=self.sim.now - stall_start)
            refill = credits.take_refill(src_node)
            if refill:
                ctx.send_queue.append(Packet(
                    PacketType.REFILL,
                    src_node=ctx.node_id, dst_node=src_node,
                    seq=self.sim.next_seq(), job_id=ctx.job_id,
                    refill_credits=refill,
                ))

        frag_count = packet.frag_count
        if frag_count == 1:
            # Single-fragment fast path: no reassembly bookkeeping.
            nbytes = packet.payload_bytes
        else:
            key = (packet.src_rank, packet.msg_id)
            seen = self._reassembly.get(key, 0) + 1
            if seen < frag_count:
                self._reassembly[key] = seen
                return None
            del self._reassembly[key]
            nbytes = (frag_count - 1) * self._payload_cap + packet.payload_bytes
        self.messages_received += 1
        self.bytes_received += nbytes
        message = Message(src_rank=packet.src_rank, nbytes=nbytes,
                          msg_id=packet.msg_id, completed_at=self.sim._now)
        tracer = self.tracer
        if tracer.enabled:
            tracer.record("msg-recv", node=ctx.node_id, job=ctx.job_id,
                          src_rank=packet.src_rank, nbytes=nbytes,
                          msg=packet.msg_id, src=packet.src_node)
        return message

    def extract_messages(self, count: int):
        """Extract until ``count`` complete messages have been received."""
        messages = []
        while len(messages) < count:
            msg = yield from self.extract()
            if msg is not None:
                messages.append(msg)
        return messages

    @property
    def pending_packets(self) -> int:
        """Packets waiting in the receive queue right now."""
        return len(self.context.recv_queue)
