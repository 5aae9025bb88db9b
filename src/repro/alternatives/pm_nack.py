"""PM/SCore-D-style transport: acks and nacks instead of credits.

"PM uses nack messages and resends when there is no space in the receive
buffer, rather than relying on credits.  Thus there is no need to send
special control messages in order to flush the network: each node simply
stops transmitting, and then waits until it receives acks or nacks for
all outstanding packets" (Section 5).

Differences from FM embodied here:

- senders never block on credits — the only back-pressure is the local
  send queue and the nack/resend loop;
- the receiving NIC acknowledges every data packet (ACK) or rejects it
  when the receive queue is full (NACK), in which case the sending NIC
  re-enqueues the packet after a backoff;
- flushing is *local*: set the halt bit and wait for the outstanding-ack
  counter to reach zero (:meth:`PMFirmware.drain`) — no halt broadcast,
  no counting peers.

The ablation benchmarks compare (a) p2p bandwidth with the always-on ack
traffic against credit-based FM and (b) flush latency against the halt
broadcast protocol as the cluster grows.

**Relation to** :mod:`repro.faults.strategies` **(deliberately separate).**
The ``nack`` reliability strategy (:class:`~repro.faults.strategies.nack.
NackSelective`) also sends NACK packets, but the two are different layers
answering different questions and must not be merged:

- *This module is a transport ablation*: it **replaces** FM's credit flow
  control.  NACK here means "receive queue full, resend later" — it is
  back-pressure, sent even on a perfect network, and flushing becomes
  local ack-drain (the Section 5 claim under test).
- *The strategy is a fault-tolerance layer*: it sits **on top of** the
  credit-based FM transport, whose credits guarantee receive space.
  NACK there means "a gap in the per-channel sequence — a packet the
  network lost"; on a lossless link it never fires at all.

``tests/faults/test_strategies.py`` pins the reconciliation: over a
lossless link, PM and FM-plus-NackSelective deliver identical payload
sequences — same messages, same per-pair order — while PM acks every
packet and the strategy sends zero NACKs.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.errors import ConfigError, ProtocolError
from repro.fm.api import FMLibrary
from repro.fm.config import FMConfig
from repro.fm.context import FMContext
from repro.fm.firmware import LanaiFirmware
from repro.fm.packet import Packet, PacketType
from repro.fm.policies.base import BufferPolicy
from repro.fm.policies.static import FullBuffer
from repro.hardware.link import LinkSpec
from repro.hardware.network import MyrinetFabric
from repro.hardware.node import HostNode, NodeSpec
from repro.sim.core import Event, Simulator
from repro.units import US


class PMFirmware(LanaiFirmware):
    """LANai control program speaking the ack/nack transport."""

    RESEND_BACKOFF = 50 * US

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.outstanding = 0                      # unacked data packets
        self._unacked: dict[int, Packet] = {}     # seq -> packet copy
        self._drain_waiters: list[Event] = []
        self.acks_received = 0
        self.nacks_received = 0
        self.resends = 0

    # ------------------------------------------------------------------ sending
    def _before_send(self, packet: Packet) -> None:
        if packet.ptype is PacketType.DATA:
            self.outstanding += 1
            self._unacked[packet.seq] = packet

    def drain(self) -> Event:
        """Event that fires once every outstanding packet is (n)acked.

        This *is* PM's network flush: no broadcast, purely local state.
        The caller should set the halt bit first so no new packets join.
        """
        ev = Event(self.sim)
        if self.outstanding == 0:
            ev.succeed()
        else:
            self._drain_waiters.append(ev)
        return ev

    def _settle(self, seq: int) -> Optional[Packet]:
        packet = self._unacked.pop(seq, None)
        if packet is None:
            raise ProtocolError(f"NIC {self.nic.node_id}: (n)ack for unknown seq {seq}")
        self.outstanding -= 1
        if self.outstanding == 0:
            waiters, self._drain_waiters = self._drain_waiters, []
            for ev in waiters:
                ev.succeed()
        return packet

    # ------------------------------------------------------------------ receiving
    # Per-packet processing time is slept by the base class's run loop
    # before these are called (fused with the context-switch interrupt
    # when one fires), and the DMA between _accept_data and _deliver_data
    # — don't sleep either again here.
    def _receive_control(self, packet: Packet) -> None:
        if packet.ptype is PacketType.ACK:
            self.acks_received += 1
            self._settle(packet.ack_seq)
            return
        if packet.ptype is PacketType.NACK:
            self.nacks_received += 1
            rejected = self._settle(packet.ack_seq)
            self.sim.process(self._resend(rejected),
                             name=f"pm-resend-{self.nic.node_id}")
            return
        # HALT/READY (unused by PM but harmless) and refills.
        super()._receive_control(packet)

    def _accept_data(self, packet: Packet) -> Optional[FMContext]:
        ctx = self._contexts.get(packet.job_id)
        if ctx is None or not ctx.is_active or ctx.recv_queue.is_full:
            # No room (or no context): nack so the sender retries.
            self._reply(packet, PacketType.NACK)
            return None
        return ctx

    def _deliver_data(self, ctx: FMContext, packet: Packet) -> None:
        ctx.recv_queue.append(packet)
        ctx.stats.packets_received += 1
        ctx.stats.bytes_received += packet.payload_bytes
        self._reply(packet, PacketType.ACK)
        for hook in self.data_delivery_hooks:
            hook(ctx, packet)

    def _reply(self, packet: Packet, ptype: PacketType) -> None:
        self._control_outbox.append(Packet(
            ptype, src_node=self.nic.node_id, dst_node=packet.src_node,
            seq=self.sim.next_seq(), job_id=packet.job_id,
            ack_seq=packet.seq,
        ))
        self.wake()

    def _resend(self, packet: Packet):
        """Re-enqueue a nacked packet after a backoff."""
        yield self.sim.timeout(self.RESEND_BACKOFF)
        ctx = self._job_registry.get(packet.job_id)
        if ctx is None:
            raise ProtocolError(f"resend for unknown job {packet.job_id}")
        clone = Packet(
            PacketType.DATA, src_node=packet.src_node, dst_node=packet.dst_node,
            seq=self.sim.next_seq(), job_id=packet.job_id,
            src_rank=packet.src_rank, dst_rank=packet.dst_rank,
            payload_bytes=packet.payload_bytes, msg_id=packet.msg_id,
            frag_index=packet.frag_index, frag_count=packet.frag_count,
        )
        self.resends += 1
        while ctx.send_queue.is_full:
            yield ctx.send_queue.wait_space()
        ctx.send_queue.append(clone)
        self.wake()


class PMLibrary(FMLibrary):
    """Host library without credits: only queue space gates the sender."""

    def send(self, dst_rank: int, nbytes: int):
        ctx = self.context
        if nbytes < 0:
            raise ConfigError(f"negative message size {nbytes}")
        if dst_rank == ctx.rank:
            raise ConfigError("PM does not support self-sends")
        dst_node = ctx.node_of_rank(dst_rank)
        cfg = self.config
        nfrags = cfg.packets_for(nbytes)
        msg_id = self.sim.next_msg_id()

        yield self.host.cpu.busy(cfg.host_msg_overhead)
        remaining = nbytes
        for index in range(nfrags):
            payload = min(remaining, cfg.payload_bytes)
            yield self.host.cpu.busy(cfg.host_packet_overhead + payload / cfg.pio_rate)
            while ctx.send_queue.is_full:
                yield ctx.send_queue.wait_space()
            ctx.send_queue.append(Packet(
                PacketType.DATA, src_node=ctx.node_id, dst_node=dst_node,
                seq=self.sim.next_seq(), job_id=ctx.job_id, src_rank=ctx.rank,
                dst_rank=dst_rank,
                payload_bytes=payload, msg_id=msg_id,
                frag_index=index, frag_count=nfrags,
            ))
            remaining -= payload
        self.messages_sent += 1
        self.bytes_sent += nbytes

    def extract(self):
        """Consume one packet; no credit bookkeeping, no refills."""
        ctx = self.context
        cfg = self.config
        while True:
            packet = ctx.recv_queue.try_pop()
            if packet is not None:
                break
            yield ctx.recv_queue.wait_nonempty()
        yield self.host.cpu.busy(
            cfg.extract_packet_overhead + packet.payload_bytes / cfg.extract_copy_rate
        )
        key = (packet.src_rank, packet.msg_id)
        seen = self._reassembly.get(key, 0) + 1
        if seen < packet.frag_count:
            self._reassembly[key] = seen
            return None
        self._reassembly.pop(key, None)
        nbytes = (packet.frag_count - 1) * cfg.payload_bytes + packet.payload_bytes
        self.messages_received += 1
        self.bytes_received += nbytes
        from repro.fm.api import Message

        return Message(src_rank=packet.src_rank, nbytes=nbytes,
                       msg_id=packet.msg_id, completed_at=self.sim.now)


class PMEndpoint:
    """One rank under the PM transport."""

    def __init__(self, context: FMContext, library: PMLibrary,
                 firmware: PMFirmware):
        self.context = context
        self.library = library
        self.firmware = firmware

    @property
    def rank(self) -> int:
        return self.context.rank


class PMNetwork:
    """A bare network of PM-firmware nodes (mirror of fm.harness.FMNetwork)."""

    def __init__(self, sim: Simulator, num_nodes: int,
                 config: FMConfig = FMConfig(),
                 node_spec: NodeSpec = NodeSpec(), link: LinkSpec = LinkSpec()):
        if num_nodes < 1:
            raise ConfigError(f"need at least one node, got {num_nodes}")
        self.sim = sim
        self.config = config
        self.fabric = MyrinetFabric(sim, link)
        self.nodes: list[HostNode] = []
        self.firmwares: dict[int, PMFirmware] = {}
        for node_id in range(num_nodes):
            node = HostNode(sim, node_id, node_spec)
            self.nodes.append(node)
            self.fabric.register(node.nic)
            self.firmwares[node_id] = PMFirmware(sim, node.nic, self.fabric, config)

    def create_job(self, job_id: int, node_ids: Sequence[int],
                   policy: BufferPolicy = FullBuffer()) -> list[PMEndpoint]:
        rank_to_node = {rank: node for rank, node in enumerate(node_ids)}
        endpoints = []
        for rank, node_id in rank_to_node.items():
            ctx = FMContext.create(self.sim, node_id, job_id, rank, rank_to_node,
                                   self.config, policy)
            self.firmwares[node_id].install_context(ctx)
            lib = PMLibrary(self.nodes[node_id], self.firmwares[node_id], ctx)
            endpoints.append(PMEndpoint(ctx, lib, self.firmwares[node_id]))
        return endpoints

    def pm_flush(self, node_id: int):
        """PM's flush on one node: halt locally, drain outstanding acks.

        A generator returning the drain duration.
        """
        firmware = self.firmwares[node_id]
        start = self.sim.now
        firmware.nic.set_halt_bit()
        yield firmware.drain()
        return self.sim.now - start

    def pm_release(self, node_id: int) -> None:
        firmware = self.firmwares[node_id]
        firmware.nic.clear_halt_bit()
        firmware.wake()
