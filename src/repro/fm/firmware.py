"""The LANai control program.

The LANai is "a dual context processor.  Most of the time is spent in the
send context, which keeps scanning the different processes' send queues
for new packets to send ... When a packet arrives, the processor receives
an interrupt, transferring control to the receiving context" (Section
2.2).  This module models that program as a single event-driven loop with
receive priority, exactly mirroring the two-context structure:

- **receive context**: drains arrived packets first — classifying each,
  applying credit refills, and DMAing data packets into the destination
  context's receive queue (dropping them if no matching context is
  loaded, which loses credits — the failure mode ParPar's init protocol
  and the flush protocol exist to prevent);
- **send context**: round-robin scan of installed contexts' send queues;
  transmission honours the *halt bit* (a gate the noded sets during
  COMM_halt_network), stopping cleanly on a packet boundary;
- **control outbox**: the flush/release protocol's HALT and READY packets
  are generated by the firmware itself, sent as a serial loop (Myrinet
  has no hardware broadcast), and are allowed out while the network is
  halted.

Every packet is plain calls around sleeps the loop takes itself, with no
sub-generator anywhere: a control arrival is one call; a DATA arrival is
:meth:`LanaiFirmware._accept_data` (everything before the DMA), the DMA
sleep, then :meth:`LanaiFirmware._deliver_data` (everything after it),
and the reliable and PM transports override exactly those two hooks; a
transmission is the pickup + injection sleep followed by the fabric
launch.  The send scan runs only when a resident send queue holds a
packet, and an idle card parks (``yield PARK``) with no calendar entry
rather than allocating a wake-up event.

The glueFM layer extends this program by registering handlers for the
HALT/READY control packets — the paper's "some additions to implement
network flushing".
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Iterable, Optional

from repro.errors import PacketLossError, ProtocolError
from repro.fm.config import FMConfig
from repro.fm.context import ContextState, FMContext
from repro.fm.packet import Packet, PacketType
from repro.hardware.network import MyrinetFabric
from repro.hardware.nic import MyrinetNIC
from repro.sim.core import Simulator
from repro.sim.process import PARK
from repro.sim.trace import NullTracer, Tracer


class LanaiFirmware:
    """One NIC's control program."""

    def __init__(self, sim: Simulator, nic: MyrinetNIC, fabric: MyrinetFabric,
                 config: FMConfig, tracer: Optional[Tracer] = None,
                 strict_no_loss: bool = False):
        self.sim = sim
        self.nic = nic
        self.fabric = fabric
        self.config = config
        self.tracer = tracer if tracer is not None else NullTracer()
        self.strict_no_loss = strict_no_loss
        # Hot-path constants, resolved once: the per-packet send/receive
        # paths must not re-read spec/config attributes per packet.
        self._recv_process_time = nic.spec.recv_process_time
        self._send_pickup_time = nic.spec.send_pickup_time
        self._interrupt_time = nic.spec.interrupt_time
        self._credit_delay = config.credit_turnaround
        # fabric.injection_time(n) == n * inv_bandwidth; inlined in _run.
        self._wire_inv = fabric.link.inv_bandwidth

        self._contexts: dict[int, FMContext] = {}      # job_id -> installed context
        self._job_registry: dict[int, FMContext] = {}  # survives store/restore
        #: installed contexts in round-robin scan order; mutated in place,
        #: because the run loop holds this list for its whole life
        self._resident: list[FMContext] = []
        self._scan_pos = 0
        self._inbound: Deque[Packet] = deque()
        self._control_outbox: Deque[Packet] = deque()
        # glueFM's HALT/READY handlers (see register_control_handler);
        # two slots rather than a dict keyed by type, so the per-packet
        # dispatch compares identities instead of hashing the enum.
        self._halt_handler: Optional[Callable[[Packet], None]] = None
        self._ready_handler: Optional[Callable[[Packet], None]] = None
        #: fn(ctx, packet) called after each data delivery — the hook
        #: dynamic coscheduling uses to wake a message's destination.
        self.data_delivery_hooks: list[Callable] = []
        #: fn(ctx, packet) called when a data packet leaves the send
        #: queue for the wire — the invariant auditor's send-side tap.
        self.data_send_hooks: list[Callable] = []

        # statistics / diagnostics
        self.dropped_packets: list[Packet] = []
        self.packets_sent = 0
        self.packets_received = 0
        #: Fail-stop state: a powered-off card neither receives nor sends.
        self._dead = False
        self.dead_drops = 0   # packets that hit the card while powered off

        nic.firmware = self
        self.proc = sim.process(self._run(), name=f"lanai-{nic.node_id}")

    # ------------------------------------------------------------------ power
    @property
    def dead(self) -> bool:
        return self._dead

    def power_off(self) -> None:
        """Fail-stop the card: drop queued work, ignore future arrivals.

        Inbound and control queues vanish (a dead card answers nothing —
        no acks, no HALT/READY); the run loop parks (``yield PARK``, no
        calendar entry) the next time it runs dry, and :meth:`wake`
        refuses to reschedule it while dead.  A packet whose
        wire injection already began finishes onto the fabric: that is
        the fail-stop boundary, packets "on the wire at death" still
        arrive.  Contexts should be paged out by the caller *before*
        power-off so their queue fingerprints pre-date the silence.
        """
        self._dead = True
        self._inbound.clear()
        self._control_outbox.clear()

    def power_on(self) -> None:
        """Reintegration: the card starts clean and serves again."""
        self._dead = False
        self.wake()

    # ------------------------------------------------------------------ contexts
    def install_context(self, ctx: FMContext) -> None:
        """Load a context onto the card: allocate its send queue in SRAM."""
        if ctx.job_id in self._contexts:
            raise ProtocolError(f"job {ctx.job_id} already has a context on NIC "
                                f"{self.nic.node_id}")
        if ctx.node_id != self.nic.node_id:
            raise ProtocolError(f"context for node {ctx.node_id} installed on "
                                f"NIC {self.nic.node_id}")
        self.nic.allocate_sram(ctx.geometry.send_packets * self.config.packet_bytes,
                               tag=self._sram_tag(ctx))
        ctx.state = ContextState.ACTIVE
        self._contexts[ctx.job_id] = ctx
        self._job_registry[ctx.job_id] = ctx
        self._resident.append(ctx)
        # Idempotent: a context re-installed at every switch-in keeps
        # exactly one kick on its queue.
        ctx.send_queue.on_nonempty(self.wake)
        if self.tracer.enabled:
            self.tracer.record("ctx-install", node=self.nic.node_id,
                               job=ctx.job_id, rank=ctx.rank)
        self.wake()

    def remove_context(self, ctx: FMContext) -> None:
        """Unload a context from the card (end of job, or switched out)."""
        if self._contexts.get(ctx.job_id) is not ctx:
            raise ProtocolError(f"job {ctx.job_id} not installed on NIC {self.nic.node_id}")
        del self._contexts[ctx.job_id]
        self._resident.remove(ctx)
        self._scan_pos = 0
        self.nic.free_sram(self._sram_tag(ctx))
        ctx.state = ContextState.STORED
        if self.tracer.enabled:
            self.tracer.record("ctx-remove", node=self.nic.node_id,
                               job=ctx.job_id)

    def forget_job(self, job_id: int) -> None:
        """End-of-job teardown: drop state that survives store/restore.

        ``remove_context`` models a temporary switch-out; this models the
        job being gone for good (COMM_end_job), releasing the registry
        entry that late credit refills are matched against.
        """
        self._job_registry.pop(job_id, None)

    def _sram_tag(self, ctx: FMContext) -> str:
        return f"ctx-job{ctx.job_id}"

    def installed_context(self, job_id: int) -> Optional[FMContext]:
        return self._contexts.get(job_id)

    @property
    def installed_jobs(self) -> list[int]:
        return sorted(self._contexts)

    # ------------------------------------------------------------------ ingress
    def on_packet_arrival(self, packet: Packet) -> None:
        """Fabric delivery point (runs in event-callback context)."""
        if self._dead:
            self.dead_drops += 1
            return
        self._inbound.append(packet)
        # Inline wake() — this runs once per packet on every NIC; the
        # parked test reads the kernel flag directly to skip a call.
        proc = self.proc
        if proc._parked:
            proc.wake()

    # ------------------------------------------------------------------ control
    def register_control_handler(self, ptype: PacketType,
                                 handler: Callable[[Packet], None]) -> None:
        """glueFM hook: process HALT/READY packets of the flush protocol."""
        if ptype is PacketType.HALT:
            self._halt_handler = handler
        elif ptype is PacketType.READY:
            self._ready_handler = handler
        else:
            raise ProtocolError(f"{ptype} is not a NIC control type")

    def broadcast_control(self, ptype: PacketType, peers: Iterable[int]) -> None:
        """Queue a serial-loop broadcast of a control packet.

        "As the Myrinet hardware does not support broadcast, the broadcast
        is implemented by a serial loop" — one unicast per peer, in the
        given order (the flush protocol passes its sorted peer tuple),
        sent back-to-back by the send loop, bypassing the halt bit.
        """
        me = self.nic.node_id
        outbox = self._control_outbox
        next_seq = self.sim.next_seq
        for dst in peers:
            if dst != me:
                outbox.append(Packet(ptype, me, dst, next_seq()))
        self.wake()

    def detach(self) -> None:
        """Run teardown: cut the links back to this firmware (the NIC's
        ``firmware`` slot, glueFM's HALT/READY handlers, the wake kick on
        each known context's send queue) that would keep a finished run
        cyclic.  Counters stay readable."""
        self.nic.firmware = None
        self._halt_handler = self._ready_handler = None
        for ctx in self._job_registry.values():
            ctx.send_queue.off_nonempty(self.wake)

    # ------------------------------------------------------------------ main loop
    def wake(self) -> None:
        # Called on every queue append and packet arrival; the parked
        # test reads the kernel flag directly to skip a call.
        if self._dead:
            return
        proc = self.proc
        if proc._parked:
            proc.wake()

    def _run(self):
        # The firmware loop runs once per packet movement on every NIC;
        # bind the loop-invariant lookups to locals of the generator frame.
        # Busy times are yielded as bare numbers (the kernel's fast sleep),
        # so every packet is plain calls around sleeps taken here.
        inbound = self._inbound
        outbox = self._control_outbox
        resident = self._resident
        send_gate = self.nic.send_gate
        dma = self.nic.dma
        fabric = self.fabric
        node_id = self.nic.node_id
        tracer = self.tracer
        interrupt_time = self._interrupt_time
        send_pickup_time = self._send_pickup_time
        wire_inv = self._wire_inv
        in_recv_context = False
        recv_process_time = self._recv_process_time
        DATA = PacketType.DATA
        # Bound methods resolve the subclass overrides (ReliableFirmware,
        # PMFirmware) once, not per packet.
        accept_data = self._accept_data
        deliver_data = self._deliver_data
        receive_control = self._receive_control
        before_send = self._before_send
        next_data_packet = self._next_data_packet
        send_hooks = self.data_send_hooks
        while True:
            if inbound:
                # Receive context has priority: consume everything available.
                packet = inbound.popleft()
                if in_recv_context:
                    yield recv_process_time
                else:
                    # The arrival interrupt switches the dual-context
                    # processor out of the send context; the interrupt and
                    # the first packet's processing are one uninterrupted
                    # occupancy, slept in a single event.
                    in_recv_context = True
                    yield interrupt_time + recv_process_time
                if packet.ptype is DATA:
                    ctx = accept_data(packet)
                    if ctx is not None:
                        yield dma.request(packet.size_bytes)
                        deliver_data(ctx, packet)
                else:
                    receive_control(packet)
                continue
            in_recv_context = False

            ctx = None
            if outbox:
                # Flush-protocol broadcasts go out even when halted.
                packet = outbox.popleft()
                yield packet.size_bytes * wire_inv
            else:
                packet = None
                if send_gate._open:
                    # (Gate internals: the halt bit is polled once per loop
                    # iteration, so the property call matters.)  Scan only
                    # when some resident send queue holds a packet.
                    for resident_ctx in resident:
                        if resident_ctx.send_queue._items:
                            ctx, packet = next_data_packet()
                            break
                if packet is None:
                    # Idle: no calendar entry until wake() reschedules us.
                    yield PARK
                    continue
                # Pickup and wire injection are one uninterrupted LANai
                # occupancy, slept once for the sum: timing-exact, and
                # half the events on the send path.
                if before_send is not None:
                    before_send(packet)
                yield send_pickup_time + packet.size_bytes * wire_inv

            # The injection time has passed: put the packet on the fabric.
            fabric.transmit(node_id, packet.dst_node, packet)
            self.packets_sent += 1
            if tracer.enabled:
                tracer.record("pkt-tx", node=node_id,
                              ptype=packet.ptype.value,
                              dst=packet.dst_node, job=packet.job_id,
                              seq=packet.seq, msg=packet.msg_id,
                              frag=packet.frag_index)
            if ctx is not None and packet.ptype is DATA:
                stats = ctx.stats
                stats.packets_sent += 1
                stats.bytes_sent += packet.payload_bytes
                if send_hooks:
                    for hook in send_hooks:
                        hook(ctx, packet)

    # ------------------------------------------------------------------ send path
    def _next_data_packet(self) -> tuple[FMContext, Packet]:
        """Round-robin scan of installed contexts' send queues.

        The run loop calls this only when some resident send queue holds
        a packet, so the scan always finds one.
        """
        resident = self._resident
        n = len(resident)
        if n == 1:
            # Dominant case under buffer switching: exactly one resident
            # context.  Same result/state as the scan below with n == 1.
            ctx = resident[0]
            self._scan_pos = 0
            return ctx, ctx.send_queue.try_pop()
        pos = self._scan_pos % n
        for offset in range(n):
            idx = pos + offset
            if idx >= n:
                idx -= n
            ctx = resident[idx]
            if ctx.send_queue._items:
                idx += 1
                self._scan_pos = idx if idx < n else 0
                return ctx, ctx.send_queue.try_pop()
        raise ProtocolError(f"NIC {self.nic.node_id}: send scan found no packet")

    #: Hook ``fn(packet)``: a send-queue packet is about to occupy the
    #: wire.  Runs at the start of the pickup + injection sleep (reliable
    #: transports stamp their outstanding-packet records here); control
    #: packets from the outbox skip it.  None here, so the base firmware's
    #: send path makes no call for it.
    _before_send: Optional[Callable[[Packet], None]] = None

    # ------------------------------------------------------------------ receive path
    # NOTE: the per-packet processing time is slept by the caller
    # (_run), fused with the context-switch interrupt when one fires.
    def _receive_control(self, packet: Packet) -> None:
        """Every non-DATA arrival: flush-protocol HALT/READY and refills.

        Single identity comparisons on the type (no enum hashing).
        """
        self.packets_received += 1
        ptype = packet.ptype
        if ptype is PacketType.HALT:
            handler = self._halt_handler
        elif ptype is PacketType.READY:
            handler = self._ready_handler
        else:
            if ptype is PacketType.REFILL:
                self._apply_refill(packet)
            else:
                # ACK/NACK belong to the reliable transports, which
                # override this method; nothing here can consume them.
                self._drop(packet)
            return
        if handler is None:
            raise ProtocolError(
                f"NIC {self.nic.node_id}: {ptype} packet but no flush "
                "protocol installed"
            )
        handler(packet)

    def _accept_data(self, packet: Packet) -> Optional[FMContext]:
        """A DATA arrival, before its DMA: the destination context, or
        None when the packet goes no further.

        The run loop sleeps the DMA into the receive queue, then hands
        the context to :meth:`_deliver_data`.
        """
        self.packets_received += 1
        ctx = self._contexts.get(packet.job_id)
        if ctx is None or ctx.state is not ContextState.ACTIVE:
            self._drop(packet)
            return None
        if packet.piggyback_refill:
            self._delayed_credit(ctx, packet.src_node, packet.piggyback_refill)
        return ctx

    def _deliver_data(self, ctx: FMContext, packet: Packet) -> None:
        """A DATA arrival, after its DMA: enqueue it for FM_extract."""
        if ctx.state is not ContextState.ACTIVE:
            # The context was switched out during the DMA — possible only
            # under unflushed (SHARE-style) switching; the packet is lost.
            self._drop(packet)
            return
        ctx.recv_queue.append(packet)
        stats = ctx.stats
        stats.packets_received += 1
        stats.bytes_received += packet.payload_bytes
        tracer = self.tracer
        if tracer.enabled:
            tracer.record("pkt-deliver", node=self.nic.node_id,
                          src=packet.src_node, seq=packet.seq,
                          job=packet.job_id, msg=packet.msg_id)
        for hook in self.data_delivery_hooks:
            hook(ctx, packet)

    def _apply_refill(self, packet: Packet) -> None:
        ctx = self._job_registry.get(packet.job_id)
        if ctx is None:
            self._drop(packet)
            return
        self._delayed_credit(ctx, packet.src_node, packet.refill_credits)

    def _delayed_credit(self, ctx: FMContext, peer: int, count: int) -> None:
        """Apply returned credits after the calibrated turnaround delay.

        ``credit_turnaround`` models the batching and handler-turnaround
        latency of real FM's credit recycling; see FMConfig.
        """
        delay = self._credit_delay
        if delay <= 0:
            ctx.credits.on_refill(peer, count)
            return
        ev = self.sim.timeout(delay)
        ev.add_callback(lambda _ev: ctx.credits.on_refill(peer, count))

    def _drop(self, packet: Packet) -> None:
        self.dropped_packets.append(packet)
        if self.tracer.enabled:
            self.tracer.record("pkt-drop", node=self.nic.node_id,
                               job=packet.job_id, ptype=packet.ptype.value,
                               seq=packet.seq)
        if self.strict_no_loss and not self._dead:
            # A powered-off card losing a packet is the fail-stop model
            # working, not a protocol violation.
            raise PacketLossError(
                f"NIC {self.nic.node_id} dropped {packet!r}: no loaded context "
                f"for job {packet.job_id}"
            )
