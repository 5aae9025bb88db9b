"""The network flush protocol — Figure 3's state machine.

Before buffers can be swapped the network must be empty: no packet may be
in flight toward a context that is about to be switched out.  Each NIC

1. stops transmitting on a packet boundary (the noded sets the halt bit),
2. broadcasts a HALT control packet to every other participant ("I will
   send no more"), via a serial loop since Myrinet has no broadcast, and
3. collects HALT packets from all p-1 peers.

Because FM uses one fixed route per pair and Myrinet is FIFO, a HALT
arrives after every data packet its sender emitted — so once all HALTs
are in, nothing more can arrive.  The *local* halt and the *arriving*
halts interleave arbitrarily (nodes are not synchronised); the state is
(S|H, k): S/H = still-sending / locally-halted, k = halted nodes known
of, counting ourselves — exactly the paper's Figure 3.

Releasing after the switch uses the identical protocol with READY
packets: broadcast readiness, collect p-1 READYs, only then re-open the
send gate.

Rounds repeat every gang quantum.  Counters are cumulative **per
sender**: a fast neighbour's HALT for round r+1 may land before this
node even begins round r+1 (an "ah" edge from an S,0-equivalent state),
and must be banked, never lost.  Per-sender accounting (rather than one
aggregate counter) is what makes the recovery path sound: when the
masterd evicts a fail-stopped node mid-flush, :meth:`force_remove_node`
discards exactly that sender's column and re-evaluates completion over
the survivors — an aggregate count could not tell whose halts it was
still waiting for.

Completion itself reads neither the counters nor the participant set.
Each phase keeps a **waiting set**: the peers whose count is still below
the round, built once when the phase begins (so banked early HALTs, and
READYs that beat our own release, are already excluded).  An arrival
that brings a sender up to the round removes it, and so do
:meth:`remove_node` and :meth:`force_remove_node`; the barrier is down
when the set is empty.  A p-node switch moves 2(p-1) control packets
through each NIC, so the counters plus the set cost O(1) per packet and
O(p) per round, where re-scanning every participant on every arrival
cost O(p) per packet.  Both structures are needed: eviction must know a
sender's cumulative count (the counters), completion only who is
missing (the set).
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.errors import ProtocolError
from repro.fm.firmware import LanaiFirmware
from repro.fm.packet import Packet, PacketType
from repro.sim.core import Event, Simulator
from repro.sim.trace import NullTracer, Tracer


class FlushProtocol:
    """Halt/release coordination for one NIC."""

    def __init__(self, sim: Simulator, firmware: LanaiFirmware,
                 participants: Iterable[int], tracer: Optional[Tracer] = None):
        self.sim = sim
        self.firmware = firmware
        self.tracer = tracer if tracer is not None else NullTracer()
        self._participants: set[int] = set(participants)
        me = firmware.nic.node_id
        if me not in self._participants:
            raise ProtocolError(f"node {me} must be among the flush participants")
        #: the other participants, sorted: the serial-loop broadcast order
        self._peer_order: tuple[int, ...] = ()
        self._update_peers()
        # Cumulative per-sender counters (see module docstring).
        self._halts_from: dict[int, int] = {}
        self._readys_from: dict[int, int] = {}
        # Peers still missing this phase's HALT / READY (module docstring);
        # only ever tested for emptiness, never iterated.
        self._halt_waiting: set[int] = set()
        self._ready_waiting: set[int] = set()
        self._halt_round = 0
        self._ready_round = 0
        self._flush_event: Optional[Event] = None
        self._release_event: Optional[Event] = None
        #: HALT/READY packets from nodes outside the participant set —
        #: in-flight control from an evicted node, tolerated and counted
        #: rather than raised (the sender is dead; nobody can apologise).
        self.stale_control = 0
        #: participants discarded by :meth:`force_remove_node` while a
        #: round was in progress (recovery-epoch diagnostics).
        self.forced_removals = 0
        firmware.register_control_handler(PacketType.HALT, self._on_halt)
        firmware.register_control_handler(PacketType.READY, self._on_ready)

    # ------------------------------------------------------------------ topology
    @property
    def participants(self) -> list[int]:
        return sorted(self._participants)

    @property
    def peers(self) -> int:
        return len(self._participants) - 1

    def _update_peers(self) -> None:
        me = self.firmware.nic.node_id
        self._peer_order = tuple(sorted(n for n in self._participants
                                        if n != me))

    def _drop_sender(self, node_id: int) -> None:
        """Forget a departed participant's counters and pending waits."""
        self._participants.discard(node_id)
        self._update_peers()
        self._halts_from.pop(node_id, None)
        self._readys_from.pop(node_id, None)
        self._halt_waiting.discard(node_id)
        self._ready_waiting.discard(node_id)

    def add_node(self, node_id: int) -> None:
        if self._flush_event is not None or self._release_event is not None:
            raise ProtocolError("cannot change topology mid-flush")
        self._participants.add(node_id)
        self._update_peers()

    def remove_node(self, node_id: int) -> None:
        if self._flush_event is not None or self._release_event is not None:
            raise ProtocolError("cannot change topology mid-flush")
        if node_id == self.firmware.nic.node_id:
            raise ProtocolError("a node cannot remove itself from the flush set")
        self._drop_sender(node_id)

    def force_remove_node(self, node_id: int) -> None:
        """Evict a fail-stopped participant, even mid-flush.

        The cooperative :meth:`remove_node` refuses topology changes while
        a round is in progress because a live node's HALTs may already be
        counted.  Eviction is different: the masterd has declared the node
        dead, its HALT will never come, and every survivor would otherwise
        wait forever.  Dropping the dead sender's columns and re-checking
        completion over the survivors is exactly correct under per-sender
        accounting — the survivors' own counts are untouched.
        """
        if node_id == self.firmware.nic.node_id:
            raise ProtocolError("a node cannot evict itself from the flush set")
        if node_id not in self._participants:
            return  # already gone (duplicate eviction notice)
        self._drop_sender(node_id)
        self.forced_removals += 1
        self.tracer.record("flush-force-remove", node=self.firmware.nic.node_id,
                           removed=node_id, round=self._halt_round,
                           mid_flush=self._flush_event is not None)
        # The dead node may have been the only missing sender.
        self._check_flush()
        self._check_release()

    def abandon_round(self) -> None:
        """Fail-stop path: this node's daemon died mid-round.

        Discards any in-progress flush/release events without completing
        them — the interrupted switch process will never look at them —
        so that the recovery-epoch :meth:`reset` at reintegration finds
        an idle protocol.  Counters are left alone; only ``reset`` may
        reconcile ``_halt_round`` with ``_ready_round``.
        """
        self._flush_event = None
        self._release_event = None

    def reset(self, participants: Iterable[int]) -> None:
        """Recovery-epoch reset: new participant set, all counters zeroed.

        Used at node reintegration: a rejoined node's round counters are
        arbitrarily far behind its peers' (it was dead), so the masterd
        resets *every* participant to round zero while no flush is in
        flight — masterd op serialisation guarantees that window.
        """
        if self._flush_event is not None or self._release_event is not None:
            raise ProtocolError("cannot reset the flush protocol mid-round")
        new = set(participants)
        if self.firmware.nic.node_id not in new:
            raise ProtocolError(
                f"node {self.firmware.nic.node_id} must be among the flush "
                "participants")
        self._participants = new
        self._update_peers()
        self._halts_from.clear()
        self._readys_from.clear()
        self._halt_waiting.clear()
        self._ready_waiting.clear()
        self._halt_round = 0
        self._ready_round = 0
        self.tracer.record("flush-reset", node=self.firmware.nic.node_id,
                           participants=sorted(new))

    # ------------------------------------------------------------------ state (Fig. 3)
    @property
    def _halts_received(self) -> int:
        """Aggregate cumulative HALT count (diagnostic view)."""
        return sum(self._halts_from.values())

    @property
    def _readys_received(self) -> int:
        return sum(self._readys_from.values())

    @property
    def state(self) -> tuple[str, int]:
        """Current (S|H, k) state of the in-progress round.

        ``k`` counts halted nodes we know of, including ourselves once we
        halted locally.

        Audited arithmetic (the "ah-before-lh" edge): counts are
        cumulative per sender, so a peer is "halted this round" exactly
        when its count has reached ``_halt_round`` — a fast neighbour's
        round-r+1 HALT raises its count *past* the current round without
        being reported twice, which is the banking the aggregate-counter
        formulation needed a ``min(..., peers)`` cap for.  In the S state
        the bank is the surplus above completed rounds, summed over
        senders; it cannot go negative because round r only completes
        once every sender reached r.  The paper's Figure 3 has no state
        beyond (H, p), and the property test in
        tests/property/test_flush_properties.py replays the edge across
        rounds asserting 0 <= k <= p throughout.
        """
        if self._flush_event is not None:
            round_ = self._halt_round
            halted_peers = sum(1 for n in self._peer_order
                               if self._halts_from.get(n, 0) >= round_)
            return ("H", halted_peers + 1)
        # Not yet locally halted for the next round: banked halts only.
        banked = sum(max(0, count - self._halt_round)
                     for count in self._halts_from.values())
        return ("S", banked)

    @property
    def is_flushed(self) -> bool:
        return self._flush_event is not None and self._flush_event.triggered

    # ------------------------------------------------------------------ flush
    def begin_flush(self) -> Event:
        """Local halt ('lh' transition): the halt bit is already set.

        Broadcasts HALT to all peers and returns an event that triggers
        when every peer's HALT has been collected — the network is then
        guaranteed silent toward this node.
        """
        if self._flush_event is not None:
            raise ProtocolError("flush already in progress")
        if self._halt_round != self._ready_round:
            raise ProtocolError("previous round's release never completed")
        if not self.firmware.nic.halted:
            raise ProtocolError("begin_flush before the halt bit was set")
        round_ = self._halt_round = self._halt_round + 1
        self._flush_event = Event(self.sim)
        halts = self._halts_from
        self._halt_waiting = {n for n in self._peer_order
                              if halts.get(n, 0) < round_}
        tracer = self.tracer
        if tracer:
            tracer.record("flush-local-halt", node=self.firmware.nic.node_id,
                          round=round_, state=self.state)
        self.firmware.broadcast_control(PacketType.HALT, self._peer_order)
        self._check_flush()
        return self._flush_event

    def _on_halt(self, packet: Packet) -> None:
        if packet.src_node not in self._participants:
            # In-flight HALT from a node evicted out from under us (or
            # one we never knew): count it, never wedge on it.
            self.stale_control += 1
            self.tracer.record("flush-stale-halt",
                               node=self.firmware.nic.node_id,
                               src=packet.src_node)
            return
        src = packet.src_node
        count = self._halts_from[src] = self._halts_from.get(src, 0) + 1
        waiting = self._halt_waiting
        if count >= self._halt_round:
            waiting.discard(src)
        tracer = self.tracer
        if tracer:
            tracer.record("flush-halt-arrived", node=self.firmware.nic.node_id,
                          src=src, state=self.state)
        if not waiting:
            self._check_flush()

    def _check_flush(self) -> None:
        if self._halt_waiting:
            return
        ev = self._flush_event
        if ev is None or ev.triggered:
            return
        # State (H, p): everyone halted; the network is flushed.
        self.tracer.record("flush-complete", node=self.firmware.nic.node_id,
                           round=self._halt_round)
        ev.succeed()

    # ------------------------------------------------------------------ release
    def begin_release(self) -> Event:
        """Broadcast READY; the event triggers when all peers are ready.

        The caller re-opens the halt gate only after this event — sending
        into a node that has not finished its buffer switch would deliver
        packets to the wrong context.
        """
        if self._flush_event is None or not self._flush_event.triggered:
            raise ProtocolError("release before flush completed")
        if self._release_event is not None:
            raise ProtocolError("release already in progress")
        round_ = self._ready_round = self._ready_round + 1
        event = self._release_event = Event(self.sim)
        readys = self._readys_from
        self._ready_waiting = {n for n in self._peer_order
                               if readys.get(n, 0) < round_}
        self.firmware.broadcast_control(PacketType.READY, self._peer_order)
        self._check_release()
        return event

    def _on_ready(self, packet: Packet) -> None:
        if packet.src_node not in self._participants:
            self.stale_control += 1
            self.tracer.record("flush-stale-ready",
                               node=self.firmware.nic.node_id,
                               src=packet.src_node)
            return
        src = packet.src_node
        count = self._readys_from[src] = self._readys_from.get(src, 0) + 1
        waiting = self._ready_waiting
        if count >= self._ready_round:
            waiting.discard(src)
            if not waiting:
                self._check_release()

    def _check_release(self) -> None:
        if self._ready_waiting:
            return
        ev = self._release_event
        if ev is None or ev.triggered:
            return
        self.tracer.record("release-complete", node=self.firmware.nic.node_id,
                           round=self._ready_round)
        ev.succeed()
        # Round fully over; allow the next begin_flush.
        self._flush_event = None
        self._release_event = None
