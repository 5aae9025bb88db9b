"""Retry/timeout/backoff reliability layer for the FM firmware.

Generalises the PM transport's nack-driven resend
(:mod:`repro.alternatives.pm_nack`) into a *pluggable* reliability
layer: :class:`ReliableFirmware` is a thin driver that owns the
protocol-safety machinery, while a
:class:`~repro.faults.strategies.base.ReliabilityStrategy` decides when
to acknowledge, what an acknowledgement means, and when to retransmit.
Four strategies ship in :mod:`repro.faults.strategies`; the default,
``per-packet``, reproduces the original hardwired behaviour — positive
acks per packet with fixed exponential backoff — bit-for-bit.

Driver-owned machinery, which no strategy can break (the paper's
protocol stack depends on it):

- **Pristine copies**: the sender keeps a host-side copy of every
  outstanding DATA packet; retransmit clones are rebuilt from it,
  CRC-clean even if the queued original was corrupted in SRAM.
- **Flow control**: a retransmitted clone carries the same
  ``piggyback_refill`` as the original, but dedup-by-seq guarantees the
  refill is applied exactly once — which is precisely why
  ``CreditState.on_refill`` can keep treating overflow as a protocol
  error (see its docstring).
- **Buffer switching**: a retransmit that falls due while the context is
  STORED is *parked* rather than appended to the stored send queue —
  appending would change the queue contents behind the backing store's
  fingerprint and trip the integrity check.  Parked packets drain when
  the context is next installed.
- **Flush protocol**: acks and nacks travel through the firmware control
  outbox (like HALT/READY they bypass the halt bit), so a halted node
  can still settle its peers' timers; retransmit clones go through the
  ordinary send queue and therefore honour the halt bit.
- **Channel sequencing**: the driver stamps each first transmission with
  a contiguous per-channel ``rel_seq`` so cumulative/selective
  strategies can reason about prefixes and gaps without trusting the
  process-global ``seq`` counter.
- **Teardown**: ``power_off`` and ``forget_job`` clear reliability and
  strategy state (timers included) so dead peers and finished jobs
  never leak timers or phantom outstanding counts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Union

from repro.errors import ConfigError
from repro.fm.context import ContextState, FMContext
from repro.fm.firmware import LanaiFirmware
from repro.fm.packet import Packet, PacketType
from repro.units import MS, US


@dataclass(frozen=True)
class RetransmitPolicy:
    """Ack-timeout schedule: ``timeout * backoff**(attempt-1)``, capped.

    All durations are simulated seconds (the codebase's universal time
    unit); the defaults are expressed through the :mod:`repro.units`
    constants so the base and the cap visibly share a unit system.
    """

    timeout: float = 2000 * US     # base ack timeout (covers RTT + queueing)
    backoff: float = 2.0           # exponential growth per retry
    max_timeout: float = 50 * MS   # cap on any single wait
    max_retries: int = 10          # transmissions before declaring the peer dead

    def __post_init__(self):
        if self.timeout <= 0.0:
            raise ConfigError(f"timeout must be positive, got {self.timeout}")
        if self.max_timeout < self.timeout:
            # The historical unit bug: a cap quoted in the wrong unit
            # lands below the base and silently flattens the ladder.
            raise ConfigError(
                f"max_timeout ({self.max_timeout}) below the base timeout "
                f"({self.timeout}) — check the units (seconds everywhere)")
        if self.max_retries < 1:
            raise ConfigError(
                f"max_retries must be >= 1, got {self.max_retries}")

    def timeout_for(self, attempt: int) -> float:
        """Ack timeout after the ``attempt``-th transmission (1-based)."""
        t = self.timeout * self.backoff ** (attempt - 1)
        return t if t < self.max_timeout else self.max_timeout


class _Outstanding:
    """Sender-side record of one unacked DATA packet."""

    __slots__ = ("packet", "attempts", "rel_seq", "sent_at")

    def __init__(self, packet: Packet):
        self.packet = packet   # pristine host-side copy (never corrupted)
        self.attempts = 0      # transmissions so far
        self.rel_seq = -1      # contiguous per-channel sequence number
        self.sent_at = 0.0     # sim time of the latest transmission


class ReliableFirmware(LanaiFirmware):
    """LANai control program with strategy-driven acks and retransmission."""

    def __init__(self, *args, retransmit: Optional[RetransmitPolicy] = None,
                 strategy: Union[str, object, None] = None, **kwargs):
        super().__init__(*args, **kwargs)
        self.policy = retransmit if retransmit is not None else RetransmitPolicy()
        self.strategy = self._resolve_strategy(strategy)
        self.strategy.bind(self)
        self._unacked: dict[int, _Outstanding] = {}  # seq -> record
        self._seen: set[int] = set()                 # seqs accepted here
        self._piggybacked: set[int] = set()          # seqs whose refill applied
        self._parked: dict[int, list[Packet]] = {}   # job_id -> due retransmits
        # per-channel rel_seq machinery: (job_id, peer) keys
        self._by_channel: dict[tuple, dict[int, int]] = {}  # rel_seq -> seq
        self._next_rel: dict[tuple, int] = {}
        # strategy timers: tag -> epoch (a fired/cancelled tag goes stale)
        self._timers: dict = {}
        self._timer_serial = 0
        self._pending: list[int] = []   # retransmit requests awaiting requeue
        # statistics / audit feeds
        self.retransmits = 0
        self.acks_sent = 0
        self.acks_received = 0
        self.nacks_sent = 0
        self.nacks_received = 0
        self.dup_discards = 0
        self.corrupt_discards = 0
        self.unreachable_discards = 0   # DATA for a non-active context
        self.permanent_losses = 0       # gave up after max_retries
        self.zombies_purged = 0         # released clones swept at job teardown
        #: seqs this node ever retransmitted — the auditor excuses FIFO
        #: reordering for exactly these (plus the injector's faulted set).
        self.retransmitted_seqs: set[int] = set()

    def detach(self) -> None:
        super().detach()
        self.strategy.driver = None

    def _resolve_strategy(self, strategy):
        from repro.faults.strategies import make_strategy

        if strategy is None:
            from repro.faults.strategies import DEFAULT_STRATEGY
            return make_strategy(DEFAULT_STRATEGY, self.policy)
        if isinstance(strategy, str):
            return make_strategy(strategy, self.policy)
        if callable(strategy):
            return strategy(self.policy)
        # A ready-made instance: single-NIC rigs only — strategy state is
        # per-card, so sharing one instance across firmwares is a bug.
        return strategy

    # ================================================================== the
    # driver services strategies are allowed to call (see strategies/base.py)
    @property
    def node_id(self) -> int:
        return self.nic.node_id

    def now(self) -> float:
        return self.sim.now

    def start_timer(self, tag, delay: float, name: Optional[str] = None) -> None:
        """Arm (or re-arm) ``tag``: ``strategy.on_timer(tag)`` after ``delay``.

        Re-arming stales the previous timer for the same tag; stale
        timers wake and return without calling the strategy, so an
        already-scheduled kernel event is never a correctness hazard.
        """
        self._timer_serial += 1
        epoch = self._timer_serial
        self._timers[tag] = epoch
        self.sim.process(self._timer_proc(tag, epoch, delay),
                         name=name or f"reltimer-{self.nic.node_id}")

    def cancel_timer(self, tag) -> None:
        self._timers.pop(tag, None)

    def _timer_proc(self, tag, epoch: int, delay: float):
        yield self.sim.timeout(delay)
        if self._dead or self._timers.get(tag) != epoch:
            return  # cancelled, re-armed, or the card died
        del self._timers[tag]
        self.strategy.on_timer(tag)
        if self._pending:
            yield from self._drain_pending()

    def emit_ack(self, dst_node: int, job_id: int, ack_seq: int) -> None:
        """Queue an ACK through the halt-exempt control outbox."""
        self._control_outbox.append(Packet(
            PacketType.ACK, src_node=self.nic.node_id,
            dst_node=dst_node, job_id=job_id, ack_seq=ack_seq,
        ))
        self.acks_sent += 1
        self.wake()

    def emit_nack(self, dst_node: int, job_id: int, rel_seq: int) -> None:
        """Queue a NACK naming a missing ``rel_seq`` (halt-exempt)."""
        self._control_outbox.append(Packet(
            PacketType.NACK, src_node=self.nic.node_id,
            dst_node=dst_node, job_id=job_id, ack_seq=rel_seq,
        ))
        self.nacks_sent += 1
        self.wake()

    def outstanding_entry(self, seq: int) -> Optional[_Outstanding]:
        return self._unacked.get(seq)

    def seq_for(self, job_id: int, peer: int, rel_seq: int) -> Optional[int]:
        """Global seq of an outstanding (channel, rel_seq), if any."""
        channel = self._by_channel.get((job_id, peer))
        return channel.get(rel_seq) if channel is not None else None

    def channel_outstanding(self, job_id: int, peer: int) -> dict:
        """Outstanding rel_seq -> seq for one channel (read-only view)."""
        return self._by_channel.get((job_id, peer), {})

    def release(self, seq: int) -> Optional[_Outstanding]:
        """Free one acked entry (no-op for unknown/stale seqs)."""
        entry = self._unacked.pop(seq, None)
        if entry is not None:
            self._unlink(entry)
        return entry

    def release_through(self, job_id: int, peer: int, rel_seq: int) -> int:
        """Free every outstanding entry on the channel with
        ``rel_seq <= rel_seq`` (cumulative-ack semantics); returns the
        number freed."""
        channel = self._by_channel.get((job_id, peer))
        if not channel:
            return 0
        freed = [r for r in channel if r <= rel_seq]
        for rel in freed:
            self._unacked.pop(channel.pop(rel), None)
        return len(freed)

    def request_retransmit(self, seq: int) -> None:
        """Ask the driver to resend ``seq`` from the pristine copy.

        Deferred: the requeue can block on send-queue space, so it runs
        in whichever process context the driver drains from (the timer
        process, or a spawned drain after a receive-side request) —
        never inline in the firmware's main loop.
        """
        self._pending.append(seq)

    def request_give_up(self, seq: int) -> None:
        """Abandon an entry: permanent loss, peer flagged as dead-looking."""
        entry = self._unacked.pop(seq, None)
        if entry is None:
            return
        self._unlink(entry)
        self.permanent_losses += 1
        if self.tracer:
            self.tracer.record("rto-give-up", **self._trace_fields(
                seq=seq, job=entry.packet.job_id, attempts=entry.attempts))
        self.strategy.on_peer_dead(entry.packet.dst_node)

    # ================================================================== send side
    def _unlink(self, entry: _Outstanding) -> None:
        channel = self._by_channel.get(
            (entry.packet.job_id, entry.packet.dst_node))
        if channel is not None:
            channel.pop(entry.rel_seq, None)

    def _trace_fields(self, **fields) -> dict:
        # The default strategy keeps the v1 record layout byte-for-byte;
        # the others tag their records so retransmit-epoch spans carry
        # the strategy name.
        from repro.faults.strategies import DEFAULT_STRATEGY
        name = self.strategy.name
        if name != DEFAULT_STRATEGY:
            fields["strategy"] = name
        fields["node"] = self.nic.node_id
        return fields

    def _before_send(self, packet: Packet) -> None:
        if packet.ptype is not PacketType.DATA:
            return
        entry = self._unacked.get(packet.seq)
        if entry is None:
            entry = _Outstanding(packet)
            if packet.rel_seq < 0:
                # First transmission: stamp the per-channel rel_seq
                # (clones keep the original's, and a zombie clone of
                # an already-released seq must not claim a fresh one).
                key = (packet.job_id, packet.dst_node)
                packet.rel_seq = self._next_rel.get(key, 0)
                self._next_rel[key] = packet.rel_seq + 1
            entry.rel_seq = packet.rel_seq
            self._unacked[packet.seq] = entry
            self._by_channel.setdefault(
                (packet.job_id, packet.dst_node), {})[packet.rel_seq] \
                = packet.seq
        entry.attempts += 1
        entry.sent_at = self.sim._now
        self.strategy.on_data_sent(entry)

    def _drain_pending(self):
        """Execute queued retransmit requests (blocking-safe context only)."""
        while self._pending:
            seq = self._pending.pop(0)
            entry = self._unacked.get(seq)
            if entry is None:
                continue  # released while the request waited
            self.retransmits += 1
            self.retransmitted_seqs.add(seq)
            if self.tracer:
                self.tracer.record("rto-retransmit", **self._trace_fields(
                    seq=seq, job=entry.packet.job_id,
                    attempt=entry.attempts + 1))
            # A fresh clone: same seq (dedup key) and payload, CRC-clean
            # even if the queued original was corrupted in SRAM.
            # dataclasses.replace re-runs Packet.__init__, recomputing
            # size_bytes.
            yield from self._requeue(replace(entry.packet, corrupted=False))

    def _requeue(self, packet: Packet):
        """Put a retransmit clone back on the send path.

        Appends to the context's send queue when the context is installed
        and active; parks it otherwise (see module docstring).
        """
        ctx = self._contexts.get(packet.job_id)
        if ctx is None or ctx.state is not ContextState.ACTIVE:
            self._parked.setdefault(packet.job_id, []).append(packet)
            return
        while ctx.send_queue.is_full:
            yield ctx.send_queue.wait_space()
            ctx = self._contexts.get(packet.job_id)
            if ctx is None or ctx.state is not ContextState.ACTIVE:
                self._parked.setdefault(packet.job_id, []).append(packet)
                return
        ctx.send_queue.append(packet)
        self.wake()

    def install_context(self, ctx) -> None:
        super().install_context(ctx)
        parked = self._parked.pop(ctx.job_id, None)
        if parked:
            self.sim.process(self._drain_parked(parked),
                             name=f"rto-unpark-{self.nic.node_id}-j{ctx.job_id}")
        self.strategy.on_context_installed(ctx.job_id)

    def remove_context(self, ctx) -> None:
        super().remove_context(ctx)
        self.strategy.on_context_stored(ctx.job_id)

    def _drain_parked(self, parked: list):
        for packet in parked:
            yield from self._requeue(packet)

    def power_off(self) -> None:
        """Fail-stop: reliability state is host/SRAM resident and dies too.

        A restarted node comes back with no memory of what it had sent or
        seen — its peers' retransmit timers (running on *their* cards)
        are the only recovery state that survives.  ``retransmitted_seqs``
        is kept: it is audit metadata about history, not device state.
        Timers die with the card (``_timer_proc`` checks ``_dead`` and
        the cleared epoch table), so a dead peer never runs a strategy
        hook — the no-orphaned-timers property the recovery tests pin.
        """
        super().power_off()
        self._unacked.clear()
        self._parked.clear()
        self._seen.clear()
        self._piggybacked.clear()
        self._by_channel.clear()
        self._next_rel.clear()
        self._timers.clear()
        self._pending.clear()
        self.strategy.on_power_off()

    def forget_job(self, job_id: int) -> None:
        """Connection teardown: cancel reliability state for a dead job.

        A finished job has extracted every message it ever sent, so any
        still-unacked entry is a zombie (its ack was lost after delivery)
        — retransmitting it to peers that are also tearing down would
        leave permanently parked clones and phantom ``outstanding``
        counts at quiescence.  Real loss cannot hide here: the invariant
        auditor checks delivery from its own taps, not from this table.
        """
        ctx = self._job_registry.get(job_id)
        super().forget_job(job_id)
        stale = [seq for seq, entry in self._unacked.items()
                 if entry.packet.job_id == job_id]
        for seq in stale:
            del self._unacked[seq]
        if ctx is not None:
            # Zombie clones: retransmit copies (rel_seq stamped => already
            # transmitted once) still queued after their ack released the
            # entry.  The dead context will never drain its queue again,
            # and each clone double-counts its committed credit and its
            # piggyback refill against the conservation audit — the
            # original already delivered both.
            self.zombies_purged += ctx.send_queue.purge(
                lambda p: (p.ptype is PacketType.DATA and p.rel_seq >= 0
                           and p.seq not in self._unacked))
        self._parked.pop(job_id, None)
        for key in [k for k in self._by_channel if k[0] == job_id]:
            del self._by_channel[key]
        for key in [k for k in self._next_rel if k[0] == job_id]:
            del self._next_rel[key]
        self.strategy.on_job_forgotten(job_id)

    # ================================================================== receive side
    # (Per-packet processing time and the DMA are slept by the run loop,
    # as in the base class.)  Both receive paths run the CRC check first,
    # for every packet type.
    def _crc_discard(self, packet: Packet) -> bool:
        """Count an arrival; True (and discard it) if it failed its CRC."""
        self.packets_received += 1
        if not packet.corrupted:
            return False
        # Failed CRC: discard without acknowledgement; the sender's timer
        # recovers it from the pristine host-side copy.
        self.corrupt_discards += 1
        if self.tracer:
            self.tracer.record("pkt-crc-discard", node=self.nic.node_id,
                               seq=packet.seq, job=packet.job_id)
        return True

    def _receive_control(self, packet: Packet) -> None:
        if self._crc_discard(packet):
            return
        ptype = packet.ptype
        if ptype is PacketType.ACK or ptype is PacketType.NACK:
            if ptype is PacketType.ACK:
                self.acks_received += 1
            else:
                self.nacks_received += 1
            self.strategy.on_ack_like_received(packet)
            if self._pending:
                # NACK-triggered resends may block on queue space: drain
                # in a fresh process, never in the receive loop (waiting
                # for send-queue space *inside* the loop that frees it
                # would deadlock the card).
                self.sim.process(self._drain_pending(),
                                 name=f"rel-resend-{self.nic.node_id}")
            return
        self.packets_received -= 1  # super() recounts it
        super()._receive_control(packet)

    def _accept_data(self, packet: Packet) -> Optional[FMContext]:
        if self._crc_discard(packet):
            return None
        seq = packet.seq
        if seq in self._seen:
            # Switch-level duplicate, or a retransmit whose original made
            # it (the ack was lost).  Either way: discard, but let the
            # strategy settle the sender's timer.
            self.dup_discards += 1
            self.strategy.on_data_received(packet, duplicate=True)
            if self.tracer.enabled:
                self.tracer.record("pkt-dup-discard", node=self.nic.node_id,
                                   seq=seq, job=packet.job_id)
            return None
        ctx = self._contexts.get(packet.job_id)
        if ctx is None or ctx.state is not ContextState.ACTIVE:
            # Not an error under faults: withhold the ack and let the
            # sender recover once the context is back.
            self.unreachable_discards += 1
            return None
        if packet.piggyback_refill and seq not in self._piggybacked:
            # Applied at most once per seq.  The dedup-by-_seen check
            # above is NOT enough: a copy can clear it, apply the
            # refill, then get discarded during the DMA wait
            # (context swapped out mid-transfer) without ever reaching
            # ``_seen.add`` — the retransmit copy would then refill the
            # same credits a second time and corrupt flow control.
            self._piggybacked.add(seq)
            self._delayed_credit(ctx, packet.src_node, packet.piggyback_refill)
        return ctx

    def _deliver_data(self, ctx: FMContext, packet: Packet) -> None:
        if ctx.state is not ContextState.ACTIVE:
            self.unreachable_discards += 1
            return
        seq = packet.seq
        self._seen.add(seq)
        ctx.recv_queue.append(packet)
        stats = ctx.stats
        stats.packets_received += 1
        stats.bytes_received += packet.payload_bytes
        tracer = self.tracer
        if tracer.enabled and tracer.wants("pkt-deliver"):
            tracer.record("pkt-deliver", node=self.nic.node_id,
                          src=packet.src_node, seq=seq, job=packet.job_id,
                          msg=packet.msg_id)
        self.strategy.on_data_received(packet, duplicate=False)
        for hook in self.data_delivery_hooks:
            hook(ctx, packet)

    # ================================================================== inspection
    @property
    def outstanding(self) -> int:
        """Unacked DATA packets (sender side)."""
        return len(self._unacked)

    def parked_count(self) -> int:
        return sum(len(v) for v in self._parked.values())

    def active_timers(self) -> int:
        """Strategy timers armed and not yet fired/cancelled/power-cycled."""
        return len(self._timers)

    def strategy_stats(self) -> dict:
        """The bound strategy's deterministic counters (may be empty)."""
        return self.strategy.stats()
