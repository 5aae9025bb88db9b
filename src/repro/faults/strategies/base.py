"""Strategy interface for the pluggable ACK/NACK reliability layer.

:class:`~repro.faults.retransmit.ReliableFirmware` is a thin *driver*:
it owns every piece of protocol-safety machinery that no strategy may
break — dedup-by-seq before piggyback credits are applied, parking of
retransmit clones while the context is STORED, halt-exempt control
traffic through the firmware control outbox, per-channel ``rel_seq``
stamping, the pristine host-side copy of every outstanding DATA packet,
and the ``power_off``/``forget_job`` teardown of all of it.  A
:class:`ReliabilityStrategy` decides only *when to acknowledge, what an
acknowledgement means, and when to retransmit*:

- the receive side reacts to deliveries/duplicates (``on_data_received``)
  by emitting ACK/NACK control packets through the driver;
- the send side reacts to ACK/NACK arrivals (``on_ack_like_received``)
  and its own timers (``on_timer``) by releasing or retransmitting
  outstanding entries through the driver.

The split mirrors the ``AckNackMethod`` hierarchy of the Meshtastic
WIFI bridge: the stream/window bookkeeping lives in one place, the
ack/nack policy is swappable.

**Driver services available to strategies** (the full allowed surface —
strategies must not touch other driver internals):

================================================= =======================
``driver.now()``                                  current simulated time
``driver.start_timer(tag, delay, name=...)``      schedule ``on_timer(tag)``
``driver.cancel_timer(tag)``                      forget a pending timer
``driver.emit_ack(dst, job, ack_seq)``            queue an ACK (halt-exempt)
``driver.emit_nack(dst, job, rel_seq)``           queue a NACK (halt-exempt)
``driver.release(seq)``                           free one unacked entry
``driver.release_through(job, peer, rel_seq)``    free a channel prefix
``driver.request_retransmit(seq)``                ask for a clone resend
``driver.request_give_up(seq)``                   abandon an entry
``driver.outstanding_entry(seq)``                 sender-side record or None
``driver.seq_for(job, peer, rel_seq)``            channel lookup or None
``driver.channel_outstanding(job, peer)``         rel_seq -> seq mapping
``driver.policy``                                 the RetransmitPolicy
================================================= =======================

**Determinism contract**: strategies run inside the simulation and must
be bit-reproducible — no wall-clock reads (simlint SIM001 applies to
``on_timer`` and every other hook), no unseeded randomness, no iteration
over unordered sets.  All timing decisions derive from ``driver.now()``
and the :class:`~repro.faults.retransmit.RetransmitPolicy` schedule.

**Sequence-number vocabulary.**  Every packet carries two numbers: the
run-wide ``seq`` (unique per wire packet, the dedup key) and the
driver-stamped ``rel_seq`` (contiguous 0, 1, 2, ... per directed channel
``(job_id, src_node -> dst_node)``).  Per-packet strategies acknowledge
``seq``; cumulative/selective strategies reason about channel prefixes
and gaps in ``rel_seq`` space, which survives retransmission (a clone
keeps its original ``rel_seq``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.retransmit import RetransmitPolicy, _Outstanding
    from repro.fm.packet import Packet


class ReliabilityStrategy:
    """Base class: every hook is a safe no-op except the three core ones.

    One instance serves one NIC (the driver binds itself at
    construction); per-channel state lives on the instance and dies with
    ``on_power_off``.
    """

    #: registry key; subclasses must override with a unique name
    name = "abstract"

    def __init__(self, policy: "RetransmitPolicy"):
        self.policy = policy
        self.driver = None  # bound by ReliableFirmware

    def bind(self, driver) -> None:
        """Driver handshake — called once before any traffic."""
        self.driver = driver

    # ------------------------------------------------------------- send side
    def on_data_sent(self, entry: "_Outstanding") -> None:
        """A DATA packet (attempt ``entry.attempts``) just hit the wire.

        The canonical move is to arm a retransmit timer for
        ``entry.packet.seq``; the schedule is the strategy's to choose.
        """
        raise NotImplementedError

    def on_ack_like_received(self, packet: "Packet") -> None:
        """An ACK or NACK control packet arrived (CRC-clean, any state)."""
        raise NotImplementedError

    def on_timer(self, tag) -> None:
        """A timer armed with ``start_timer(tag, ...)`` fired (not stale)."""

    # ---------------------------------------------------------- receive side
    def on_data_received(self, packet: "Packet", duplicate: bool) -> None:
        """A CRC-clean DATA packet arrived for an installed context.

        ``duplicate=True`` means dedup-by-seq already discarded it (the
        driver never re-delivers); the strategy should still settle the
        sender — a duplicate usually means the original's ack was lost.
        ``duplicate=False`` means the packet was just delivered into the
        application receive queue.
        """
        raise NotImplementedError

    # ------------------------------------------------------------ lifecycle
    def on_context_installed(self, job_id: int) -> None:
        """A context came (back) onto the card; parked clones are draining."""

    def on_context_stored(self, job_id: int) -> None:
        """A context was paged off the card (gang switch, not teardown)."""

    def on_job_forgotten(self, job_id: int) -> None:
        """COMM_end_job teardown: drop any per-channel state for the job."""

    def on_peer_dead(self, peer: int) -> None:
        """The driver gave up on a packet to ``peer`` — it looks dead."""

    def on_power_off(self) -> None:
        """Fail-stop: strategy state is device state and dies with the NIC."""

    # ------------------------------------------------------------ reporting
    def stats(self) -> dict:
        """Deterministic, JSON-ready strategy-specific counters."""
        return {}
