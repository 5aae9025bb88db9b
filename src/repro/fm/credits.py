"""FM's credit-based flow control (paper Section 2.2).

Each process holds, *per peer node*, two counters: how many packets it may
still send to that peer (one credit = one receive-queue slot reserved
there), and how many packets it has consumed from that peer since it last
told the peer about them.  Credits are returned by **refill** messages —
sent explicitly when the peer's remaining credits (as seen from here)
fall below the low-water mark, or piggybacked on any data packet already
travelling in the reverse direction.

``c0 == 0`` is a legal configuration (it is exactly what the original
static partitioning produces at 7-8 contexts) and means communication is
impossible; :meth:`acquire_send` raises :class:`CreditError` so callers
can report zero bandwidth rather than deadlock.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.errors import CreditError
from repro.sim.core import Event, Simulator
from repro.sim.primitives import Semaphore


class CreditState:
    """Per-context flow-control state (lives in process memory)."""

    def __init__(self, sim: Simulator, c0: int, peers: Iterable[int],
                 low_water_fraction: float = 0.5):
        if c0 < 0:
            raise CreditError(f"negative initial credits {c0}")
        if not 0.0 <= low_water_fraction < 1.0:
            raise CreditError(f"low_water_fraction {low_water_fraction} out of range")
        self.sim = sim
        self.c0 = c0
        self._low_water_fraction = low_water_fraction
        self.low_water = int(c0 * low_water_fraction)
        #: consume this many from one peer before telling it (>=1)
        self.refill_threshold = max(1, c0 - self.low_water)
        self._send_credits: dict[int, Semaphore] = {
            peer: Semaphore(sim, value=c0) for peer in peers
        }
        self._consumed: dict[int, int] = {peer: 0 for peer in peers}
        #: the peer set is fixed at construction; sorted once
        self._peers: tuple[int, ...] = tuple(sorted(self._send_credits))
        # statistics
        self.refills_sent = 0
        self.refills_piggybacked = 0
        self.credits_received = 0
        #: level-triggered waits issued by blocked senders (one per
        #: wakeup attempt — the stall-clock accountant's ground truth
        #: for how often this context hit a zero credit window)
        self.send_waits = 0

    # -- introspection -------------------------------------------------------
    @property
    def peers(self) -> list[int]:
        return list(self._peers)

    def available(self, peer: int) -> int:
        """Credits currently available for sending to ``peer``."""
        return self._peer_sem(peer).value

    def reclaimable(self) -> Optional[int]:
        """Credits a uniform window shrink could take back right now.

        The minimum availability over peers (see :meth:`set_window`);
        None for a context with no peers.
        """
        sems = self._send_credits
        if not sems:
            return None
        return min([sem.value for sem in sems.values()])

    def consumed_unreported(self, peer: int) -> int:
        """Packets consumed from ``peer`` not yet refilled back to it."""
        return self._consumed[peer]

    def _peer_sem(self, peer: int) -> Semaphore:
        try:
            return self._send_credits[peer]
        except KeyError:
            raise CreditError(f"unknown peer node {peer}") from None

    # -- sender side -------------------------------------------------------------
    def acquire_send(self, peer: int) -> Event:
        """One credit toward ``peer``; the event blocks until available.

        The credit is taken when the event *triggers* — if the holder can
        be SIGSTOPped (gang-scheduled user code), prefer the
        ``try_acquire_send`` / ``wait_send`` pair, which never parks a
        taken credit inside an undelivered event.
        """
        self._require_window()
        return self._peer_sem(peer).acquire(1)

    def try_acquire_send(self, peer: int) -> bool:
        """Atomically take one credit toward ``peer`` if available now.

        FM_send calls this once per packet, so the window check, the
        peer lookup and ``Semaphore.try_acquire(1)`` run inline here.
        """
        if self.c0 == 0:
            self._require_window()
        try:
            sem = self._send_credits[peer]
        except KeyError:
            raise CreditError(f"unknown peer node {peer}") from None
        if sem._value >= 1 and not sem._waiters:
            sem._value -= 1
            return True
        return False

    def wait_send(self, peer: int) -> Event:
        """Level-triggered: fires when a credit toward ``peer`` appears
        (without taking it); pair with ``try_acquire_send`` in a loop."""
        self._require_window()
        self.send_waits += 1
        return self._peer_sem(peer).wait_value(1)

    def set_window(self, new_c0: int) -> int:
        """Retarget the per-peer credit window (dynamic buffer policies).

        Growing mints ``new_c0 - c0`` fresh credits toward every peer
        immediately.  Shrinking can only *reclaim* credits that are
        currently available here: credits committed to queued packets,
        sitting in the peer's receive queue, or returning in refills are
        someone else's to spend and stay counted until they come home.
        The reclaim is uniform across peers (C0 is a scalar), limited by
        the *minimum* availability, so the achieved window is
        ``c0 - min(requested shrink, min over peers of available)``.

        Returns the achieved window and recomputes the low-water mark /
        refill threshold from it.  Conservation survives in both
        directions: each peer-pair identity ``C0 = available + committed
        + in_recv + unreported + returning`` changes its C0 and its
        ``available`` term by the same delta, so the strict overflow
        check in :meth:`on_refill` (against the *new* C0) can still never
        trip on a legitimate refill.
        """
        if new_c0 < 0:
            raise CreditError(f"negative credit window {new_c0}")
        if new_c0 > self.c0:
            delta = new_c0 - self.c0
            sems = self._send_credits
            for peer in self._peers:
                sems[peer].release(delta)
            achieved = new_c0
        elif new_c0 < self.c0:
            want = self.c0 - new_c0
            reclaimable = self.reclaimable()
            take = want if reclaimable is None else min(want, reclaimable)
            if take:
                sems = self._send_credits
                for peer in self._peers:
                    sems[peer].reclaim(take)
            achieved = self.c0 - take
        else:
            return self.c0
        self.c0 = achieved
        self.low_water = int(achieved * self._low_water_fraction)
        self.refill_threshold = max(1, achieved - self.low_water)
        return achieved

    def _require_window(self) -> None:
        if self.c0 == 0:
            raise CreditError(
                "zero initial credits: communication impossible under this "
                "buffer partitioning (paper Fig. 5, >= 7 contexts)"
            )

    def on_refill(self, peer: int, count: int) -> None:
        """Peer returned ``count`` credits (explicit refill or piggyback).

        **Overflow is a protocol error, deliberately.**  Conservation
        makes a legitimate overflow impossible: every credit returned was
        first consumed at the peer, and the peer's ``take_refill`` /
        ``take_piggyback`` zero the consumed counter *atomically* with
        enqueueing the packet that carries it, so the sum of credits here,
        in flight, and parked at the peer never exceeds C0 — regardless
        of how refills and piggybacks race or how long a context sat in
        backing store (delayed application via ``credit_turnaround``
        included).  The only event that can trip this check is the same
        credit arriving *twice*, i.e. a duplicated packet.  Preventing
        that is the reliability layer's contract: under fault injection
        ``ReliableFirmware`` deduplicates by sequence number *before*
        applying piggybacks, and on a perfect network duplication cannot
        happen.  Tolerating overflow here would instead silently mint
        credits and mask exactly the corruption the paper warns about
        ("a single packet loss can mess up the credit counters"), so the
        strict check stays — pinned by the c0=1 test, where low_water=0
        and refill_threshold=1 make every consumed packet refill
        immediately and any duplication overflows at once.
        """
        if count <= 0:
            raise CreditError(f"refill of {count} credits from {peer}")
        sem = self._peer_sem(peer)
        if sem.value + count > self.c0:
            raise CreditError(
                f"refill overflow from {peer}: {sem.value}+{count} > C0={self.c0}"
            )
        self.credits_received += count
        sem.release(count)

    # -- receiver side -------------------------------------------------------------
    #
    # The receiver-side API is deliberately split so that callers can keep
    # every credit externally visible at any preemption point: a consumed
    # packet is *noted* atomically with its removal from the receive
    # queue, and the counter is *taken* (reset) atomically with enqueueing
    # the refill/piggyback packet that carries it.  A SIGSTOP between the
    # two leaves the credits parked in ``consumed_unreported`` — never in
    # limbo.  (The credit-conservation audits in the test suite rely on
    # this.)

    def note_consumed(self, peer: int) -> None:
        """Record one packet from ``peer`` as consumed (not yet reported)."""
        self._consumed[peer] = self._consumed[peer] + 1

    def refill_due(self, peer: int) -> bool:
        """True when the peer's window (as seen from here) has dropped
        below the low-water mark and an explicit refill should be sent."""
        return self._consumed[peer] >= self.refill_threshold

    def take_refill(self, peer: int) -> int:
        """Atomically take the consume-count for an explicit refill."""
        count, self._consumed[peer] = self._consumed[peer], 0
        if count:
            self.refills_sent += 1
        return count

    def take_piggyback(self, peer: int) -> int:
        """Consume-count to piggyback on a data packet heading to ``peer``."""
        count, self._consumed[peer] = self._consumed[peer], 0
        if count:
            self.refills_piggybacked += 1
        return count
