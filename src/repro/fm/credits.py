"""FM's credit-based flow control (paper Section 2.2).

Each process holds, *per peer node*, two counters: how many packets it may
still send to that peer (one credit = one receive-queue slot reserved
there), and how many packets it has consumed from that peer since it last
told the peer about them.  Credits are returned by **refill** messages —
sent explicitly when the peer's remaining credits (as seen from here)
fall below the low-water mark, or piggybacked on any data packet already
travelling in the reverse direction.

Both counters are plain ints in a dict keyed by peer, as in the paper.
There is no semaphore object per peer: the only blocking operation is
the level-triggered :meth:`CreditState.wait_send`, so the state of a peer
nobody is waiting on is one integer, and a waiter list exists only for a
peer some sender is blocked on.  A run holds one credit counter per
(context, peer) pair — O(nodes²) of them — so a per-peer object with its
own queues is what would make node scaling expensive.

``c0 == 0`` is a legal configuration (it is exactly what the original
static partitioning produces at 7-8 contexts) and means communication is
impossible; :meth:`~CreditState.try_acquire_send` and
:meth:`~CreditState.wait_send` raise :class:`CreditError` so callers can
report zero bandwidth rather than deadlock.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.errors import CreditError
from repro.sim.core import Event, Simulator


class CreditState:
    """Per-context flow-control state (lives in process memory).

    A credit toward a peer wakes every sender waiting on that peer, in
    the order they started waiting; a sender re-checks with
    :meth:`try_acquire_send` when it runs, so a wakeup never holds a
    credit (see :meth:`wait_send`).
    """

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
        #: peer -> credits available for sending to it (never negative)
        self._credits: dict[int, int] = dict.fromkeys(peers, c0)
        self._consumed: dict[int, int] = dict.fromkeys(self._credits, 0)
        #: peer -> wait_send events not yet fired; a key exists only
        #: while some sender is blocked on that peer
        self._waiting: dict[int, list[Event]] = {}
        #: the peer set is fixed at construction; sorted once
        self._peers: tuple[int, ...] = tuple(sorted(self._credits))
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
        try:
            return self._credits[peer]
        except KeyError:
            raise CreditError(f"unknown peer node {peer}") from None

    def reclaimable(self) -> Optional[int]:
        """Credits a uniform window shrink could take back right now.

        The minimum availability over peers (see :meth:`set_window`);
        None for a context with no peers.
        """
        credits = self._credits
        return min(credits.values()) if credits else None

    def consumed_unreported(self, peer: int) -> int:
        """Packets consumed from ``peer`` not yet refilled back to it."""
        return self._consumed[peer]

    # -- sender side -------------------------------------------------------------
    def try_acquire_send(self, peer: int) -> bool:
        """Atomically take one credit toward ``peer`` if available now.

        FM_send calls this once per packet, so the window check and the
        peer lookup run inline here.
        """
        if self.c0 == 0:
            self._require_window()
        credits = self._credits
        try:
            left = credits[peer]
        except KeyError:
            raise CreditError(f"unknown peer node {peer}") from None
        if left:
            credits[peer] = left - 1
            return True
        return False

    def wait_send(self, peer: int) -> Event:
        """Level-triggered: fires when a credit toward ``peer`` appears
        (without taking it); pair with ``try_acquire_send`` in a loop.

        Nothing is held inside the event, so a sender SIGSTOPped between
        the wakeup and its retry leaves the credit visible to everyone
        (the credit-conservation audits depend on this).  With a credit
        already available the event fires at once.
        """
        self._require_window()
        self.send_waits += 1
        left = self.available(peer)
        event = Event(self.sim)
        if left:
            event.succeed()
        else:
            waiting = self._waiting.get(peer)
            if waiting is None:
                self._waiting[peer] = [event]
            else:
                waiting.append(event)
        return event

    def _wake(self, peer: int) -> None:
        """A credit toward ``peer`` appeared: fire its waiters in order."""
        waiting = self._waiting.pop(peer, None)
        if waiting is not None:
            for event in waiting:
                event.succeed()

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
            credits = self._credits
            waiting = self._waiting
            for peer in self._peers:
                credits[peer] += delta
                if peer in waiting:
                    self._wake(peer)
            achieved = new_c0
        elif new_c0 < self.c0:
            want = self.c0 - new_c0
            reclaimable = self.reclaimable()
            take = want if reclaimable is None else min(want, reclaimable)
            if take:
                credits = self._credits
                for peer in self._peers:
                    credits[peer] -= take
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
        left = self.available(peer)
        if left + count > self.c0:
            raise CreditError(
                f"refill overflow from {peer}: {left}+{count} > C0={self.c0}"
            )
        self.credits_received += count
        self._credits[peer] = left + count
        if peer in self._waiting:
            self._wake(peer)

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
