"""Ring-buffer packet queues.

Two flavours, matching where FM puts them:

- :class:`SendQueue` — lives in NIC SRAM; the host library appends, the
  LANai send context pops.
- :class:`ReceiveQueue` — lives in the pinned host DMA buffer; the LANai
  receive context appends (via DMA), ``FM_extract`` pops.

Capacity is counted in packet *slots* (the unit credits protect).  The
queues expose exactly the signalling the firmware and library need:
level-triggered ``wait_nonempty`` (paired with the non-blocking
``try_pop``) and ``wait_space``, and a non-blocking ``append`` that
raises :class:`BufferOverflowError` — with correct flow control an
overflow can never happen, so it is an invariant violation, not an
expected condition (FM has no retransmission; an overflowing queue would
mean silent packet loss and a wedged credit protocol).

A consumer waits, then pops: the packet stays visible in the queue until
the consumer actually runs, so a gang-switched (SIGSTOPped) consumer
never holds one in limbo where occupancy and credit audits cannot see
it.  The race monitor and the buffer policies' wait observers tap
``append``, ``try_pop``, ``drain_all`` and ``load_all``, so the data and
switch paths move packets only through those; they may read ``_items``
and ``capacity`` directly.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional

from repro.errors import BufferOverflowError, ConfigError
from repro.fm.packet import Packet
from repro.hardware.memory import MemoryKind
from repro.sim.core import Event, Simulator


class PacketQueue:
    """Fixed-capacity FIFO of packets with nonempty / space waits."""

    location: MemoryKind = MemoryKind.HOST_RAM

    def __init__(self, sim: Simulator, capacity_packets: int, name: str = ""):
        if capacity_packets < 0:
            raise ConfigError(f"negative queue capacity {capacity_packets}")
        self.sim = sim
        self.capacity = capacity_packets
        self.name = name
        #: optional waiting-time tap (dynamic buffer policies); None on
        #: every hot path unless a PolicyEngine attached one
        self.wait_observer = None
        self._items: Deque[Packet] = deque()
        self._space_waiters: Deque[Event] = deque()
        self._nonempty_waiters: Deque[Event] = deque()
        self._nonempty_callbacks: list[Callable[[], None]] = []
        # statistics
        self.total_appended = 0
        self.total_removed = 0
        self.peak_occupancy = 0
        #: waits that actually blocked (issued while empty/full) — the
        #: stall-clock accountant's per-queue contention counters
        self.space_waits = 0
        self.nonempty_waits = 0

    # -- observers -------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._items)

    @property
    def is_empty(self) -> bool:
        return not self._items

    @property
    def is_full(self) -> bool:
        return len(self._items) >= self.capacity

    @property
    def free_slots(self) -> int:
        # Clamped: a runtime capacity shrink below the current occupancy
        # (dynamic buffer policies) must read as "no free slots", not a
        # negative count.
        free = self.capacity - len(self._items)
        return free if free > 0 else 0

    @property
    def valid_packets(self) -> int:
        """Occupancy snapshot — what Figure 8 samples during a switch."""
        return len(self._items)

    @property
    def valid_bytes(self) -> int:
        return sum(p.size_bytes for p in self._items)

    def snapshot(self) -> list[Packet]:
        """The queue contents, oldest first (used by the buffer switch)."""
        return list(self._items)

    def on_nonempty(self, fn: Callable[[], None]) -> None:
        """Register a kick: ``fn()`` runs whenever a packet is appended to
        a previously observed-empty queue (the firmware's wakeup).

        Idempotent: registering an equal callback again (the firmware
        re-installs a context at every switch-in) keeps one copy."""
        callbacks = self._nonempty_callbacks
        if fn not in callbacks:
            callbacks.append(fn)

    # -- mutation ------------------------------------------------------------
    def append(self, packet: Packet) -> None:
        """Enqueue; raises :class:`BufferOverflowError` when full.

        Hot path (one append per packet on every send and receive
        queue): a single ``len`` serves both the overflow check and the
        peak tracking — append first, then undo on overflow, so the
        common case never measures the queue twice.
        """
        items = self._items
        items.append(packet)
        occupancy = len(items)
        if occupancy > self.capacity:
            items.pop()
            raise BufferOverflowError(
                f"queue {self.name!r} overflow: capacity {self.capacity} packets"
            )
        self.total_appended += 1
        if occupancy > self.peak_occupancy:
            self.peak_occupancy = occupancy
        obs = self.wait_observer
        if obs is not None:
            obs.enqueued(self.sim._now, occupancy)
        waiters = self._nonempty_waiters
        while waiters and items:
            waiters.popleft().succeed()
        for fn in self._nonempty_callbacks:
            fn()

    def try_pop(self) -> Optional[Packet]:
        """Non-blocking dequeue; None when empty.

        The firmware send scan and FM_extract call this once per packet,
        and only after seeing ``_items`` nonempty.
        """
        items = self._items
        if not items:
            return None
        packet = items.popleft()
        self.total_removed += 1
        obs = self.wait_observer
        if obs is not None:
            obs.dequeued(self.sim._now, len(items))
        waiters = self._space_waiters
        if waiters and len(items) < self.capacity:
            # Level-triggered: release everyone while a slot is free (the
            # waiters re-check fullness before appending).
            while waiters:
                waiters.popleft().succeed()
        return packet

    def purge(self, predicate) -> int:
        """Remove every queued packet matching ``predicate``; returns the
        count removed.

        Teardown-path only (the reliability driver strips zombie
        retransmit clones from a finished job's frozen queues): nothing
        here models NIC time, so calling it from a live data path would
        teleport packets out of the simulation.  Removed packets count as
        removed (not silently unappended) so occupancy bookkeeping stays
        conserved, and space waiters are released like any dequeue.
        """
        items = self._items
        kept = [p for p in items if not predicate(p)]
        purged = len(items) - len(kept)
        if purged:
            items.clear()
            items.extend(kept)
            self.total_removed += purged
            waiters = self._space_waiters
            while waiters and len(items) < self.capacity:
                waiters.popleft().succeed()
        return purged

    def wait_nonempty(self) -> Event:
        """Event that succeeds when the queue has (or gets) an item.

        Level-triggered and non-consuming: the waiter must ``try_pop()``
        after waking and re-wait if someone else got there first.
        """
        ev = Event(self.sim)
        if self._items:
            ev.succeed()
        else:
            self.nonempty_waits += 1
            self._nonempty_waiters.append(ev)
        return ev

    def wait_space(self) -> Event:
        """Event that succeeds when at least one slot is free."""
        ev = Event(self.sim)
        if not self.is_full:
            ev.succeed()
        else:
            self.space_waits += 1
            self._space_waiters.append(ev)
        return ev

    # -- dynamic policy support -------------------------------------------------
    def set_capacity(self, capacity_packets: int) -> None:
        """Retarget the capacity at runtime (dynamic buffer policies).

        Growing releases space waiters level-triggered, exactly like a
        pop freeing a slot.  Shrinking **below the current occupancy is
        legal**: resident packets are never dropped; the queue simply
        admits nothing (``is_full``, ``free_slots == 0``) until drains
        bring it back under the new capacity.  Callers are responsible
        for only resizing when the producers are quiesced (the policy
        engine does this inside the flushed switch window).
        """
        if capacity_packets < 0:
            raise ConfigError(f"negative queue capacity {capacity_packets}")
        grew = capacity_packets > self.capacity
        self.capacity = capacity_packets
        if grew and self._space_waiters and len(self._items) < capacity_packets:
            # Level-triggered, matching try_pop: release everyone while a
            # slot is free; waiters re-check fullness before appending.
            while self._space_waiters:
                self._space_waiters.popleft().succeed()

    # -- buffer switching support ----------------------------------------------
    def drain_all(self) -> list[Packet]:
        """Remove and return everything (saving a context to backing store)."""
        packets = list(self._items)
        self._items.clear()
        self.total_removed += len(packets)
        obs = self.wait_observer
        if obs is not None:
            obs.drained()
        while self._space_waiters and not self.is_full:
            self._space_waiters.popleft().succeed()
        return packets

    def load_all(self, packets: list[Packet]) -> None:
        """Refill from a backing store (restoring a context)."""
        if len(self._items) + len(packets) > self.capacity:
            raise BufferOverflowError(
                f"queue {self.name!r}: restoring {len(packets)} packets "
                f"into {self.free_slots} free slots"
            )
        for packet in packets:
            self.append(packet)


class SendQueue(PacketQueue):
    """Per-context send queue in NIC SRAM (written via WC PIO)."""

    location = MemoryKind.NIC_SRAM


class ReceiveQueue(PacketQueue):
    """Per-context receive queue in the pinned host DMA buffer."""

    location = MemoryKind.PINNED_RAM
