"""Synchronisation primitives built on the event kernel.

These are deliberately small: the hardware and protocol models use them to
express waiting (for queue slots, for credits, for gates opened by control
messages) without hand-rolling callback plumbing.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from repro.errors import SimulationError
from repro.sim.core import Event, Simulator


class Gate:
    """A reusable open/closed barrier.

    ``wait()`` returns an event that succeeds immediately if the gate is
    open, otherwise when the gate next opens.  Used e.g. for the LANai
    "halt bit": the firmware waits on the gate before sending each packet.
    """

    def __init__(self, sim: Simulator, opened: bool = True):
        self.sim = sim
        self._open = opened
        self._waiters: list[Event] = []

    @property
    def is_open(self) -> bool:
        return self._open

    def wait(self) -> Event:
        ev = Event(self.sim)
        if self._open:
            ev.succeed()
        else:
            self._waiters.append(ev)
        return ev

    def open(self) -> None:
        """Open the gate and release all waiters (idempotent)."""
        self._open = True
        waiters, self._waiters = self._waiters, []
        for ev in waiters:
            ev.succeed()

    def close(self) -> None:
        self._open = False


class Store:
    """An unbounded-or-bounded FIFO of items with blocking get/put.

    The workhorse for modelling queues of control messages between
    daemons.  (Data-plane packet queues use the dedicated ring-buffer
    models in :mod:`repro.fm.queues`, which track byte occupancy.)
    """

    def __init__(self, sim: Simulator, capacity: Optional[int] = None):
        if capacity is not None and capacity <= 0:
            raise SimulationError(f"Store capacity must be positive, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple[Event, Any]] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> Event:
        """Returns an event that succeeds once the item is enqueued."""
        ev = Event(self.sim)
        if self.capacity is not None and len(self.items) >= self.capacity:
            self._putters.append((ev, item))
        else:
            self.items.append(item)
            ev.succeed()
            self._serve_getters()
        return ev

    def get(self) -> Event:
        """Returns an event that succeeds with the next item."""
        ev = Event(self.sim)
        self._getters.append(ev)
        self._serve_getters()
        return ev

    def try_get(self) -> Any:
        """Non-blocking get; returns None when empty (items must be truthy
        or callers must check ``len`` first)."""
        if not self.items:
            return None
        item = self.items.popleft()
        self._serve_putters()
        return item

    def _serve_getters(self) -> None:
        while self._getters and self.items:
            getter = self._getters.popleft()
            getter.succeed(self.items.popleft())
            self._serve_putters()

    def _serve_putters(self) -> None:
        while self._putters and (self.capacity is None or len(self.items) < self.capacity):
            ev, item = self._putters.popleft()
            self.items.append(item)
            ev.succeed()


class Resource:
    """``capacity`` interchangeable slots; FIFO request/release."""

    def __init__(self, sim: Simulator, capacity: int = 1):
        if capacity <= 0:
            raise SimulationError(f"Resource capacity must be positive, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self._in_use = 0
        self._waiters: Deque[Event] = deque()

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def available(self) -> int:
        return self.capacity - self._in_use

    def request(self) -> Event:
        ev = Event(self.sim)
        if self._in_use < self.capacity:
            self._in_use += 1
            ev.succeed()
        else:
            self._waiters.append(ev)
        return ev

    def release(self) -> None:
        if self._in_use <= 0:
            raise SimulationError("release() without matching request()")
        if self._waiters:
            self._waiters.popleft().succeed()
        else:
            self._in_use -= 1


class Semaphore:
    """A counting semaphore; ``acquire(n)`` blocks until n units available.

    The credit counters in :mod:`repro.fm.credits` are built on this.
    """

    def __init__(self, sim: Simulator, value: int = 0):
        if value < 0:
            raise SimulationError(f"Semaphore value must be >= 0, got {value}")
        self.sim = sim
        self._value = value
        self._waiters: Deque[tuple[Event, int]] = deque()
        self._observers: Deque[tuple[Event, int]] = deque()

    @property
    def value(self) -> int:
        return self._value

    def acquire(self, n: int = 1) -> Event:
        if n <= 0:
            raise SimulationError(f"acquire() needs a positive count, got {n}")
        ev = Event(self.sim)
        self._waiters.append((ev, n))
        self._drain()
        return ev

    def try_acquire(self, n: int = 1) -> bool:
        """Non-blocking acquire; only succeeds if no one is queued ahead."""
        if not self._waiters and self._value >= n:
            self._value -= n
            return True
        return False

    def release(self, n: int = 1) -> None:
        if n <= 0:
            raise SimulationError(f"release() needs a positive count, got {n}")
        self._value += n
        if self._waiters or self._observers:   # else _drain is a no-op
            self._drain()

    def reclaim(self, n: int = 1) -> int:
        """Take up to ``n`` units immediately, bypassing the waiter queue.

        The revocation primitive (credit-window shrinks): unlike
        ``try_acquire`` it does not yield priority to queued waiters —
        the whole point is to remove units before they are handed out.
        Returns how many units were actually taken (never negative).
        """
        if n < 0:
            raise SimulationError(f"reclaim() needs a non-negative count, got {n}")
        take = n if n <= self._value else self._value
        self._value -= take
        return take

    def wait_value(self, n: int = 1) -> Event:
        """Event that fires when the count reaches ``n`` — WITHOUT taking.

        Level-triggered observation: the waiter must ``try_acquire`` after
        waking and re-wait on failure.  Unlike ``acquire``, nothing is
        held inside the event, so an observer that is SIGSTOPped between
        the trigger and its wakeup leaves the units visible to everyone
        (the credit-conservation audits depend on this).
        """
        if n <= 0:
            raise SimulationError(f"wait_value() needs a positive count, got {n}")
        ev = Event(self.sim)
        if self._value >= n and not self._waiters:
            ev.succeed()
        else:
            self._observers.append((ev, n))
        return ev

    def _drain(self) -> None:
        # FIFO: a large acquire at the head blocks smaller ones behind it,
        # mirroring in-order packet admission.
        while self._waiters and self._value >= self._waiters[0][1]:
            ev, n = self._waiters.popleft()
            self._value -= n
            ev.succeed()
        if not self._waiters and self._observers:
            still = deque()
            for ev, n in self._observers:
                if self._value >= n:
                    ev.succeed()
                else:
                    still.append((ev, n))
            self._observers = still
