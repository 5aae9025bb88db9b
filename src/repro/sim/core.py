"""Simulation clock, event calendar, and event types.

The kernel is deterministic: events scheduled for the same instant are
processed in scheduling order (FIFO), using a monotonically increasing
sequence number as the tie-breaker.  The total dispatch order is
``(time, seq)``.

The calendar is one binary heap of ``(when, seq, entry)`` tuples.  Seqs
are unique, so two entries never compare past their seq.  An entry is an
:class:`Event`, or an exact :class:`~repro.sim.process.Process` pushed
directly by a bare-number sleep (``yield delay``), a ``wake()`` or its
own termination; dispatch matches such an entry's seq against the
process's sleep token and termination seq, and skips a stale one (left
behind by an interrupt) while still counting it.

:meth:`Simulator.run` and :meth:`Simulator.run_until_processed` share
one hand-written loop, :meth:`Simulator._loop`; the horizon, event
budget, watched event and profiler are per-run locals checked per
entry.  :meth:`Simulator.step` is the reference implementation of one
dispatch, and ``tests/property/test_kernel_oracle.py`` replays random
workloads through both paths.

The most common waiter — a single simulated process parked on the event
— is stored in a dedicated ``_waiter`` slot instead of the callback
list.  Dispatch order is preserved: the slot is only used when the
callback list is empty at wait time, so "waiter first, then list"
equals registration order.

The run loop is not re-entrant: a callback must not call
:meth:`Simulator.run`/:meth:`Simulator.step` on the same simulator.

:meth:`Simulator.close` ends a run for good.  A parked process, the
event it waits on and the simulator reference one another, so an
unfinished run is cyclic garbage; closing every unfinished process and
clearing the calendar cuts those cycles, and reference counting frees
the run when its last reference goes.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from time import perf_counter  # simlint: ignore[SIM001] -- profiler accounts host wall time; never feeds sim state
from typing import Any, Callable, Generator, Iterable, Optional

from repro.errors import SimulationError

_UNSET = object()
_INF = float("inf")


class _SleepWake:
    """Stand-in 'event' delivered to a process woken from a bare-number
    sleep (``yield delay``): always successful, carries no value.  Lets the
    suspend/defer/resume machinery treat sleep wake-ups like event
    wake-ups without materialising a real Event."""

    __slots__ = ()
    _ok = True
    _value = None


_SLEEP_WAKE = _SleepWake()

# Bound to the Process class by repro.sim.process at import time (the
# import is circular the other way).  Until then no Process can exist,
# so the dispatch check ``ev.__class__ is _PROC_CLS`` never matches.
_PROC_CLS: Optional[type] = None


class Event:
    """A one-shot occurrence in simulated time.

    An event starts *untriggered*.  Calling :meth:`succeed` or :meth:`fail`
    *triggers* it and schedules it for processing at the current instant;
    when the kernel processes it, all registered callbacks run and the
    event becomes *processed*.  Yielding an event from a process generator
    suspends the process until the event is processed.

    ``_waiter`` is the kernel-internal fast slot: it holds at most one
    :class:`~repro.sim.process.Process` parked on this event (set by the
    process itself, and only while the callback list is empty, which
    keeps dispatch order identical to plain ``add_callback`` use).
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_waiter")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[list] = []
        self._value: Any = _UNSET
        self._ok: Optional[bool] = None
        self._waiter = None

    # -- state ------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once succeed()/fail() has been called."""
        return self._value is not _UNSET

    @property
    def processed(self) -> bool:
        """True once callbacks have been run."""
        return self.callbacks is None

    @property
    def ok(self) -> Optional[bool]:
        """True if succeeded, False if failed, None if untriggered."""
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is _UNSET:
            raise SimulationError(f"{self!r} has no value yet")
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _UNSET:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        sim = self.sim
        sim._push(sim._now, self)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event with an exception to raise in waiters."""
        if not isinstance(exc, BaseException):
            raise TypeError(f"fail() needs an exception, got {exc!r}")
        if self._value is not _UNSET:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._value = exc
        self.sim._push(self.sim._now, self)
        return self

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Register ``fn(event)`` to run when the event is processed.

        If the event was already processed the callback fires immediately.
        """
        if self.callbacks is None:
            fn(self)
        else:
            self.callbacks.append(fn)

    def remove_callback(self, fn: Callable[["Event"], None]) -> None:
        w = self._waiter
        if w is not None and (fn is w or getattr(fn, "__self__", None) is w):
            # The waiter parks either itself or its bound _step here.
            self._waiter = None
            return
        if self.callbacks is not None and fn in self.callbacks:
            self.callbacks.remove(fn)

    def _run_callbacks(self) -> None:
        """Process the event: wake the waiter, then run the callbacks."""
        callbacks, self.callbacks = self.callbacks, None
        waiter, self._waiter = self._waiter, None
        if waiter is not None:
            waiter._step(self)
        if callbacks:
            for fn in callbacks:
                fn(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "processed" if self.processed else ("triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {hex(id(self))}>"


class Timeout(Event):
    """An event that triggers ``delay`` seconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay}")
        self.sim = sim
        self.callbacks = []
        self._ok = True
        self._value = value
        self._waiter = None
        self.delay = delay
        sim._push(sim._now + delay, self)


class _Condition(Event):
    """Base for AnyOf/AllOf composite events."""

    __slots__ = ("events", "_n_done")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = tuple(events)
        self._n_done = 0
        if not self.events:
            self.succeed(self._collect())
            return
        for ev in self.events:
            ev.add_callback(self._check)

    def _collect(self) -> dict:
        return {ev: ev._value for ev in self.events if ev.processed and ev._ok}

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if event._ok is False:
            self.fail(event._value)
            return
        self._n_done += 1
        if self._satisfied():
            self.succeed(self._collect())

    def _satisfied(self) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError


class AnyOf(_Condition):
    """Triggers when any constituent event has been processed."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._n_done >= 1


class AllOf(_Condition):
    """Triggers when all constituent events have been processed."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._n_done >= len(self.events)


class Simulator:
    """The event loop: a clock plus a ``(when, seq, entry)`` heap."""

    __slots__ = ("_now", "_queue", "_seq", "_processed_count", "profiler",
                 "_live", "next_msg_id", "next_seq")

    def __init__(self):
        self._now: float = 0.0
        self._queue: list = []
        self._seq: int = 0
        self._processed_count: int = 0
        #: The attached :class:`~repro.telemetry.profiler.KernelProfiler`,
        #: or None.  The run loop reads it once per ``run()`` call and,
        #: with one attached, observes every entry, which changes nothing
        #: observable (the telemetry determinism tests pin this).
        self.profiler = None
        # Unfinished processes in start order (a dict, not a set, so
        # close() visits them deterministically).
        self._live: dict = {}
        #: The run's FM message ids and wire packet seqs, each drawn by a
        #: call and counted from 0, so the same run numbers its messages
        #: and packets the same whatever the process simulated before.
        self.next_msg_id: Callable[[], int] = count().__next__
        self.next_seq: Callable[[], int] = count().__next__

    # -- clock ------------------------------------------------------------
    def clock(self) -> float:
        """Current simulated time in seconds (:attr:`now` as a method: a
        tracer clock that costs one call)."""
        return self._now

    now = property(clock, doc="Current simulated time in seconds.")

    @property
    def processed_events(self) -> int:
        """Total number of events processed so far (for diagnostics).

        Inside the run loop this is refreshed when the loop exits, not
        per event — read it between runs, not from callbacks.
        """
        return self._processed_count

    # -- event construction -------------------------------------------------
    def event(self) -> Event:
        """A fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> "Process":
        """Start a new simulated process running ``generator``."""
        from repro.sim.process import Process

        return Process(self, generator, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- teardown -----------------------------------------------------------
    def close(self) -> None:
        """End the run: close every unfinished process, then clear the calendar.

        Each process is first detached from the event it waits on, then
        its generator is closed, which runs its ``finally`` clauses.
        Those may still trigger events or start processes, so the
        calendar is cleared only after the last generator is closed.
        The clock and :attr:`processed_events` keep their values.
        Idempotent.
        """
        live = self._live
        while live:
            procs = list(live)
            live.clear()
            for proc in procs:
                proc._close()
        self._queue.clear()

    # -- scheduling ---------------------------------------------------------
    def _push(self, when: float, event: Event) -> int:
        """Insert ``event`` into the calendar at ``when``; returns its seq."""
        seq = self._seq
        self._seq = seq + 1
        heappush(self._queue, (when, seq, event))
        return seq

    def _post(self, event: Event, delay: float = 0.0) -> None:
        """Insert a triggered event into the calendar ``delay`` from now.

        ``delay`` must be non-negative: scheduling into the past would
        silently break clock monotonicity.
        """
        if delay < 0:
            raise SimulationError(f"negative _post delay {delay}")
        self._push(self._now + delay, event)

    def peek(self) -> float:
        """Time of the next event, or ``inf`` if the calendar is empty."""
        return self._queue[0][0] if self._queue else _INF

    def step(self) -> None:
        """Process exactly one event (or sleeping-process wake-up).

        This is the hand-written reference implementation of dispatch;
        :meth:`_loop` mirrors it (the kernel-oracle property test replays
        random workloads through both paths).
        """
        if not self._queue:
            raise SimulationError("step() on an empty event queue")
        when, seq, event = heappop(self._queue)
        self._now = when
        self._processed_count += 1
        if event.__class__ is _PROC_CLS:
            # A Process in the calendar is either a bare-number sleep entry
            # (valid iff its token matches this entry's seq), the
            # process's own termination event, or a stale sleep left by
            # an interrupt (skipped; seed semantics popped the orphaned
            # timeout the same way).
            if event._sleep_token == seq:
                event._step(_SLEEP_WAKE)
                return
            if event._event_seq != seq:
                return
        event._run_callbacks()

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run until the calendar drains, ``until`` is reached, or event budget.

        ``until`` is an absolute simulated time; on return ``now`` equals
        ``until`` if the horizon was hit, else the time of the last event.
        An ``until`` before ``now`` is a no-op.  ``max_events`` guards
        against runaway simulations.
        """
        if until is not None and until < self._now:
            return
        self._loop(until, None, max_events)
        if until is not None and until > self._now:
            self._now = until

    def run_until_processed(self, event: Event, max_events: Optional[int] = None) -> Any:
        """Run until ``event`` is processed; returns its value (raises on fail)."""
        if event.callbacks is None or self._loop(None, event, max_events):
            if event._ok is False:
                raise event._value
            return event._value
        raise SimulationError("event queue drained before event triggered (deadlock?)")

    def _loop(self, until: Optional[float], watch: Optional[Event],
              max_events: Optional[int]) -> bool:
        """Dispatch entries in ``(time, seq)`` order; the core of both runs.

        Returns True once ``watch`` is processed, False when the calendar
        drains or its next entry lies past ``until`` (which then becomes
        ``now``).  The budget is checked before an entry is popped, so
        running out leaves the calendar, the clock and
        :attr:`processed_events` as they were.
        """
        queue = self._queue
        pop = heappop
        proc_cls = _PROC_CLS
        wake = _SLEEP_WAKE
        horizon = _INF if until is None else until
        budget = _INF if max_events is None else max_events
        count = 0
        prof = self.profiler
        if prof is not None:
            observe = prof.observe
            prev_now = self._now
            t0 = perf_counter()  # simlint: ignore[SIM001] -- profiler accounts host wall time; never feeds sim state
        try:
            while queue:
                if queue[0][0] > horizon:
                    self._now = until
                    return False
                if count >= budget:
                    where = "" if watch is not None else "run() "
                    raise SimulationError(f"{where}exceeded max_events={max_events}")
                when, seq, ev = pop(queue)
                self._now = when
                count += 1
                if prof is not None:
                    observe(prev_now, when, ev)
                    prev_now = when
                if ev.__class__ is proc_cls:
                    # Sleep wake-up, termination, or stale entry: see step().
                    if ev._sleep_token == seq:
                        ev._step(wake)
                        continue
                    if ev._event_seq != seq:
                        continue
                callbacks = ev.callbacks
                ev.callbacks = None
                waiter = ev._waiter
                if waiter is not None:
                    ev._waiter = None
                    waiter._step(ev)
                if callbacks:
                    for fn in callbacks:
                        fn(ev)
                if watch is not None and watch.callbacks is None:
                    return True
            return False
        finally:
            self._processed_count += count
            if prof is not None:
                prof.account_events(count)
                prof.account_wall(perf_counter() - t0)  # simlint: ignore[SIM001] -- profiler accounts host wall time; never feeds sim state
