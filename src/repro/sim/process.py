"""Generator-based simulated processes.

A :class:`Process` drives a Python generator: each value the generator
yields must be an :class:`~repro.sim.core.Event` — or a bare number,
meaning "sleep that many seconds".  The process sleeps until the event is
processed and is then resumed with the event's value (or the event's
exception is thrown into it).

``yield delay`` is the fast form of ``yield sim.timeout(delay)``: the
process is parked directly in the event calendar (no Timeout object, no
callback list), tagged with the calendar entry's sequence number so a
stale entry left behind by an interrupt is recognised and skipped.  Both
forms consume exactly one sequence number and wake at the same
(time, seq) calendar position, so they are interchangeable without
perturbing event order.

``yield PARK`` idles a process with *no* calendar entry at all, until
some other activity calls :meth:`Process.wake`.  Waking pushes the
process at the current instant exactly like a zero-second sleep: one
sequence number, the same (time, seq) slot, one processed event — the
same accounting as the ``yield ev`` / ``ev.succeed()`` idiom it replaces,
without materialising an Event per idle period.  A second wake before
the process runs is a no-op.  Server loops with a single waker-agnostic
idle point (the LANai firmware) use it; everything else waits on Events.

Beyond the usual DES process semantics, this class supports
``suspend()``/``resume()``, which model POSIX SIGSTOP/SIGCONT: the ParPar
``noded`` stops the running application process before flushing the network
and continues it after the buffer switch.  While suspended a process makes
no progress; a wake-up event that fires during suspension is *deferred* and
delivered when the process is resumed.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.errors import InterruptError, SimulationError
from repro.sim.core import _UNSET, Event, Simulator


class _Park:
    """The :data:`PARK` sentinel's type (one instance, never an Event)."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "PARK"


#: ``yield PARK``: idle with no calendar entry until :meth:`Process.wake`.
PARK = _Park()


class Process(Event):
    """A running simulated activity.

    The process object is itself an event that triggers when the generator
    terminates: it succeeds with the generator's return value, or fails
    with the uncaught exception (when someone is waiting on it; otherwise
    the exception propagates out of the simulation loop to aid debugging).
    """

    __slots__ = ("name", "_gen", "_target", "_suspended", "_deferred",
                 "_pending_interrupt", "_sleep_token", "_event_seq",
                 "_parked")

    def __init__(self, sim: Simulator, generator: Generator, name: str = ""):
        super().__init__(sim)
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(f"Process needs a generator, got {generator!r}")
        self.name = name or getattr(generator, "__name__", "process")
        self._gen = generator
        self._target: Optional[Event] = None
        self._suspended = False
        self._deferred: Optional[Event] = None
        self._pending_interrupt: Optional[list] = None
        self._event_seq = -1   # seq of our termination entry in the calendar
        self._parked = False   # idle on ``yield PARK``, no calendar entry
        # Kick off at the current instant (but not synchronously), parked
        # directly in the event calendar like a zero-second sleep: the run
        # loop resumes us with send(None), which starts the generator.
        self._sleep_token = sim._push(sim._now, self)
        sim._live[self] = None

    # A Process is pushed into the calendar more than once (sleep entries
    # plus its own termination event), so the termination entry records its
    # seq and the run loop dispatches it only at the matching entry.
    def succeed(self, value: Any = None) -> "Process":
        if self._value is not _UNSET:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        sim = self.sim
        self._event_seq = sim._push(sim._now, self)
        sim._live.pop(self, None)
        return self

    def fail(self, exc: BaseException) -> "Process":
        sim = self.sim
        seq = sim._seq
        Event.fail(self, exc)
        self._event_seq = seq
        sim._live.pop(self, None)
        return self

    # -- state --------------------------------------------------------------
    @property
    def is_alive(self) -> bool:
        """True while the generator has not terminated."""
        return self._value is _UNSET

    @property
    def is_suspended(self) -> bool:
        return self._suspended

    @property
    def target(self) -> Optional[Event]:
        """The event this process currently waits for (None while running)."""
        return self._target

    # -- park / wake ----------------------------------------------------------
    def wake(self) -> bool:
        """Reschedule a process idling on ``yield PARK`` at the current instant.

        Routed like a zero-second sleep (one seq, one processed event);
        returns False and does nothing unless the process is parked, so
        several wakes in one instant run it once.
        """
        if not self._parked:
            return False
        self._parked = False
        sim = self.sim
        self._sleep_token = sim._push(sim._now, self)
        return True

    # -- SIGSTOP / SIGCONT ----------------------------------------------------
    def suspend(self) -> None:
        """Freeze the process: no further generator steps until resume().

        Idempotent.  May only be called from outside the process itself.
        """
        if self._value is not _UNSET:
            return
        self._suspended = True

    def resume(self) -> None:
        """Unfreeze; any wake-up deferred during suspension is delivered now.

        Delivery happens at the current simulated instant but through the
        event queue, preserving deterministic ordering.
        """
        if self._value is not _UNSET or not self._suspended:
            self._suspended = False
            return
        self._suspended = False
        if self._pending_interrupt is not None:
            causes, self._pending_interrupt = self._pending_interrupt, None
            self._deferred = None
            for cause in causes[:1]:  # deliver a single interrupt
                self._schedule_interrupt(cause)
        elif self._deferred is not None:
            deferred, self._deferred = self._deferred, None
            relay = Event(self.sim)
            relay.add_callback(lambda _ev: self._step(deferred))
            relay.succeed()

    # -- interrupts -----------------------------------------------------------
    def interrupt(self, cause: Any = None) -> bool:
        """Throw :class:`InterruptError` into the process at the current time.

        Returns False (and does nothing) if the process already terminated.
        If the process is suspended, the interrupt is deferred and delivered
        on resume — a stopped process cannot run signal handlers either.
        """
        if self._value is not _UNSET:
            return False
        if self._suspended:
            if self._pending_interrupt is None:
                self._pending_interrupt = []
            self._pending_interrupt.append(cause)
            return True
        self._schedule_interrupt(cause)
        return True

    def _schedule_interrupt(self, cause: Any) -> None:
        poke = Event(self.sim)
        poke.add_callback(lambda _ev: self._deliver_interrupt(cause))
        poke.succeed()

    def _deliver_interrupt(self, cause: Any) -> None:
        if self._value is not _UNSET:
            return
        self._detach()
        self._advance(InterruptError(cause), throw=True)

    def _detach(self) -> None:
        """Stop waiting: the old event may still fire but must no longer
        wake us.  A pending bare-number sleep is invalidated by the token
        (its heap entry pops as stale)."""
        self._sleep_token = -1
        self._parked = False
        target = self._target
        if target is not None:
            if target._waiter is self:
                target._waiter = None
            else:
                target.remove_callback(self._step)
            self._target = None

    def _close(self) -> None:
        """Run teardown (:meth:`Simulator.close`): detach, drop any
        deferred wake or interrupt and the waiters on our termination
        (which can no longer come), and close the generator."""
        self._detach()
        self._deferred = None
        self._pending_interrupt = None
        self.callbacks = []
        self._waiter = None
        self._gen.close()

    # -- generator driving ------------------------------------------------------
    def _step(self, event: Optional[Event], _unset=_UNSET) -> None:
        """Callback: the event we were waiting on has been processed.

        Fast path only — failure delivery goes through :meth:`_advance`.
        """
        if self._value is not _unset:  # generator already terminated
            return
        if self._suspended:
            self._deferred = event
            return
        self._target = None
        if event is not None and not event._ok:
            self._advance(event._value, throw=True)
            return
        try:
            nxt = self._gen.send(None if event is None else event._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:
            if self.callbacks or self._waiter is not None:
                self.fail(exc)
                return
            raise
        self._wait_on(nxt)

    def _advance(self, value: Any, throw: bool) -> None:
        try:
            if throw:
                if isinstance(value, BaseException):
                    nxt = self._gen.throw(value)
                else:  # pragma: no cover - defensive
                    nxt = self._gen.throw(SimulationError(repr(value)))
            else:
                nxt = self._gen.send(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:
            if self.callbacks or self._waiter is not None:
                self.fail(exc)
                return
            raise
        self._wait_on(nxt)

    def _wait_on(self, nxt: Any) -> None:
        """Park the process on whatever the generator just yielded."""
        if nxt is PARK:
            self._parked = True
            return
        cls = nxt.__class__
        if cls is float or cls is int:
            # Bare-number sleep: park directly in the event calendar
            # (subclasses fall back to a real Timeout so the run loop's
            # exact-class dispatch stays correct for them).
            if nxt < 0:
                raise SimulationError(
                    f"process {self.name!r} yielded a negative sleep {nxt}")
            if type(self) is Process:
                sim = self.sim
                self._sleep_token = sim._push(sim._now + nxt, self)
                return
            nxt = self.sim.timeout(nxt)
        if not isinstance(nxt, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {nxt!r}; processes must yield Events"
            )
        if nxt.sim is not self.sim:
            raise SimulationError(f"process {self.name!r} yielded an event from another simulator")
        self._target = nxt
        callbacks = nxt.callbacks
        if callbacks is None:  # already processed: wake immediately
            self._step(nxt)
        elif nxt._waiter is None and not callbacks:
            nxt._waiter = self
        else:
            callbacks.append(self._step)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "dead" if not self.is_alive else ("suspended" if self._suspended else "alive")
        return f"<Process {self.name!r} {state}>"


# Let the kernel's dispatch recognise exact-Process calendar entries; the
# import is circular the other way, so the binding happens here.
from repro.sim import core as _core  # noqa: E402

_core._PROC_CLS = Process
