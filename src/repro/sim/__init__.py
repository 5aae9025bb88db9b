"""Discrete-event simulation kernel.

A minimal, deterministic, generator-based DES in the style of simpy (which
is not available offline).  Simulated entities are Python generators that
``yield`` :class:`~repro.sim.core.Event` objects; the kernel resumes them
when the event triggers.

Public surface:

- :class:`~repro.sim.core.Simulator` — event queue and clock.
- :class:`~repro.sim.core.Event`, :class:`~repro.sim.core.Timeout`,
  :class:`~repro.sim.core.AnyOf`, :class:`~repro.sim.core.AllOf`.
- :class:`~repro.sim.process.Process` — a running coroutine; supports
  ``interrupt`` and (unusually for a DES) ``suspend``/``resume`` which model
  SIGSTOP/SIGCONT in the gang scheduler, and ``yield PARK`` /
  ``Process.wake()`` for an idle point with no calendar entry.
- :mod:`~repro.sim.primitives` — Gate, Store, Resource.
- :class:`~repro.sim.trace.Tracer` — structured event log.
- :class:`~repro.sim.rand.RandomStreams` — named deterministic RNG streams.
"""

from repro.sim.core import AllOf, AnyOf, Event, Simulator, Timeout
from repro.sim.process import PARK, Process
from repro.sim.primitives import Gate, Resource, Store
from repro.sim.rand import RandomStreams
from repro.sim.trace import TraceRecord, Tracer

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "Gate",
    "PARK",
    "Process",
    "RandomStreams",
    "Resource",
    "Simulator",
    "Store",
    "Timeout",
    "TraceRecord",
    "Tracer",
]
