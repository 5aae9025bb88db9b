"""Kernel profiler: per-component event counts and simulated-time shares.

Attach a :class:`KernelProfiler` to a :class:`~repro.sim.core.Simulator`
(``sim.profiler = KernelProfiler()``) and the kernel attributes dispatched
events to *components* — the digit-stripped name of the simulated process
that the event wakes (``noded3-switch17`` and ``noded7-switch2`` both
become ``noded-switch``), or a ``kernel.*`` pseudo-component for
process-free callback dispatch.  Per component the profiler accumulates
the event count and the simulated time that elapsed while that
component's event was next in line, answering "where do my 10^7 events
go?" for experiment-scale runs.

The kernel's one run loop in ``sim/core.py`` reads the attached
profiler once per ``run()`` call into a local, so with none attached each
dispatched entry pays a single ``is not None`` test; with one attached
it calls :meth:`observe` on every entry.  The hook only reads the entry,
so profiled and unprofiled simulations produce identical results (pinned
by ``tests/telemetry/test_determinism.py``).  The kernel accounts the
number of dispatched entries once per run via :meth:`account_events`,
so :attr:`events` always equals the simulator's ``processed_events``.

Wall-clock throughput (the events/s self-benchmark) is accumulated at
run-loop boundaries via :meth:`account_wall` and never enters the
deterministic snapshot unless explicitly asked for with
``include_wall=True``.
"""

from __future__ import annotations

import re

from repro.sim.process import Process

_DIGITS = re.compile(r"\d+")
_DASHES = re.compile(r"-{2,}")


def component_of(name: str) -> str:
    """Collapse a process name to its component: strip run numbers.

    ``noded3-switch17`` -> ``noded-switch``; ``app-j1-r0`` -> ``app-j-r``;
    ``lanai-4`` -> ``lanai``.
    """
    collapsed = _DASHES.sub("-", _DIGITS.sub("", name)).strip("-")
    return collapsed or "anonymous"


class KernelProfiler:
    """Attributes processed events and simulated time to components."""

    def __init__(self):
        self.events = 0           # exact count, via account_events()
        self.wall_seconds = 0.0
        # component -> [event_count, sim_seconds]
        self._components: dict[str, list] = {}
        # process name or entry class -> its component's cell
        self._cells: dict = {}

    # ------------------------------------------------------------------ kernel hooks
    def observe(self, prev_now: float, when: float, event) -> None:
        """Attribute one dispatched entry (kernel-internal).

        ``prev_now`` is the clock before this entry, ``when`` its
        timestamp; the delta is the simulated time charged to it.
        Attribution: a Process entry (sleep wake-up or
        termination) belongs to that process; an event with a parked
        process waiter belongs to the waiter; anything else is generic
        kernel callback dispatch, by the entry's class.  Each process
        name and entry class maps straight to its component's cell, so
        an entry costs one dict lookup.
        """
        if event.__class__ is Process:
            key = event.name
        else:
            waiter = event._waiter
            key = event.__class__ if waiter is None else waiter.name
        cell = self._cells.get(key)
        if cell is None:
            self._first(key, when - prev_now)
        else:
            cell[0] += 1
            cell[1] += when - prev_now

    def _first(self, key, elapsed: float) -> None:
        """Observe the first entry of a process name or entry class."""
        if isinstance(key, str):
            component = component_of(key)
        else:
            component = ("kernel.timeout" if key.__name__ == "Timeout"
                         else "kernel.event")
        cell = self._components.get(component)
        if cell is None:
            cell = self._components[component] = [1, elapsed]
        else:
            cell[0] += 1
            cell[1] += elapsed
        self._cells[key] = cell

    def account_events(self, n: int) -> None:
        """Add the exact number of entries a profiled run loop dispatched."""
        self.events += n

    def account_wall(self, seconds: float) -> None:
        """Add wall-clock spent inside a profiled run loop."""
        self.wall_seconds += seconds

    # ------------------------------------------------------------------ reporting
    @property
    def events_per_sec(self) -> float:
        """The events/s self-benchmark over all profiled run loops."""
        return self.events / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def snapshot(self, include_wall: bool = False) -> dict:
        """JSON-ready profile.  Deterministic unless ``include_wall``."""
        components = {
            name: {"events": cell[0], "sim_seconds": cell[1]}
            for name, cell in sorted(self._components.items())
        }
        out = {"events": self.events, "components": components}
        if include_wall:
            out["self_benchmark"] = {
                "wall_seconds": self.wall_seconds,
                "events_per_sec": self.events_per_sec,
            }
        return out

    def publish(self, registry, prefix: str = "kernel") -> None:
        """Mirror the deterministic profile into a MetricsRegistry."""
        registry.counter(f"{prefix}.events").inc(self.events)
        for name, cell in sorted(self._components.items()):
            registry.counter(f"{prefix}.{name}.events").inc(cell[0])
            registry.gauge(f"{prefix}.{name}.sim_seconds").add(cell[1])


def merge_profiles(profiles) -> dict:
    """Merge deterministic profile snapshots (sums, input order)."""
    events = 0
    components: dict[str, list] = {}
    for profile in profiles:
        events += profile["events"]
        for name, entry in profile["components"].items():
            cell = components.setdefault(name, [0, 0.0])
            cell[0] += entry["events"]
            cell[1] += entry["sim_seconds"]
    return {
        "events": events,
        "components": {
            name: {"events": cell[0], "sim_seconds": cell[1]}
            for name, cell in sorted(components.items())
        },
    }
