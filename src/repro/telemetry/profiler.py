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

The on/off guard follows the :class:`~repro.sim.trace.Tracer` truthiness
idiom: a disabled profiler is never attached, and the kernel's one run
loop in ``sim/core.py`` reads the profiler once per ``run()`` call into
a local, so with none attached each dispatched entry pays a single
``is not None`` test.  The :meth:`observe` hook only reads the entry, so
profiled and unprofiled simulations produce identical results (pinned by
``tests/telemetry/test_determinism.py``).

Sampling: with ``stride=N`` the kernel calls :meth:`observe` on every
Nth dispatched entry only, cutting profiled-run overhead to a few
percent.  Sampled attribution is *scaled*: each sample stands for
``stride`` events (reported per-component ``events`` are
``samples * stride``) and is charged the full simulated time elapsed
since the previous sample, so per-component ``sim_seconds`` still sum to
the profiled span with no scaling.  Exact totals are never sampled: the
kernel accounts the precise number of dispatched events per run via
:meth:`account_events`, so :attr:`events` always equals the simulator's
``processed_events``.  ``stride=1`` (the default) samples every event
and is bit-identical to the pre-sampling profiler.

Wall-clock throughput (the events/s self-benchmark) is accumulated at
run-loop boundaries via :meth:`account_wall` and never enters the
deterministic snapshot unless explicitly asked for with
``include_wall=True``.
"""

from __future__ import annotations

import re

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
    """Attributes processed events and simulated time to components.

    ``stride`` selects sampling: 1 observes every event (exact
    attribution), N > 1 observes every Nth (scaled attribution, near-zero
    overhead).  Event *totals* are exact regardless of stride.
    """

    def __init__(self, enabled: bool = True, stride: int = 1):
        if stride < 1:
            raise ValueError(f"stride must be >= 1, got {stride}")
        self.enabled = enabled
        self.stride = stride
        self.events = 0           # exact count, via account_events()
        self.samples = 0          # observe() calls
        self.wall_seconds = 0.0
        # Sampling phase: events remaining until the next sample.  Kept
        # across run() calls so the sample grid is a property of the
        # event stream, not of how the run was sliced into run() calls.
        self._phase = stride
        # component -> [sample_count, sim_seconds]
        self._components: dict[str, list] = {}
        self._name_cache: dict[str, str] = {}

    def __bool__(self) -> bool:
        return self.enabled

    # ------------------------------------------------------------------ kernel hooks
    def observe(self, prev_now: float, when: float, event) -> None:
        """Attribute one sampled dispatch (kernel-internal).

        ``prev_now`` is the timestamp of the previous sample (the clock
        before this event, when ``stride == 1``), ``when`` this event's
        timestamp; the delta is the simulated time this sample stands
        for.  Attribution: a Process entry (sleep wake-up or
        termination) belongs to that process; an event with a parked
        process waiter belongs to the waiter; anything else is generic
        kernel callback dispatch.
        """
        name = getattr(event, "name", None)        # Process entries
        if name is None:
            waiter = event._waiter
            if waiter is not None:
                name = waiter.name
        if name is None:
            key = ("kernel.timeout" if type(event).__name__ == "Timeout"
                   else "kernel.event")
        else:
            key = self._name_cache.get(name)
            if key is None:
                key = component_of(name)
                self._name_cache[name] = key
        self.samples += 1
        cell = self._components.get(key)
        if cell is None:
            self._components[key] = [1, when - prev_now]
        else:
            cell[0] += 1
            cell[1] += when - prev_now

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
        """JSON-ready profile.  Deterministic unless ``include_wall``.

        Per-component ``events`` are exact at ``stride == 1`` and scaled
        estimates (``samples * stride``) otherwise; the top-level
        ``events`` total is always exact.  A ``sampling`` section is
        included only for sampled profiles, so ``stride == 1`` snapshots
        are byte-identical to the pre-sampling format.
        """
        stride = self.stride
        components = {
            name: {"events": cell[0] * stride, "sim_seconds": cell[1]}
            for name, cell in sorted(self._components.items())
        }
        out = {"events": self.events, "components": components}
        if stride > 1:
            out["sampling"] = {"stride": stride, "samples": self.samples}
        if include_wall:
            out["self_benchmark"] = {
                "wall_seconds": self.wall_seconds,
                "events_per_sec": self.events_per_sec,
            }
        return out

    def publish(self, registry, prefix: str = "kernel") -> None:
        """Mirror the deterministic profile into a MetricsRegistry."""
        registry.counter(f"{prefix}.events").inc(self.events)
        stride = self.stride
        for name, cell in sorted(self._components.items()):
            registry.counter(f"{prefix}.{name}.events").inc(cell[0] * stride)
            registry.gauge(f"{prefix}.{name}.sim_seconds").add(cell[1])


def merge_profiles(profiles) -> dict:
    """Merge deterministic profile snapshots (sums, input order).

    Component ``events`` sum as reported (already stride-scaled by
    ``snapshot``); ``sampling`` sections, when present, sum samples and
    keep the stride only if all inputs agree (mixed-stride merges drop
    it, since a single stride no longer describes the data).
    """
    events = 0
    components: dict[str, list] = {}
    samples = 0
    strides = set()
    sampled = False
    for profile in profiles:
        events += profile["events"]
        sampling = profile.get("sampling")
        if sampling is not None:
            sampled = True
            samples += sampling["samples"]
            strides.add(sampling["stride"])
        for name, entry in profile["components"].items():
            cell = components.setdefault(name, [0, 0.0])
            cell[0] += entry["events"]
            cell[1] += entry["sim_seconds"]
    out = {
        "events": events,
        "components": {
            name: {"events": cell[0], "sim_seconds": cell[1]}
            for name, cell in sorted(components.items())
        },
    }
    if sampled:
        out["sampling"] = {"samples": samples}
        if len(strides) == 1:
            out["sampling"]["stride"] = strides.pop()
    return out
