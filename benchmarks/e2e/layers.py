"""Outside-in host-time attribution by layer, for the traced rep.

Nothing under ``src/`` is instrumented.  :func:`traced` replaces public
entry points of each layer with timing wrappers for the duration of a
``with`` block, then puts the originals back:

- ``Simulator.process`` wraps each new process's generator, so every
  resume of it is timed and charged to the layer its name belongs to
  (:func:`layer_of_process`);
- the entry points in :data:`_ENTRY_POINTS` are timed where they are
  called from, whichever process or kernel callback that is;
- ``ParParCluster.__init__`` is timed as ``parpar`` (cluster assembly)
  and records each cluster, whose public counters :meth:`LayerClock.harvest`
  adds up after each point.

A stack subtracts the time of nested timed calls from their parent, so
each timed call is charged only its *self* time.  ``sim`` is the
residual: the traced wall time minus every self time.  It holds the
event loop, kernel callbacks that no entry point covers, and the
wrappers' own cost outside their clock reads.  Process resumes whose
name matches no family are charged to ``other``; ``trace.other_share``
reports how much that is.

Each timed entry costs one to two microseconds, charged partly to the
layer it times and partly to its caller or the ``sim`` residual.  The
trace therefore runs in its own child, never in the timed reps, and the
benchmark reports the difference as ``trace.overhead``.

This module imports ``repro`` only inside :func:`traced`, so the
orchestrator can use :func:`layer_metrics` without the package.
"""

from __future__ import annotations

import contextlib
from time import perf_counter  # simlint: ignore[SIM001] -- the tracer measures host time by design; never feeds sim state

#: the layers, named after repo modules; ``sim`` is the residual
LAYERS = ("sim", "fm.lib", "fm.firmware", "hardware", "gluefm", "parpar",
          "fm.policies", "faults", "faults.audit", "telemetry")
OTHER = "other"

#: (module, class or None, attribute, layer): entry points timed where
#: they are called.  Every ``on_*`` hook of each reliability strategy
#: class is added in :func:`traced`.
_ENTRY_POINTS = (
    ("repro.hardware.network", "MyrinetFabric", "transmit", "hardware"),
    ("repro.hardware.nic", "MyrinetNIC", "deliver_event", "hardware"),
    ("repro.hardware.ethernet", "ControlNetwork", "send", "hardware"),
    ("repro.hardware.ethernet", "ControlNetwork", "multicast", "hardware"),
    ("repro.parpar.noded", "NodeDaemon", "_on_message", "parpar"),
    ("repro.parpar.masterd", "MasterDaemon", "_on_message", "parpar"),
    ("repro.parpar.jobrep", "JobRepresentative", "_on_message", "parpar"),
    ("repro.fm.policies.engine", "PolicyEngine", "on_context_switch",
     "fm.policies"),
    ("repro.fm.policies.engine", "PolicyEngine", "register", "fm.policies"),
    ("repro.faults.injector", "FaultInjector", "on_transmit", "faults"),
    ("repro.faults.audit", "InvariantAuditor", "_on_send", "faults.audit"),
    ("repro.faults.audit", "InvariantAuditor", "_on_delivery",
     "faults.audit"),
    ("repro.faults.audit", "InvariantAuditor", "report", "faults.audit"),
    ("repro.sim.trace", "Tracer", "record", "telemetry"),
    ("repro.telemetry.spans", "SpanEmitter", "begin", "telemetry"),
    ("repro.telemetry.spans", "SpanEmitter", "end", "telemetry"),
    ("repro.telemetry.profiler", "KernelProfiler", "observe", "telemetry"),
    ("repro.telemetry.explain", None, "normalize_records", "telemetry"),
    ("repro.telemetry.explain", None, "analyze_records", "telemetry"),
    ("repro.telemetry.explain", None, "build_windows", "telemetry"),
    ("repro.telemetry.explain", None, "_derive_reallocs", "telemetry"),
)

#: exact counts read from every cluster built
COUNTS = ("events", "pkts_moved", "delivered", "transmitted", "switches",
          "reallocs", "retransmits", "records")


def layer_of_process(name: str) -> str:
    """The layer a simulated process's resumes are charged to."""
    if name.startswith("app-"):
        return "fm.lib"
    if name.startswith("lanai-"):
        return "fm.firmware"
    if name.startswith("noded"):
        return "gluefm" if "-switch" in name else "parpar"
    if name.startswith(("masterd", "jobrep-")):
        return "parpar"
    if name.startswith(("rel", "rto-", "cumack-", "sram-faults-",
                        "failstop-")):
        return "faults"
    return OTHER


class LayerClock:
    """Self time and call counts per layer, plus cluster counters."""

    def __init__(self):
        # layer -> [self seconds, calls]
        self._totals = {layer: [0.0, 0] for layer in LAYERS + (OTHER,)}
        self.counts = dict.fromkeys(COUNTS, 0)
        self.clusters: list = []
        # child seconds of each timed call in progress, innermost last
        self._stack: list = []

    def wrap(self, layer: str, fn):
        """``fn`` with each call charged to ``layer``."""
        stack = self._stack
        push, pop = stack.append, stack.pop
        total = self._totals[layer]

        def timed(*args, **kwargs):
            push(0.0)
            start = perf_counter()  # simlint: ignore[SIM001] -- tracer reads host time; never feeds sim state
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start  # simlint: ignore[SIM001] -- tracer reads host time; never feeds sim state
                total[0] += elapsed - pop()
                total[1] += 1
                if stack:
                    stack[-1] += elapsed
        return timed

    def harvest(self) -> None:
        """Add the counters of every cluster built since the last call."""
        from suite import data_packets

        counts = self.counts
        for cluster in self.clusters:
            delivered, transmitted = data_packets(cluster)
            counts["events"] += cluster.sim.processed_events
            counts["pkts_moved"] += cluster.fabric.packets_moved
            counts["delivered"] += delivered
            counts["transmitted"] += transmitted
            counts["switches"] += cluster.masterd.switches_completed
            if cluster.policy_engine is not None:
                counts["reallocs"] += cluster.policy_engine.reallocations
            counts["retransmits"] += sum(getattr(g.firmware, "retransmits", 0)
                                         for g in cluster.glue)
            counts["records"] += len(cluster.tracer.records)
        self.clusters.clear()

    def summary(self, wall_s: float) -> dict:
        """JSON-ready totals; ``sim`` becomes the residual of ``wall_s``."""
        self_s = {layer: total[0] for layer, total in self._totals.items()}
        self_s["sim"] = wall_s - sum(v for k, v in self_s.items()
                                     if k != "sim")
        calls = {layer: total[1] for layer, total in self._totals.items()}
        return {"wall_s": wall_s, "self_s": self_s, "calls": calls,
                "counts": dict(self.counts)}


class _TimedGenerator:
    """A generator stand-in whose ``send``/``throw`` are timed."""

    __slots__ = ("send", "throw", "close")

    def __init__(self, clock: LayerClock, layer: str, generator):
        self.send = clock.wrap(layer, generator.send)
        self.throw = clock.wrap(layer, generator.throw)
        self.close = generator.close


@contextlib.contextmanager
def traced():
    """Install the timing wrappers; yields the :class:`LayerClock`."""
    import importlib

    from repro.faults.strategies import STRATEGIES, ReliabilityStrategy
    from repro.parpar.cluster import ParParCluster
    from repro.sim.core import Simulator

    clock = LayerClock()
    patches = []   # (owner, attribute, replacement)
    for module, cls, attr, layer in _ENTRY_POINTS:
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls)
        patches.append((owner, attr, clock.wrap(layer, getattr(owner, attr))))
    for cls in (ReliabilityStrategy, *STRATEGIES.values()):
        for hook, fn in vars(cls).items():
            if hook.startswith("on_"):
                patches.append((cls, hook, clock.wrap("faults", fn)))

    start_process = Simulator.process

    def process(sim, generator, name=""):
        name = name or getattr(generator, "__name__", "process")
        timed = _TimedGenerator(clock, layer_of_process(name), generator)
        return start_process(sim, timed, name=name)

    build_cluster = clock.wrap("parpar", ParParCluster.__init__)

    def init(cluster, *args, **kwargs):
        build_cluster(cluster, *args, **kwargs)
        clock.clusters.append(cluster)

    patches.append((Simulator, "process", process))
    patches.append((ParParCluster, "__init__", init))

    originals = [(owner, attr, vars(owner)[attr])
                 for owner, attr, _ in patches]
    try:
        for owner, attr, replacement in patches:
            setattr(owner, attr, replacement)
        yield clock
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


# ---------------------------------------------------------------- metrics
#: layers that do work on every workload.  Only these get time metrics
#: (self seconds, microseconds per delivered packet); the other four run
#: on one workload each and report share, calls and their own counters,
#: so that no time metric reads a constant zero.
EVERYWHERE = ("sim", "fm.lib", "fm.firmware", "hardware", "gluefm", "parpar")


def layer_metric_units() -> dict:
    """Per-layer metric name -> (unit, better), in report order."""
    units = {}
    for layer in LAYERS:
        if layer in EVERYWHERE:
            units[f"{layer}.self_s"] = ("s", "lower")
        units[f"{layer}.share"] = ("ratio", "lower")
        if layer != "sim":   # the residual has no calls; see sim.events
            units[f"{layer}.calls"] = ("count", "lower")
        if layer in EVERYWHERE:
            units[f"{layer}.us_per_pkt"] = ("us", "lower")
    units.update({
        "sim.events": ("count", "lower"),
        "sim.us_per_event": ("us", "lower"),
        "hardware.pkts_moved": ("count", "lower"),
        "hardware.data_frac": ("ratio", "higher"),
        "gluefm.switches": ("count", "lower"),
        "gluefm.us_per_switch": ("us", "lower"),
        "fm.policies.reallocs": ("count", "lower"),
        "faults.retransmits": ("count", "lower"),
        "faults.goodput": ("ratio", "higher"),
        "telemetry.records": ("count", "lower"),
        "trace.wall_s": ("s", "lower"),
        "trace.overhead": ("ratio", "lower"),
        "trace.other_share": ("ratio", "lower"),
    })
    return units


def _per(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(summary: dict, untraced_wall_s: float) -> dict:
    """Per-layer metric values from a traced rep's :meth:`LayerClock.summary`.

    ``untraced_wall_s`` is the same rep's host time with tracing off;
    ``trace.overhead`` is the traced wall relative to it, minus one.
    """
    wall = summary["wall_s"]
    self_s = summary["self_s"]
    calls = summary["calls"]
    counts = summary["counts"]
    delivered = counts["delivered"]
    values = {}
    for layer in LAYERS:
        if layer in EVERYWHERE:
            values[f"{layer}.self_s"] = self_s[layer]
        values[f"{layer}.share"] = _per(self_s[layer], wall)
        if layer != "sim":
            values[f"{layer}.calls"] = calls[layer]
        if layer in EVERYWHERE:
            values[f"{layer}.us_per_pkt"] = _per(self_s[layer] * 1e6,
                                                 delivered)
    switch_s = self_s["gluefm"] + self_s["parpar"] + self_s["fm.policies"]
    values.update({
        "sim.events": counts["events"],
        "sim.us_per_event": _per(self_s["sim"] * 1e6, counts["events"]),
        "hardware.pkts_moved": counts["pkts_moved"],
        "hardware.data_frac": _per(delivered, counts["pkts_moved"]),
        "gluefm.switches": counts["switches"],
        "gluefm.us_per_switch": _per(switch_s * 1e6, counts["switches"]),
        "fm.policies.reallocs": counts["reallocs"],
        "faults.retransmits": counts["retransmits"],
        "faults.goodput": _per(delivered, counts["transmitted"]),
        "telemetry.records": counts["records"],
        "trace.wall_s": wall,
        "trace.overhead": _per(wall, untraced_wall_s) - 1.0,
        "trace.other_share": _per(self_s[OTHER], wall),
    })
    return values
