"""The Telemetry bundle: a registry, a profiler and a span sink on the
run's tracer.

A :class:`Telemetry` is what a simulation carries when observability is
on: a :class:`~repro.telemetry.registry.MetricsRegistry` (the metric
sink), a :class:`~repro.telemetry.profiler.KernelProfiler` (attached to
the Simulator) and a :class:`~repro.telemetry.spans.SpanSink`, which the
run's one :class:`~repro.sim.trace.Tracer` streams its records into.
The run builds that tracer (capped at
:data:`~repro.sim.trace.DEFAULT_TRACE_LIMIT` records, so a long run
flags its snapshot ``truncated`` instead of growing without bound) and
hands it in.  The tracer keeps no record unless the run asked for a
trace as well.

Component counters are *harvested* at snapshot time rather than double-
written on hot paths: the firmwares, fabric, switch recorder, fault
injector, and reliability layer already keep deterministic counts, so
:func:`harvest_cluster` folds them into the registry once, after the
run.  The unified snapshot is then

    {"schema": "repro-telemetry/1",
     "metrics": {...}, "profile": {...}, "spans": {...}}

— validated against ``schemas/telemetry_snapshot.schema.json`` and
deterministic by construction: no wall-clock value enters it.  A sweep's
``--telemetry OUT.json`` writes the merge of its points' snapshots.
"""

from __future__ import annotations

from typing import Iterable

from repro.sim.trace import DEFAULT_TRACE_LIMIT, Tracer
from repro.telemetry.profiler import KernelProfiler, merge_profiles
from repro.telemetry.registry import MetricsRegistry, merge_snapshots
from repro.telemetry.spans import SpanSink

SNAPSHOT_SCHEMA = "repro-telemetry/1"


class Telemetry:
    """Everything one traced simulation adds to be observable.

    Streams ``tracer`` into its :class:`~repro.telemetry.spans.SpanSink`;
    the tracer keeps its records too only with ``keep_records``.
    """

    def __init__(self, tracer: Tracer, keep_records: bool = False):
        self.tracer = tracer
        self.registry = MetricsRegistry()
        self.profiler = KernelProfiler()
        self.spans = SpanSink()
        tracer.stream(self.spans.feed, keep_records=keep_records)

    def snapshot(self) -> dict:
        self.tracer.flush()
        return {
            "schema": SNAPSHOT_SCHEMA,
            "metrics": self.registry.snapshot(),
            "profile": self.profiler.snapshot(),
            "spans": self.spans.summary(self.tracer.truncated),
        }


def merge_unified_snapshots(snapshots: Iterable[dict]) -> dict:
    """Merge unified snapshots (e.g. one per sweep point) in input order.

    Deterministic: serial and ``-jN`` sweeps produce identical per-point
    snapshots in identical order, hence identical merges.
    """
    snapshots = list(snapshots)
    merged_spans: dict = {"count": 0, "by_name": {}}
    truncated = False
    for snap in snapshots:
        spans = snap["spans"]
        merged_spans["count"] += spans["count"]
        truncated = truncated or spans.get("truncated", False)
        for name, entry in spans["by_name"].items():
            cell = merged_spans["by_name"].setdefault(
                name, {"count": 0, "total_seconds": 0.0})
            cell["count"] += entry["count"]
            cell["total_seconds"] += entry["total_seconds"]
    merged_spans["by_name"] = {
        name: merged_spans["by_name"][name]
        for name in sorted(merged_spans["by_name"])
    }
    if truncated:
        merged_spans["truncated"] = True
    return {
        "schema": SNAPSHOT_SCHEMA,
        "metrics": merge_snapshots(s["metrics"] for s in snapshots),
        "profile": merge_profiles(s["profile"] for s in snapshots),
        "spans": merged_spans,
    }


# ---------------------------------------------------------------- harvesting
def harvest_firmwares(registry: MetricsRegistry, firmwares) -> None:
    """Fold firmware packet counters (and reliability stats, if the
    reliability layer is loaded) into the registry."""
    for fw in firmwares:
        registry.counter("fm.packets_sent").inc(fw.packets_sent)
        registry.counter("fm.packets_received").inc(fw.packets_received)
        registry.counter("fm.packets_dropped").inc(len(fw.dropped_packets))
        if hasattr(fw, "retransmits"):
            registry.counter("reliability.retransmits").inc(fw.retransmits)
            registry.counter("reliability.acks_sent").inc(fw.acks_sent)
            registry.counter("reliability.acks_received").inc(fw.acks_received)
            registry.counter("reliability.dup_discards").inc(fw.dup_discards)
            registry.counter("reliability.corrupt_discards").inc(
                fw.corrupt_discards)
            registry.counter("reliability.permanent_losses").inc(
                fw.permanent_losses)
            registry.gauge("reliability.outstanding_unacked").add(
                fw.outstanding)
            registry.gauge("reliability.parked").add(fw.parked_count())
            _harvest_strategy(registry, fw)


def _harvest_strategy(registry: MetricsRegistry, fw) -> None:
    """NACK and strategy-specific counters — only for non-default
    strategies, so the default (per-packet) snapshot stays byte-identical
    to the pre-strategy contract."""
    from repro.faults.strategies import DEFAULT_STRATEGY
    strategy = getattr(fw, "strategy", None)
    if strategy is None or strategy.name == DEFAULT_STRATEGY:
        return
    registry.counter("reliability.nacks_sent").inc(fw.nacks_sent)
    registry.counter("reliability.nacks_received").inc(fw.nacks_received)
    for key, value in strategy.stats().items():
        # Gauges so merged sweeps sum across points, like stall.*.seconds.
        registry.gauge(f"reliability.strategy.{key}").add(value)


def harvest_fabric(registry: MetricsRegistry, fabric) -> None:
    registry.counter("fabric.packets_moved").inc(fabric.packets_moved)
    registry.counter("fabric.bytes_moved").inc(fabric.bytes_moved)


def harvest_faults(registry: MetricsRegistry, injector) -> None:
    for name, value in injector.counters().items():
        registry.counter(f"faults.{name}").inc(value)


def harvest_recovery(registry: MetricsRegistry, stats) -> None:
    """Fold the recovery layer's counters and detection latencies.

    Detection latencies land in a ``recovery.detection_latency``
    histogram (seconds); everything else is a ``recovery.*`` counter.
    The flat ``detection_latency_count``/``_total`` counters from
    :meth:`RecoveryStats.counters` are skipped — the histogram already
    carries count and sum.
    """
    for name, value in stats.counters().items():
        if name.startswith("detection_latency"):
            continue
        registry.counter(f"recovery.{name}").inc(value)
    hist = registry.histogram("recovery.detection_latency")
    for latency in stats.detection_latencies:
        hist.observe(latency)


def harvest_policy(registry: MetricsRegistry, engine) -> None:
    """Fold a PolicyEngine's reallocation counters into the registry.

    ``policy.min_window``/``policy.max_window`` land as gauges (a merged
    snapshot sums them across points — divide by ``policy.reports`` for
    means); everything else is a monotone counter.
    """
    for name, value in engine.counters().items():
        if name in ("min_window", "max_window"):
            registry.gauge(f"policy.{name}").add(value)
        else:
            registry.counter(f"policy.{name}").inc(value)
    registry.counter("policy.reports").inc(1)


def harvest_stalls(telemetry: Telemetry) -> None:
    """Fold the per-cause stall totals of the run's ``stall`` records into
    ``stall.<cause>.waits`` counters and ``stall.<cause>.seconds`` gauges
    (gauges sum across merged points, matching the counters)."""
    telemetry.tracer.flush()
    registry = telemetry.registry
    for cause, (waits, seconds) in sorted(telemetry.spans.stalls.items()):
        registry.counter(f"stall.{cause}.waits").inc(waits)
        registry.gauge(f"stall.{cause}.seconds").add(seconds)


def harvest_cluster(telemetry: Telemetry, cluster) -> None:
    """Fold one ParParCluster's deterministic counters into the registry."""
    registry = telemetry.registry
    harvest_firmwares(registry, (g.firmware for g in cluster.glue))
    harvest_stalls(telemetry)
    harvest_fabric(registry, cluster.fabric)
    cluster.recorder.publish(registry)   # Figures 7/8/9 raw data
    if getattr(cluster, "policy_engine", None) is not None:
        harvest_policy(registry, cluster.policy_engine)
    if cluster.fault_injector is not None:
        harvest_faults(registry, cluster.fault_injector)
    if getattr(cluster, "recovery_stats", None) is not None:
        harvest_recovery(registry, cluster.recovery_stats)
    registry.counter("sim.events").inc(cluster.sim.processed_events)
    registry.gauge("sim.seconds").add(cluster.sim.now)


def network_telemetry(sim) -> Telemetry:
    """Telemetry for a bare FMNetwork run (Figure 5, nicmem).

    Builds the run's tracer, capped at ``DEFAULT_TRACE_LIMIT`` records
    and on ``sim``'s clock (hand ``.tracer`` to the network), and
    attaches the profiler to ``sim``.  After the run,
    :func:`harvest_network` returns the snapshot.
    """
    telemetry = Telemetry(Tracer(clock=sim.clock, limit=DEFAULT_TRACE_LIMIT))
    sim.profiler = telemetry.profiler
    return telemetry


def harvest_network(telemetry: Telemetry, net) -> dict:
    """Fold an FMNetwork harness's counters into the registry and return
    the unified snapshot."""
    registry = telemetry.registry
    harvest_firmwares(registry, net.firmwares.values())
    harvest_fabric(registry, net.fabric)
    harvest_stalls(telemetry)
    registry.counter("sim.events").inc(net.sim.processed_events)
    registry.gauge("sim.seconds").add(net.sim.now)
    return telemetry.snapshot()
