"""The Telemetry bundle: a registry and a profiler over the run's tracer.

A :class:`Telemetry` is what a simulation carries when observability is
on: a :class:`~repro.telemetry.registry.MetricsRegistry` (the metric
sink) and a :class:`~repro.telemetry.profiler.KernelProfiler` (attached
to the Simulator), on top of the run's one
:class:`~repro.sim.trace.Tracer`.  The run builds that tracer (capped at
:data:`~repro.sim.trace.DEFAULT_TRACE_LIMIT` records so long runs cannot
exhaust memory silently) and hands it in.

Component counters are *harvested* at snapshot time rather than double-
written on hot paths: the firmwares, fabric, switch recorder, fault
injector, and reliability layer already keep deterministic counts, so
:func:`harvest_cluster` folds them into the registry once, after the
run.  The unified snapshot is then

    {"schema": "repro-telemetry/1",
     "metrics": {...}, "profile": {...}, "spans": {...}}

— validated against ``schemas/telemetry_snapshot.schema.json`` and
deterministic by construction: no wall-clock value enters it unless
``include_wall=True`` is requested explicitly.
"""

from __future__ import annotations

from typing import Iterable

from repro.sim.trace import Tracer
from repro.telemetry.profiler import KernelProfiler, merge_profiles
from repro.telemetry.registry import MetricsRegistry, merge_snapshots
from repro.telemetry.spans import (build_spans, derive_packet_spans,
                                   derive_retransmit_spans, summarize_spans)

SNAPSHOT_SCHEMA = "repro-telemetry/1"


class Telemetry:
    """Everything one traced simulation adds to be observable."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.registry = MetricsRegistry()
        self.profiler = KernelProfiler()

    # ------------------------------------------------------------------ spans
    def all_spans(self):
        """Explicit spans plus packet/retransmit/causal derivations."""
        from repro.telemetry.causal import derive_causal_spans
        records = self.tracer.kept_records()
        truncated = self.tracer.truncated
        spans = build_spans(records, truncated=truncated)
        base = (max((s.span_id for s in spans), default=-1) + 1)
        spans += derive_packet_spans(records, next_id=max(base, 1_000_000),
                                     truncated=truncated)
        spans += derive_retransmit_spans(records,
                                         next_id=max(base, 1_000_000)
                                         + 1_000_000, truncated=truncated)
        spans += derive_causal_spans(records,
                                     next_id=max(base, 1_000_000)
                                     + 2_000_000, truncated=truncated)
        return spans

    # ------------------------------------------------------------------ snapshot
    def snapshot(self, include_wall: bool = False) -> dict:
        span_summary = summarize_spans(self.all_spans())
        if self.tracer.truncated:
            span_summary["truncated"] = True
        return {
            "schema": SNAPSHOT_SCHEMA,
            "metrics": self.registry.snapshot(),
            "profile": self.profiler.snapshot(include_wall=include_wall),
            "spans": span_summary,
        }


def merge_unified_snapshots(snapshots: Iterable[dict]) -> dict:
    """Merge unified snapshots (e.g. one per sweep point) in input order.

    Deterministic: serial and ``-jN`` sweeps produce identical per-point
    snapshots in identical order, hence identical merges.  Wall-clock
    self-benchmarks, if present, are dropped — they are measurement noise,
    not aggregates.
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
    profiles = [dict(s["profile"]) for s in snapshots]
    for profile in profiles:
        profile.pop("self_benchmark", None)
    return {
        "schema": SNAPSHOT_SCHEMA,
        "metrics": merge_snapshots(s["metrics"] for s in snapshots),
        "profile": merge_profiles(profiles),
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


def harvest_switches(registry: MetricsRegistry, recorder) -> None:
    """Switch-stage timings and queue occupancy (Figures 7/8/9 raw data)."""
    recorder.publish(registry)


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


def harvest_stalls(registry: MetricsRegistry, tracer: Tracer) -> None:
    """Fold per-cause stall totals (from the tracer's kept ``stall``
    records) into ``stall.<cause>.waits`` counters and
    ``stall.<cause>.seconds`` gauges (gauges sum across merged points,
    matching the counters)."""
    from repro.telemetry.attribution import summarize_stalls
    for cause, cell in summarize_stalls(tracer.kept_records()).items():
        registry.counter(f"stall.{cause}.waits").inc(cell["waits"])
        registry.gauge(f"stall.{cause}.seconds").add(cell["seconds"])


def harvest_cluster(telemetry: Telemetry, cluster) -> None:
    """Fold one ParParCluster's deterministic counters into the registry."""
    registry = telemetry.registry
    harvest_firmwares(registry, (g.firmware for g in cluster.glue))
    harvest_stalls(registry, telemetry.tracer)
    harvest_fabric(registry, cluster.fabric)
    harvest_switches(registry, cluster.recorder)
    if getattr(cluster, "policy_engine", None) is not None:
        harvest_policy(registry, cluster.policy_engine)
    if cluster.fault_injector is not None:
        harvest_faults(registry, cluster.fault_injector)
    if getattr(cluster, "recovery_stats", None) is not None:
        harvest_recovery(registry, cluster.recovery_stats)
    registry.counter("sim.events").inc(cluster.sim.processed_events)
    registry.gauge("sim.seconds").add(cluster.sim.now)


def harvest_network(telemetry: Telemetry, net) -> None:
    """Fold an FMNetwork harness's counters (figure5/nicmem-style runs)."""
    registry = telemetry.registry
    harvest_firmwares(registry, net.firmwares.values())
    harvest_fabric(registry, net.fabric)
    harvest_stalls(registry, telemetry.tracer)
    registry.counter("sim.events").inc(net.sim.processed_events)
    registry.gauge("sim.seconds").add(net.sim.now)
