"""Unified telemetry: metrics registry, kernel profiler, spans, exporters.

Everything observability-related lives here so the simulation layers stay
clean: they either expose deterministic counters that get *harvested*
post-run, or record into the run's one tracer, whose cost is one
attribute test when tracing is off.

Layout:

- :mod:`repro.telemetry.registry` — typed instruments (Counter, Gauge,
  log2-bucket Histogram) with lazy registration and snapshot merging;
- :mod:`repro.telemetry.profiler` — DES kernel profiler (per-component
  event counts / simulated time, events/s self-benchmark);
- :mod:`repro.telemetry.spans` — span-begin/span-end records over the
  Tracer stream plus reconstruction and packet/retransmit derivations;
- :mod:`repro.telemetry.causal` — per-message lineage (fragment
  timelines, cross-node follows-from edges) and scheduling windows
  replayed from the flat record stream;
- :mod:`repro.telemetry.attribution` — the stall-clock accountant:
  every message's latency partitioned exactly into named causes;
- :mod:`repro.telemetry.explain` — the ``repro explain`` analyzer
  (waterfall reports, attribution JSON, Chrome traces with flow
  arrows, saved-trace ingest);
- :mod:`repro.telemetry.export` — Chrome ``trace_event`` JSON (with
  per-node track rows and flow events) and a plain-text summary;
- :mod:`repro.telemetry.schema` — dependency-free validation against the
  checked-in snapshot contract;
- :mod:`repro.telemetry.session` — the :class:`Telemetry` bundle and the
  component harvesters.
"""

from repro.telemetry.attribution import (CAUSES, attribute_message,
                                         summarize_attribution,
                                         summarize_stalls)
from repro.telemetry.causal import (CAUSAL_KINDS, FragmentTrace,
                                    MessageTrace, SchedulingWindows,
                                    build_lineage, build_windows,
                                    derive_causal_spans)
from repro.telemetry.export import (render_summary, to_chrome_trace,
                                    write_chrome_trace)
from repro.telemetry.profiler import KernelProfiler, merge_profiles
from repro.telemetry.registry import (Counter, Gauge, Histogram,
                                      MetricsRegistry, log2_bucket,
                                      merge_snapshots)
from repro.telemetry.schema import (load_snapshot_schema, validate,
                                    validate_snapshot)
from repro.sim.trace import DEFAULT_TRACE_LIMIT
from repro.telemetry.session import (SNAPSHOT_SCHEMA, Telemetry,
                                     harvest_cluster, harvest_network,
                                     merge_unified_snapshots)
from repro.telemetry.spans import (Span, SpanEmitter, build_spans,
                                   derive_packet_spans,
                                   derive_retransmit_spans, summarize_spans)

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "log2_bucket",
    "merge_snapshots", "KernelProfiler", "merge_profiles",
    "Span", "SpanEmitter", "build_spans", "derive_packet_spans",
    "derive_retransmit_spans", "summarize_spans",
    "CAUSAL_KINDS", "FragmentTrace", "MessageTrace", "SchedulingWindows",
    "build_lineage", "build_windows", "derive_causal_spans",
    "CAUSES", "attribute_message", "summarize_attribution",
    "summarize_stalls",
    "render_summary", "to_chrome_trace", "write_chrome_trace",
    "load_snapshot_schema", "validate", "validate_snapshot",
    "Telemetry", "DEFAULT_TRACE_LIMIT", "SNAPSHOT_SCHEMA",
    "harvest_cluster", "harvest_network", "merge_unified_snapshots",
]
