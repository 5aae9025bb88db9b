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

Import the submodules themselves; this package re-exports nothing, so
loading one of them does not load the rest.
"""
