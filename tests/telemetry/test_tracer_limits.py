"""Tracer hardening: limit cap, truncated flag, and a streaming tracer
that keeps no records."""

import pytest

from repro.sim.trace import NullTracer, Tracer


def _tracer(**kwargs):
    return Tracer(clock=lambda: 0.0, **kwargs)


class TestLimit:
    def test_cap_stops_recording(self):
        tracer = _tracer(limit=3)
        for i in range(10):
            tracer.record("tick", i=i)
        assert len(tracer) == 3
        assert tracer.truncated

    def test_cap_disables_tracer_guards(self):
        tracer = _tracer(limit=1)
        tracer.record("a")
        assert tracer   # at the cap but not yet over it
        tracer.record("b")
        assert not tracer   # hot-path `if tracer:` guards now skip entirely

    def test_no_limit_by_default(self):
        tracer = _tracer()
        for i in range(100):
            tracer.record("tick", i=i)
        assert len(tracer) == 100
        assert not tracer.truncated

    def test_clear_rearms_truncated_tracer(self):
        tracer = _tracer(limit=2)
        for _ in range(5):
            tracer.record("tick")
        assert tracer.truncated
        tracer.clear()
        assert not tracer.truncated
        assert tracer
        tracer.record("again")
        assert len(tracer) == 1

    def test_clear_keeps_explicitly_disabled_tracer_off(self):
        tracer = NullTracer()
        tracer.clear()
        assert not tracer


class TestStreamingTracer:
    """A tracer that hands its records to a sink and keeps none must cap,
    truncate and refuse queries exactly as a keeping tracer would."""

    def _streaming(self, **kwargs):
        seen = []
        tracer = _tracer(**kwargs)
        tracer.stream(lambda time, kind, fields: seen.append(kind))
        return tracer, seen

    def test_truncated_flips_at_the_same_record_count(self):
        keeping = _tracer(limit=3)
        streaming, seen = self._streaming(limit=3)
        for i in range(6):
            keeping.record("tick", i=i)
            streaming.record("tick", i=i)
            assert streaming.truncated == keeping.truncated
            assert bool(streaming) == bool(keeping)
        assert keeping.truncated and len(keeping) == 3
        assert seen == ["tick"] * 3
        assert streaming.records == []

    def test_clear_rearms_the_count(self):
        tracer, seen = self._streaming(limit=1)
        tracer.record("a")
        tracer.record("b")
        assert tracer.truncated
        tracer.clear()
        tracer.record("c")
        assert not tracer.truncated
        assert seen == ["a", "c"]

    def test_kept_records_are_replayed_into_the_sink(self):
        tracer = _tracer()
        tracer.record("before")
        seen = []
        tracer.stream(lambda time, kind, fields: seen.append(kind),
                      keep_records=True)
        tracer.record("after")
        assert seen == ["before", "after"]
        assert [r.kind for r in tracer] == ["before", "after"]

    def test_queries_raise_instead_of_reporting_nothing(self):
        tracer, _ = self._streaming()
        tracer.record("tick")
        for query in (tracer.kept_records, lambda: len(tracer),
                      lambda: list(tracer), lambda: tracer.of_kind("tick"),
                      lambda: tracer.between(0.0, 1.0),
                      lambda: tracer.last("tick")):
            with pytest.raises(RuntimeError):
                query()


class TestTelemetryNeedsKeptRecords:
    """Spans, snapshots and stall counters are built from kept records;
    on a tracer that kept none they must fail, not report zero."""

    def _telemetry(self):
        from repro.telemetry.session import Telemetry
        telemetry = Telemetry(_tracer())
        telemetry.tracer.stream(lambda time, kind, fields: None)
        telemetry.tracer.record("stall", node=0, job=1, msg=-1,
                                cause="credit", dur=0.5)
        return telemetry

    def test_all_spans_raises(self):
        with pytest.raises(RuntimeError):
            self._telemetry().all_spans()

    def test_snapshot_raises(self):
        with pytest.raises(RuntimeError):
            self._telemetry().snapshot()

    def test_harvest_stalls_raises(self):
        from repro.telemetry.registry import MetricsRegistry
        from repro.telemetry.session import harvest_stalls
        with pytest.raises(RuntimeError):
            harvest_stalls(MetricsRegistry(), self._telemetry().tracer)

    def test_keeping_tracer_still_harvests(self):
        from repro.telemetry.registry import MetricsRegistry
        from repro.telemetry.session import Telemetry, harvest_stalls
        telemetry = Telemetry(_tracer())
        telemetry.tracer.record("stall", node=0, job=1, msg=-1,
                                cause="credit", dur=0.5)
        registry = MetricsRegistry()
        harvest_stalls(registry, telemetry.tracer)
        assert registry.snapshot()["stall.credit.waits"]["value"] == 1
