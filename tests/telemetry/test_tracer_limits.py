"""Tracer hardening: limit cap, truncated flag, and a streaming tracer
that keeps no records and hands them to its sink in batches."""

import pytest

from repro.sim.trace import STREAM_BATCH, NullTracer, Tracer


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
        tracer.stream(lambda batch: seen.extend(kind for _, kind, _ in batch))
        return tracer, seen

    def test_truncated_flips_at_the_same_record_count(self):
        keeping = _tracer(limit=3)
        streaming, seen = self._streaming(limit=3)
        for i in range(6):
            keeping.record("tick", i=i)
            streaming.record("tick", i=i)
            assert streaming.truncated == keeping.truncated
            assert bool(streaming) == bool(keeping)
        streaming.flush()
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
        tracer.flush()
        assert seen == ["a", "c"]

    def test_kept_records_are_replayed_into_the_sink(self):
        tracer = _tracer()
        tracer.record("before")
        seen = []
        tracer.stream(
            lambda batch: seen.extend(kind for _, kind, _ in batch),
            keep_records=True)
        tracer.record("after")
        tracer.flush()
        assert seen == ["before", "after"]
        assert [r.kind for r in tracer] == ["before", "after"]

    def test_records_reach_the_sink_in_full_batches_then_at_flush(self):
        batches = []
        tracer = _tracer()
        tracer.stream(batches.append)
        for i in range(2 * STREAM_BATCH + 3):
            tracer.record("tick", i=i)
        assert [len(b) for b in batches] == [STREAM_BATCH, STREAM_BATCH]
        tracer.flush()
        tracer.flush()   # nothing left: no empty batch
        assert [len(b) for b in batches] == [STREAM_BATCH, STREAM_BATCH, 3]
        assert [f["i"] for b in batches for _, _, f in b] == list(
            range(2 * STREAM_BATCH + 3))

    def test_cap_and_clear_hand_over_the_partial_batch(self):
        tracer, seen = self._streaming(limit=2)
        tracer.record("a")
        tracer.record("b")
        assert seen == []
        tracer.record("over")          # the cap flushes
        assert seen == ["a", "b"]
        tracer.clear()
        tracer.record("c")
        tracer.clear()                 # so does clear()
        assert seen == ["a", "b", "c"]

    def test_queries_raise_instead_of_reporting_nothing(self):
        tracer, _ = self._streaming()
        tracer.record("tick")
        for query in (tracer.kept_records, lambda: len(tracer),
                      lambda: list(tracer), lambda: tracer.of_kind("tick"),
                      lambda: tracer.between(0.0, 1.0),
                      lambda: tracer.last("tick")):
            with pytest.raises(RuntimeError):
                query()


class TestTelemetryOnAStreamingTracer:
    """Telemetry streams its tracer into a span sink: spans, snapshots and
    stall counters come from the stream, and the tracer keeps records
    only when asked to."""

    def _telemetry(self, **kwargs):
        from repro.telemetry.session import Telemetry
        telemetry = Telemetry(_tracer(), **kwargs)
        telemetry.tracer.record("stall", node=0, job=1, msg=-1,
                                cause="credit", dur=0.5)
        return telemetry

    def test_snapshot_needs_no_kept_records(self):
        telemetry = self._telemetry()
        spans = telemetry.snapshot()["spans"]
        assert spans["by_name"] == {
            "stall-credit": {"count": 1, "total_seconds": 0.5}}
        with pytest.raises(RuntimeError):
            telemetry.tracer.kept_records()

    def test_harvest_stalls_needs_no_kept_records(self):
        from repro.telemetry.session import harvest_stalls
        telemetry = self._telemetry()
        harvest_stalls(telemetry)
        assert telemetry.registry.snapshot()["stall.credit.waits"][
            "value"] == 1

    def test_keeping_tracer_still_harvests(self):
        from repro.telemetry.session import harvest_stalls
        telemetry = self._telemetry(keep_records=True)
        harvest_stalls(telemetry)
        assert telemetry.registry.snapshot()["stall.credit.waits"][
            "value"] == 1
        assert [r.kind for r in telemetry.tracer.kept_records()] == ["stall"]
