"""The telemetry determinism contract.

Observability must be free of Heisenberg effects: turning the unified
telemetry layer on (profiler + tracer + span emission + harvesting)
must not change a single simulated observable, and a fanned-out sweep
must produce byte-identical snapshots to a serial one, merging to the
same aggregate either way.  A run's raw trace is replayable by seed:
the same run records the same stream wherever and whenever it runs.
"""

import dataclasses

import pytest

from repro.experiments.common import run_points
from repro.experiments.figure6 import _measure_point, run_figure6
from repro.faults.chaos import ChaosPoint, run_chaos_point
from repro.telemetry.schema import validate_snapshot
from repro.telemetry.session import merge_unified_snapshots


def _fig6_kwargs(**overrides):
    base = dict(jobs=2, message_bytes=1024, messages=40, quantum=0.004,
                num_processors=16, seed=3)
    base.update(overrides)
    return base


class TestTelemetryIsInvisible:
    """Telemetry on vs off: bit-identical simulation results."""

    def test_figure6_point_unchanged(self):
        from repro.experiments.figure6 import ValidOnlyCopy

        off = _measure_point(switch_algorithm=ValidOnlyCopy(),
                             telemetry=False, **_fig6_kwargs())
        on = _measure_point(switch_algorithm=ValidOnlyCopy(),
                            telemetry=True, **_fig6_kwargs())
        assert off.telemetry is None
        assert on.telemetry is not None
        for field in dataclasses.fields(off):
            if field.name == "telemetry":
                continue
            assert getattr(off, field.name) == getattr(on, field.name), \
                field.name
        assert validate_snapshot(on.telemetry) == []

    def test_chaos_point_unchanged(self):
        base = dict(seed=0, nodes=4, time_slots=2, jobs=2, quantum=0.004,
                    rounds=6, message_bytes=1024, drop=0.02, dup=0.01)
        off = run_chaos_point(ChaosPoint(telemetry=False, **base))
        on = run_chaos_point(ChaosPoint(telemetry=True, **base))
        snapshot = on.pop("telemetry")
        assert "telemetry" not in off
        assert on == off
        assert validate_snapshot(snapshot) == []
        # The chaos snapshot is the *merged* story: reliability metrics
        # and the audit verdict land in the same registry.
        assert snapshot["metrics"]["audit.ok"]["value"] == 1
        assert snapshot["metrics"]["reliability.retransmits"]["value"] > 0

    def test_figure_reliability_point_unchanged(self):
        from repro.experiments.figure_reliability import (
            _measure_point as measure_reliability)

        base = dict(strategy="nack", drop=0.05, rounds=6,
                    message_bytes=1024, seed=2)
        off = measure_reliability(telemetry=False, **base)
        on = measure_reliability(telemetry=True, **base)
        assert off.telemetry is None
        assert on.telemetry is not None
        assert on.retransmit_epochs > 0
        for field in dataclasses.fields(off):
            if field.name == "telemetry":
                continue
            assert getattr(off, field.name) == getattr(on, field.name), \
                field.name
        assert validate_snapshot(on.telemetry) == []

    def test_snapshot_itself_is_reproducible(self):
        from repro.experiments.figure6 import ValidOnlyCopy

        a = _measure_point(switch_algorithm=ValidOnlyCopy(),
                           telemetry=True, **_fig6_kwargs())
        b = _measure_point(switch_algorithm=ValidOnlyCopy(),
                           telemetry=True, **_fig6_kwargs())
        assert a.telemetry == b.telemetry


class TestSerialVersusParallel:
    """Snapshots must not depend on which worker produced them."""

    def test_figure6_sweep_snapshots_identical(self):
        kwargs = dict(jobs=[1, 2], message_sizes=(1024,),
                      quanta_per_job=1.5, quantum=0.01, root_seed=9,
                      telemetry=True)
        serial = run_figure6(workers=1, **kwargs)
        pooled = run_figure6(workers=2, **kwargs)
        assert serial == pooled
        assert all(p.telemetry is not None for p in serial)

        merged_serial = merge_unified_snapshots(
            [p.telemetry for p in serial])
        merged_pooled = merge_unified_snapshots(
            [p.telemetry for p in pooled])
        assert merged_serial == merged_pooled
        assert validate_snapshot(merged_serial) == []
        # Merged counters really are the sum over the sweep's points.
        total = sum(p.telemetry["metrics"]["fm.packets_sent"]["value"]
                    for p in serial)
        assert merged_serial["metrics"]["fm.packets_sent"]["value"] == total


def _burst_records(**observe):
    """The raw ``(time, kind, fields)`` records of a traced 2-node run of
    two gang-scheduled burst jobs."""
    from repro.parpar.cluster import ClusterConfig, ParParCluster
    from repro.parpar.job import JobSpec
    from repro.workloads.synthetic import burst_benchmark

    cluster = ParParCluster(ClusterConfig(
        num_nodes=2, time_slots=2, quantum=0.002, seed=1, **observe))
    workload = burst_benchmark(40, 1, 256, quiet_time=400e-6)
    jobs = [cluster.submit(JobSpec(f"burst{i}", 2, workload))
            for i in range(2)]
    cluster.run_until_finished(jobs)
    return [(r.time, r.kind, r.fields) for r in cluster.tracer.records]


def _explain_records(jobs):
    """The raw records of one ``repro explain`` point."""
    from repro.telemetry.explain import _run_point

    _, _, records, _ = _run_point(
        jobs=jobs, message_bytes=1536, messages=20, quantum=0.004,
        num_processors=16, policy="", seed=5, keep_records=True)
    return [(r.time, r.kind, r.fields) for r in records]


def _point_records(point):
    """Picklable :func:`run_points` worker: one named run's raw records."""
    if point == "explain":
        return _explain_records(jobs=2)
    return _burst_records(trace=True)


class TestReplayBySeed:
    """Each run numbers its messages and wire packets from 0, so its raw
    records do not depend on what the process simulated before."""

    @pytest.mark.parametrize("point", ["explain", "burst"])
    def test_same_run_records_the_same_raw_stream(self, point):
        fresh = _point_records(point)
        _explain_records(jobs=1)    # another run in the same process
        again = _point_records(point)
        pooled, _ = run_points(_point_records, [point, point], workers=2)
        assert fresh == again
        assert fresh == pooled
        assert min(f["msg"] for _, kind, f in fresh
                   if kind == "msg-start") == 0
        assert min(f["seq"] for _, _, f in fresh if "seq" in f) == 0


class TestOneTracer:
    """A trace-only run records exactly what a traced telemetry run
    records: both go through the cluster's one tracer.  A telemetry run
    without ``trace`` streams the same records and keeps none."""

    def test_trace_only_run_records_the_telemetry_stream(self):
        traced = _burst_records(trace=True)
        assert traced == _burst_records(trace=True, telemetry=True)
        assert _burst_records(telemetry=True) == []
        kinds = {kind for _, kind, _ in traced}
        assert {"job-stop", "job-go", "span-begin", "span-end"} <= kinds


class TestUntracedRunsRecordNothing:
    """Every trace point is guarded, so a run without a tracer makes no
    ``Tracer.record`` call at all: no call, no kwargs dict."""

    def test_no_record_calls(self, monkeypatch):
        from repro.sim.trace import Tracer

        kinds = []

        def counting(self, kind, **fields):
            kinds.append(kind)

        monkeypatch.setattr(Tracer, "record", counting)
        _burst_records()
        # A fail-stop point: switches, an eviction and a rejoin.
        run_chaos_point(ChaosPoint(rounds=600, failstops=1, rejoin=True,
                                   requeue=True, jobs=3))
        assert kinds == []
