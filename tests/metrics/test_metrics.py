"""Unit tests for the metrics aggregation modules."""

import pytest

from repro.metrics.bandwidth import BandwidthSample, aggregate_bandwidth
from repro.metrics.counters import (StageTimings, SwitchRecord, SwitchRecorder,
                                    mean_stage_cycles, mean_stage_seconds)
from repro.metrics.occupancy import summarize_occupancy
from repro.telemetry.registry import MetricsRegistry


def record(node=0, seq=1, halt=0.001, switch=0.01, release=0.002,
           out_job=1, send_valid=3, recv_valid=10):
    return SwitchRecord(
        node_id=node, sequence=seq, old_slot=0, new_slot=1,
        halt_seconds=halt, switch_seconds=switch, release_seconds=release,
        out_job=out_job, in_job=2,
        out_send_valid=send_valid, out_recv_valid=recv_valid,
        algorithm="full-copy", started_at=0.0,
    )


class TestSwitchRecord:
    def test_total_and_cycles(self):
        cyc = mean_stage_cycles([record()], 200e6)
        assert cyc == StageTimings(halt=200_000, switch=2_000_000, release=400_000)
        assert cyc.total == 2_600_000


class TestSwitchRecorder:
    def test_filters(self):
        recorder = SwitchRecorder()
        recorder.add(record(node=0, seq=1))
        recorder.add(record(node=1, seq=1))
        recorder.add(record(node=0, seq=2, out_job=None))
        assert len(recorder) == 3
        assert len(recorder.with_outgoing_job()) == 2

    def test_mean_stage_cycles(self):
        records = [record(halt=0.001, switch=0.01, release=0.001),
                   record(halt=0.003, switch=0.02, release=0.003)]
        cyc = mean_stage_cycles(records, 200e6)
        assert cyc.halt == 400_000
        assert cyc.switch == 3_000_000
        assert cyc.release == 400_000

    def test_empty_recorder_means_zero(self):
        recorder = SwitchRecorder()
        assert mean_stage_seconds(recorder.records) == (0.0, 0.0, 0.0)
        assert mean_stage_cycles(recorder.records) == StageTimings(0, 0, 0)

    def test_mean_occupancy_ignores_idle_switches(self):
        recorder = SwitchRecorder()
        recorder.add(record(send_valid=4, recv_valid=20))
        recorder.add(record(out_job=None, send_valid=0, recv_valid=0))
        registry = MetricsRegistry()
        recorder.publish(registry)
        # The published histograms sample what summarize_occupancy means.
        send = registry.histogram("switch.out_send_valid")
        recv = registry.histogram("switch.out_recv_valid")
        assert (send.count, send.sum, recv.sum) == (1, 4, 20)
        assert registry.counter("switch.count").value == 2
        occ = summarize_occupancy(recorder.records)
        assert (occ.mean_send, occ.mean_recv) == (4.0, 20.0)


class TestOccupancySummary:
    def test_summary(self):
        recs = [record(send_valid=2, recv_valid=10),
                record(send_valid=4, recv_valid=30),
                record(out_job=None, send_valid=99, recv_valid=99)]
        occ = summarize_occupancy(recs)
        assert occ.samples == 2
        assert occ.mean_send == 3.0
        assert occ.mean_recv == 20.0
        assert occ.max_send == 4
        assert occ.max_recv == 30

    def test_empty(self):
        occ = summarize_occupancy([])
        assert occ.samples == 0 and occ.mean_recv == 0.0


class TestBandwidth:
    def test_sample_mbps(self):
        s = BandwidthSample(1, payload_bytes=10_000_000, started_at=1.0,
                            finished_at=2.0)
        assert s.mbps == pytest.approx(10.0)
        assert s.elapsed == pytest.approx(1.0)

    def test_aggregate_is_mean_times_count(self):
        samples = [
            BandwidthSample(1, 10_000_000, 0.0, 1.0),   # 10 MB/s
            BandwidthSample(2, 30_000_000, 0.0, 1.0),   # 30 MB/s
        ]
        assert [s.mbps for s in samples] == [pytest.approx(10.0),
                                             pytest.approx(30.0)]
        assert aggregate_bandwidth(samples) == pytest.approx(40.0)

    def test_aggregate_empty(self):
        assert aggregate_bandwidth([]) == 0.0
