"""End-to-end telemetry: cluster capture, the demo, and the CLI verb."""

import json

from repro.cli import main
from repro.parpar.cluster import ClusterConfig, ParParCluster
from repro.parpar.job import JobSpec
from repro.telemetry.schema import validate_snapshot
from repro.telemetry.demo import SWITCH_STAGES, run_telemetry_demo
from repro.workloads.alltoall import alltoall_benchmark


class TestClusterCapture:
    def _run(self):
        cluster = ParParCluster(ClusterConfig(
            num_nodes=4, time_slots=2, quantum=0.004, seed=0,
            telemetry=True))
        jobs = [cluster.submit(JobSpec(f"a2a{i}", 4,
                                       alltoall_benchmark(20, 1024)))
                for i in range(2)]
        cluster.run_until_finished(jobs)
        return cluster

    def test_switch_spans_have_all_three_stages(self):
        cluster = self._run()
        spans = cluster.telemetry.all_spans()
        parents = [s for s in spans if s.name == "gang-switch"]
        assert parents
        children = {s.name for s in spans
                    if s.parent_id == parents[0].span_id}
        assert children == set(SWITCH_STAGES)

    def test_snapshot_validates_and_covers_every_layer(self):
        cluster = self._run()
        snap = cluster.telemetry_snapshot()
        assert validate_snapshot(snap) == []
        metrics = snap["metrics"]
        assert metrics["fm.packets_sent"]["value"] > 0        # firmware
        assert metrics["fabric.packets_moved"]["value"] > 0   # hardware
        assert metrics["switch.count"]["value"] > 0           # scheduler
        assert snap["profile"]["events"] > 0                  # DES kernel
        assert snap["spans"]["by_name"]["gang-switch"]["count"] > 0


class TestDemo:
    def test_demo_passes_its_own_checks(self):
        demo = run_telemetry_demo(nodes=4, time_slots=2, num_switches=2,
                                  message_bytes=1024)
        assert demo.ok, demo.problems
        assert demo.switches >= 2
        names = {e.get("name") for e in demo.trace["traceEvents"]}
        assert {"gang-switch", *SWITCH_STAGES} <= names


class TestCliTelemetryVerb:
    def test_smoke_writes_trace_and_snapshot(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        snap_path = tmp_path / "snap.json"
        assert main(["telemetry", "--smoke", "--switches", "2",
                     "--out", str(trace_path),
                     "--metrics", str(snap_path)]) == 0
        out = capsys.readouterr().out
        assert "telemetry smoke: snapshot schema OK" in out

        trace = json.loads(trace_path.read_text())
        assert any(e.get("name") == "gang-switch"
                   for e in trace["traceEvents"])
        snap = json.loads(snap_path.read_text())
        assert validate_snapshot(snap) == []

    def test_figure6_flag_writes_merged_snapshot(self, tmp_path, capsys):
        path = tmp_path / "telemetry.json"
        assert main(["figure6", "--jobs", "1", "2", "--sizes", "1024",
                     "--quantum", "0.01", "--telemetry", str(path)]) == 0
        snap = json.loads(path.read_text())
        assert validate_snapshot(snap) == []
        assert snap["metrics"]["fm.packets_sent"]["value"] > 0
