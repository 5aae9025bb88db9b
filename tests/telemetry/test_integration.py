"""End-to-end telemetry: cluster capture and the sweeps' ``--telemetry``."""

import json

from repro.cli import main
from repro.parpar.cluster import ClusterConfig, ParParCluster
from repro.parpar.job import JobSpec
from repro.telemetry.schema import validate_snapshot
from repro.workloads.alltoall import alltoall_benchmark
from tests.telemetry.oracle import build_spans

#: The stages a complete switch must expose (the paper's three phases).
SWITCH_STAGES = ("halt", "swap", "release")


class TestClusterCapture:
    def _run(self, **observe):
        cluster = ParParCluster(ClusterConfig(
            num_nodes=4, time_slots=2, quantum=0.004, seed=0,
            telemetry=True, **observe))
        jobs = [cluster.submit(JobSpec(f"a2a{i}", 4,
                                       alltoall_benchmark(20, 1024)))
                for i in range(2)]
        cluster.run_until_finished(jobs)
        return cluster

    def test_switch_spans_have_all_three_stages(self):
        cluster = self._run(trace=True)
        spans = build_spans(cluster.tracer.records)
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


class TestCliTelemetryVerb:
    """The sweep verbs' ``--telemetry OUT.json`` flag."""

    def test_figure6_flag_writes_merged_snapshot(self, tmp_path, capsys):
        path = tmp_path / "telemetry.json"
        assert main(["figure6", "--jobs", "1", "2", "--sizes", "1024",
                     "--quantum", "0.01", "--telemetry", str(path)]) == 0
        snap = json.loads(path.read_text())
        assert validate_snapshot(snap) == []
        assert snap["metrics"]["fm.packets_sent"]["value"] > 0

        path = tmp_path / "switches.json"
        assert main(["figure9", "--nodes", "4", "--switches", "2",
                     "--telemetry", str(path)]) == 0
        snap = json.loads(path.read_text())
        assert validate_snapshot(snap) == []
        for name in ("gang-switch", *SWITCH_STAGES):
            assert snap["spans"]["by_name"][name]["count"] > 0, name
