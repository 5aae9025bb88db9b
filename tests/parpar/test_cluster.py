"""Integration tests: the full ParPar cluster with daemons and gang switching."""

import gc
import weakref

import pytest

from repro.fm.policies.static import FullBuffer, StaticPartition
from repro.gluefm.switch import FullCopy, ValidOnlyCopy
from repro.parpar.cluster import ClusterConfig, ParParCluster
from repro.parpar.job import JobSpec, JobState
from repro.workloads.alltoall import alltoall_benchmark
from repro.workloads.bandwidth import bandwidth_benchmark


def small_cluster(**overrides):
    defaults = dict(num_nodes=4, time_slots=2, quantum=0.005)
    defaults.update(overrides)
    return ParParCluster(ClusterConfig(**defaults))


class TestJobLifecycle:
    def test_submit_load_run_finish(self):
        cluster = small_cluster()
        job = cluster.submit(JobSpec("bw", 2, bandwidth_benchmark(50, 1000)))
        assert job.state is JobState.READY
        assert job.node_ids == (0, 1)
        cluster.run_until_finished([job])
        assert job.state is JobState.FINISHED
        assert job.result_of(0).mbps > 0
        assert job.result_of(1) == 50
        assert cluster.total_dropped() == 0

    def test_job_removed_from_matrix_after_finish(self):
        cluster = small_cluster()
        job = cluster.submit(JobSpec("bw", 2, bandwidth_benchmark(20, 500)))
        assert cluster.matrix.jobs == [job.job_id]
        cluster.run_until_finished([job])
        assert cluster.matrix.jobs == []

    def test_endpoint_accessible_after_ready(self):
        cluster = small_cluster()
        job = cluster.submit(JobSpec("bw", 2, bandwidth_benchmark(20, 500)))
        cluster.run_until_finished([job])
        ep = cluster.endpoint_of(job, 0)
        assert ep.rank == 0
        assert ep.library.messages_sent == 20

    def test_oversized_job_raises(self):
        from repro.errors import AllocationError

        cluster = small_cluster()
        with pytest.raises(AllocationError):
            cluster.submit(JobSpec("huge", 99, bandwidth_benchmark(1, 1)))


class TestGangScheduling:
    def test_two_jobs_time_share_and_finish(self):
        cluster = small_cluster()
        j1 = cluster.submit(JobSpec("bw1", 2, bandwidth_benchmark(400, 1400)))
        j2 = cluster.submit(JobSpec("bw2", 2, bandwidth_benchmark(400, 1400)))
        # Two 2-process jobs pack into one slot side by side (DHC).
        assert j1.slot == j2.slot == 0
        cluster.run_until_finished([j1, j2])
        assert j1.result_of(0).mbps > 0
        assert j2.result_of(0).mbps > 0
        assert cluster.total_dropped() == 0

    def test_jobs_in_different_slots_get_switched(self):
        cluster = small_cluster()
        # Each job needs all 4 nodes -> they land in different slots.
        j1 = cluster.submit(JobSpec("a2a-1", 4, alltoall_benchmark(120, 1000)))
        j2 = cluster.submit(JobSpec("a2a-2", 4, alltoall_benchmark(120, 1000)))
        assert j1.slot != j2.slot
        cluster.run_until_finished([j1, j2])
        assert cluster.masterd.switches_completed >= 2
        assert len(cluster.recorder) >= 2 * cluster.config.num_nodes
        assert cluster.total_dropped() == 0
        for job in (j1, j2):
            for rank in range(4):
                stats = job.result_of(rank)
                assert stats.messages_received == 120 * 3

    def test_switch_records_have_three_stages(self):
        cluster = small_cluster(switch_algorithm=FullCopy())
        j1 = cluster.submit(JobSpec("a", 4, alltoall_benchmark(150, 1200)))
        j2 = cluster.submit(JobSpec("b", 4, alltoall_benchmark(150, 1200)))
        cluster.run_until_finished([j1, j2])
        switched = cluster.recorder.with_outgoing_job()
        assert switched, "at least one switch must have moved a real context"
        assert all(r.switch_seconds > 0 for r in switched)
        # The last node to halt (or to finish copying) finds all peer
        # HALTs (READYs) banked and waits zero time; the others wait on
        # the stragglers — so assert on the per-round maxima.
        first_round = cluster.recorder.for_sequence(switched[0].sequence)
        assert max(r.halt_seconds for r in first_round) > 0
        assert max(r.release_seconds for r in first_round) > 0
        # Full copy dominates: the paper's Figure 7 shape.
        for rec in switched:
            assert rec.switch_seconds > rec.halt_seconds
            assert rec.switch_seconds > rec.release_seconds

    def test_no_quantum_switch_for_single_slot(self):
        cluster = small_cluster()
        job = cluster.submit(JobSpec("solo", 2, bandwidth_benchmark(300, 1400)))
        cluster.run_until_finished([job])
        # Only one occupied slot: the masterd skips rotation entirely.
        assert cluster.masterd.switches_completed == 0

    def test_valid_only_switch_cheaper_than_full(self):
        def run(algo):
            cluster = small_cluster(switch_algorithm=algo)
            j1 = cluster.submit(JobSpec("a", 4, alltoall_benchmark(150, 1200)))
            j2 = cluster.submit(JobSpec("b", 4, alltoall_benchmark(150, 1200)))
            cluster.run_until_finished([j1, j2])
            recs = cluster.recorder.with_outgoing_job()
            return sum(r.switch_seconds for r in recs) / len(recs)

        assert run(ValidOnlyCopy()) < run(FullCopy()) / 5


class TestResidentBaseline:
    def test_resident_mode_runs_without_flush(self):
        cluster = small_cluster(buffer_switching=False)
        assert isinstance(cluster.policy, StaticPartition)
        j1 = cluster.submit(JobSpec("a", 4, alltoall_benchmark(40, 1000)))
        j2 = cluster.submit(JobSpec("b", 4, alltoall_benchmark(40, 1000)))
        cluster.run_until_finished([j1, j2])
        assert cluster.total_dropped() == 0
        for rec in cluster.recorder.records:
            assert rec.switch_seconds == 0.0
            assert rec.algorithm == "resident"

    def test_switching_mode_uses_full_buffer_policy(self):
        cluster = small_cluster()
        assert isinstance(cluster.policy, FullBuffer)


class TestConfig:
    def test_resolved_fm_ties_shape(self):
        cfg = ClusterConfig(num_nodes=8, time_slots=3)
        fm = cfg.resolved_fm()
        assert fm.max_contexts == 3
        assert fm.num_processors == 8

    def test_invalid_config_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            ClusterConfig(num_nodes=0)
        with pytest.raises(ConfigError):
            ClusterConfig(quantum=0)

    def test_with_overrides(self):
        cfg = ClusterConfig(num_nodes=4).with_overrides(quantum=0.5)
        assert cfg.quantum == 0.5 and cfg.num_nodes == 4


class TestRunClusterIsFreedAtDel:
    @pytest.mark.parametrize("telemetry", [False, True])
    def test_cluster_goes_with_its_last_reference(self, telemetry):
        """No clock closure or component holds the cluster itself, so a
        run cluster is freed at ``del`` with the collector off.  Its
        component graph (daemons, GlueFM, queues and the tracer they
        share) still waits for a cyclic collection."""
        cluster = small_cluster(telemetry=telemetry)
        job = cluster.submit(JobSpec("bw", 2, bandwidth_benchmark(4, 1024)))
        cluster.run_until_finished([job])
        assert job.is_finished
        ref = weakref.ref(cluster)
        gc.disable()
        try:
            del cluster, job
            assert ref() is None
        finally:
            gc.enable()
