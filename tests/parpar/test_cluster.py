"""Integration tests: the full ParPar cluster with daemons and gang switching."""

import dataclasses
import gc
import weakref

import pytest

from repro.faults.model import FaultSpec
from repro.faults.strategies import STRATEGY_NAMES
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
        first_round = [r for r in cluster.recorder.records
                       if r.sequence == switched[0].sequence]
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

    def test_replace_revalidates(self):
        # A config variant is a dataclasses.replace, which runs the same
        # validation as the constructor.
        from repro.errors import ConfigError

        cfg = dataclasses.replace(ClusterConfig(num_nodes=4), quantum=0.5)
        assert cfg.quantum == 0.5 and cfg.num_nodes == 4
        with pytest.raises(ConfigError):
            dataclasses.replace(cfg, quantum=0)


@pytest.fixture
def collector_off():
    """Collect, then turn the collector off for the rest of the test."""
    def off():
        gc.collect()
        gc.disable()
    yield off
    gc.enable()


def _leaves_no_cyclic_garbage(run_point):
    """Run a point twice, the second time with the collector off, and
    check that nothing it built waits for a cyclic collection.  The
    first run only imports what the point imports lazily."""
    run_point()
    gc.collect()
    gc.disable()
    try:
        run_point()
        return gc.collect() == 0
    finally:
        gc.enable()


def _chaos(**overrides):
    from repro.faults.chaos import ChaosPoint, run_chaos_point

    params = dict(seed=3, nodes=4, drop=0.05, dup=0.02, jitter=0.05,
                  rounds=10)
    params.update(overrides)
    return lambda: run_chaos_point(ChaosPoint(**params))


class TestRunClusterIsFreedAtDel:
    """A cluster is acyclic, so it goes at its last reference; its
    finalizer then closes the simulator and cuts the network and
    firmware back-edges, so reference counting frees the whole run."""

    @pytest.mark.parametrize("telemetry", [False, True])
    def test_cluster_goes_with_its_last_reference(self, telemetry,
                                                  collector_off):
        cluster = small_cluster(telemetry=telemetry)
        job = cluster.submit(JobSpec("bw", 2, bandwidth_benchmark(4, 1024)))
        cluster.run_until_finished([job])
        assert job.is_finished
        ref = weakref.ref(cluster)
        collector_off()
        del cluster, job
        assert ref() is None
        assert gc.collect() == 0

    def test_unfinished_run(self, collector_off):
        """Jobs still loaded, contexts installed, processes parked."""
        cluster = small_cluster()
        cluster.submit(JobSpec("bw", 2, bandwidth_benchmark(400, 1024)))
        cluster.run_for(0.002)
        assert cluster.sim.peek() < float("inf")
        collector_off()
        del cluster
        assert gc.collect() == 0

    def test_figure6_cell(self):
        from repro.experiments.figure6 import run_figure6

        assert _leaves_no_cyclic_garbage(lambda: run_figure6(
            jobs=(2,), message_sizes=(1024,), quanta_per_job=1.0))

    def test_occamy_burst_cluster(self):
        from repro.fm.config import FMConfig
        from repro.workloads.synthetic import burst_benchmark

        def run():
            fm = FMConfig(max_contexts=4, num_processors=4,
                          buffer_policy="occamy")
            cluster = ParParCluster(ClusterConfig(
                num_nodes=4, time_slots=4, quantum=0.002, fm=fm))
            workload = burst_benchmark(10, 1, 256, quiet_time=400e-6)
            jobs = [cluster.submit(JobSpec(f"storm{i}", 4, workload))
                    for i in range(4)]
            cluster.run_until_finished(jobs)
            assert cluster.policy_engine is not None

        assert _leaves_no_cyclic_garbage(run)

    @pytest.mark.parametrize("strategy", STRATEGY_NAMES)
    def test_chaos_point(self, strategy):
        assert _leaves_no_cyclic_garbage(_chaos(strategy=strategy))

    def test_chaos_point_with_sram_flips(self):
        assert _leaves_no_cyclic_garbage(_chaos(sram=200.0))

    def test_chaos_point_with_a_failstop(self):
        assert _leaves_no_cyclic_garbage(_chaos(
            drop=0.0, dup=0.0, jitter=0.0, failstops=1, rejoin=True,
            requeue=True, rounds=200))

    def test_explain_point(self):
        from repro.telemetry.explain import run_explain

        assert _leaves_no_cyclic_garbage(lambda: run_explain(
            jobs=(2,), message_sizes=(1536,), messages=20))


class TestTeardownOnlyCutsLinks:
    @staticmethod
    def _run():
        cluster = small_cluster(
            telemetry=True, faults=FaultSpec(drop_rate=0.05),
            reliability_strategy="nack")
        jobs = [cluster.submit(JobSpec(f"bw{i}", 2,
                                       bandwidth_benchmark(20, 1024)))
                for i in range(2)]
        cluster.run_until_finished(jobs)
        return cluster, jobs

    @staticmethod
    def _readings(cluster, jobs):
        results = [{rank: repr(job.result_of(rank)) for rank in job.results}
                   for job in jobs]
        received = [noded.local_job(job_id).context.stats.packets_received
                    for noded in cluster.nodeds
                    for job_id in noded.hosted_jobs]
        return results, received

    def test_results_and_counters_read_the_same_after_teardown(self):
        cluster, jobs = self._run()
        before = self._readings(cluster, jobs)
        assert sum(before[1]) > 0
        cluster._finalizer()
        assert not cluster._finalizer.alive
        assert cluster.sim.peek() == float("inf")
        assert self._readings(cluster, jobs) == before
        torn_down = cluster.telemetry_snapshot()

        twin, twin_jobs = self._run()
        assert self._readings(twin, twin_jobs) == before
        assert torn_down == twin.telemetry_snapshot()


