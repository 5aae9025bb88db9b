"""End-to-end tests of the failure detection / eviction / recovery layer.

The deadlock-regression scenarios here pin the tentpole claim: a
fail-stop node — even one that dies with a switch in flight — cannot
wedge the cluster.  The masterd's guarded barrier must complete via
eviction within bounded simulated time, surviving jobs must finish, and
per-job failure policies (kill, requeue) must retire the jobs that lost
a rank.  Reintegration tests then bring the node back and check the
backing-store residual-integrity audit and re-allocatability.
"""

import pytest

from repro.errors import ConfigError
from repro.faults.model import FailStop, FaultSpec
from repro.parpar.cluster import ClusterConfig, ParParCluster
from repro.parpar.job import JobSpec, JobState
from repro.parpar.recovery import (FailureDetector, RecoveryConfig,
                                   RecoveryStats)
from repro.workloads.alltoall import alltoall_stream
from repro.workloads.bandwidth import bandwidth_benchmark


QUANTUM = 0.004

#: Tight knobs so recovery resolves within a few quanta in tests.
FAST_RECOVERY = RecoveryConfig(heartbeat_interval=0.001, miss_budget=3,
                               eviction_budget=8, switch_timeout=0.004,
                               max_switch_retries=1, max_switch_timeout=0.02)


def failstop_cluster(fail_at, rejoin_at=None, node=3, **overrides):
    spec = FaultSpec(failstop=(FailStop(node, fail_at, rejoin_at),))
    defaults = dict(num_nodes=4, time_slots=2, quantum=QUANTUM,
                    faults=spec, recovery=FAST_RECOVERY)
    defaults.update(overrides)
    return ParParCluster(ClusterConfig(**defaults))


def forever():
    return alltoall_stream(until=float("inf"), message_bytes=1000)


class TestConfig:
    def test_recovery_config_validated(self):
        with pytest.raises(ConfigError):
            RecoveryConfig(heartbeat_interval=0)
        with pytest.raises(ConfigError):
            RecoveryConfig(miss_budget=0)
        with pytest.raises(ConfigError):
            RecoveryConfig(miss_budget=5, eviction_budget=5)

    def test_failstop_outside_cluster_rejected(self):
        spec = FaultSpec(failstop=(FailStop(9, 0.01),))
        with pytest.raises(ConfigError, match="outside the cluster"):
            ClusterConfig(num_nodes=4, faults=spec)

    def test_failstop_implies_recovery(self):
        spec = FaultSpec(failstop=(FailStop(1, 0.01),))
        config = ClusterConfig(num_nodes=4, faults=spec)
        assert config.resolved_recovery() is not None
        assert ClusterConfig(num_nodes=4).resolved_recovery() is None


class TestDetector:
    def setup_method(self):
        self.stats = RecoveryStats()
        self.detector = FailureDetector(FAST_RECOVERY, [0, 1, 2, 3],
                                        self.stats)

    def test_suspicion_after_silence(self):
        d = self.detector
        for t in (0.001, 0.002, 0.003):
            d.heartbeat(0, t)
            d.heartbeat(1, t)
        assert d.sweep(0.0035) == []          # everyone fresh enough
        # Nodes 2 and 3 have been silent since t=0.
        newly = d.sweep(0.001 + FAST_RECOVERY.suspect_after + 1e-9)
        assert newly == [2, 3]
        assert self.stats.suspicions == 2

    def test_heartbeat_clears_suspicion_as_false(self):
        d = self.detector
        d.sweep(1.0)
        assert d.is_suspect(2)
        d.heartbeat(2, 1.001)
        assert not d.is_suspect(2)
        assert self.stats.false_suspicions == 1

    def test_detection_latency_recorded(self):
        d = self.detector
        d.note_failure(1, 0.010)
        d.sweep(0.030)
        assert self.stats.detection_latencies == [pytest.approx(0.020)]

    def test_evicted_heartbeats_ignored(self):
        d = self.detector
        d.sweep(1.0)
        d.mark_evicted(3)
        d.heartbeat(3, 1.001)
        assert 3 in d.evicted
        assert self.stats.false_suspicions == 0
        d.reinstate(3, 2.0)
        assert 3 not in d.evicted and not d.is_suspect(3)

    def test_overdue_needs_longer_silence(self):
        d = self.detector
        suspect_at = FAST_RECOVERY.suspect_after + 1e-9
        assert d.sweep(suspect_at) == [0, 1, 2, 3]
        assert d.overdue(suspect_at) == []
        assert d.overdue(FAST_RECOVERY.evict_after + 1e-9) == [0, 1, 2, 3]


class TestEviction:
    def test_failstop_mid_switch_completes_via_eviction(self):
        # The deadlock regression: node 3 dies while a switch is (or is
        # about to be) in flight.  Unguarded, the masterd would wait
        # forever for its ack and every survivor would wedge in the
        # flush.  The guarded barrier must evict and complete.
        # Death lands just after the switch multicast at the 24 ms
        # quantum boundary, with the submit phase long over.
        cluster = failstop_cluster(fail_at=6 * QUANTUM + 0.00005)
        # Long enough that no job retires before the death.
        jobs = [cluster.submit(JobSpec(f"j{i}", 2,
                                       bandwidth_benchmark(20_000, 500)))
                for i in range(4)]
        victims = [j for j in jobs if 3 in j.node_ids]
        survivors = [j for j in jobs if 3 not in j.node_ids]
        assert len(victims) == 2    # 2-wide buddies: (0,1) and (2,3)
        assert cluster.sim.now < 6 * QUANTUM   # death still ahead
        cluster.run_until_finished(jobs, max_events=20_000_000)

        masterd = cluster.masterd
        assert masterd.worker_ids == [0, 1, 2]
        assert masterd.matrix.excluded_nodes == [3]
        assert masterd._wait is None                  # no hung barrier
        for job in survivors:
            assert job.state is JobState.FINISHED
        for job in victims:
            assert job.state is JobState.KILLED and job.failed_node == 3
        stats = cluster.recovery_stats
        assert stats.evictions == 1
        assert stats.jobs_killed == 2
        assert stats.failstops_injected == 1
        assert len(stats.detection_latencies) == 1
        assert 0 < stats.detection_latencies[0] < 0.02
        # Eviction resolved within bounded time: rotation kept going.
        assert masterd.switches_completed >= 2

    def test_idle_path_eviction_without_switch(self):
        # A single occupied slot never switches; the lease monitor's
        # overdue path must evict on its own.
        cluster = failstop_cluster(fail_at=0.02)
        a = cluster.submit(JobSpec("a", 2, bandwidth_benchmark(40, 500)))
        b = cluster.submit(JobSpec("b", 2, forever()))
        assert b.node_ids == (2, 3)
        cluster.run_until_finished([a, b], max_events=5_000_000)
        assert cluster.masterd.worker_ids == [0, 1, 2]
        assert b.state is JobState.KILLED
        assert cluster.recovery_stats.evictions == 1

    def test_survivor_flush_sets_shrink(self):
        cluster = failstop_cluster(fail_at=6 * QUANTUM + 0.00005)
        jobs = [cluster.submit(JobSpec(f"j{i}", 2,
                                       bandwidth_benchmark(20_000, 500)))
                for i in range(4)]
        cluster.run_until_finished(jobs, max_events=20_000_000)
        for node in (0, 1, 2):
            assert cluster.glue[node].flush.participants == [0, 1, 2]

    def test_requeue_policy_restarts_job(self):
        cluster = failstop_cluster(fail_at=0.02)
        a = cluster.submit(JobSpec("a", 2, forever()))
        b = cluster.submit(JobSpec("b", 2, bandwidth_benchmark(20_000, 500),
                                   on_failure="requeue"))
        assert b.node_ids == (2, 3)
        cluster.run_until_finished([b], max_events=5_000_000)
        assert b.state is JobState.REQUEUED
        assert b.requeued_as is not None
        fresh = cluster.masterd.resolve_job(b.job_id)
        assert fresh.job_id != b.job_id
        assert fresh.state is JobState.FINISHED
        assert 3 not in fresh.node_ids
        assert cluster.recovery_stats.jobs_requeued == 1
        assert cluster.recovery_stats.jobs_killed == 0

    def test_requeue_falls_back_to_kill_without_capacity(self):
        cluster = failstop_cluster(fail_at=0.02, node=1, num_nodes=2,
                                   time_slots=1)
        job = cluster.submit(JobSpec("only", 2,
                                     bandwidth_benchmark(20_000, 500),
                                     on_failure="requeue"))
        cluster.run_until_finished([job], max_events=5_000_000)
        assert job.state is JobState.KILLED
        stats = cluster.recovery_stats
        assert stats.requeue_failures == 1
        assert stats.jobs_requeued == 0

    def test_no_loss_audit_for_surviving_jobs(self):
        # Survivors keep their delivery guarantees through the recovery
        # epoch: every message the finite jobs sent arrived exactly once.
        cluster = failstop_cluster(fail_at=6 * QUANTUM + 0.00005)
        jobs = [cluster.submit(JobSpec(f"j{i}", 2,
                                       bandwidth_benchmark(20_000, 500)))
                for i in range(4)]
        cluster.run_until_finished(jobs, max_events=20_000_000)
        for job in jobs:
            if 3 in job.node_ids:
                continue
            for rank in (0, 1):
                ep = cluster.endpoint_of(job, rank)
                assert ep.context.stats.packets_received > 0


    def test_dead_node_excused_once_from_open_wait(self):
        # The lease monitor excuses an overdue node at every sweep; the
        # open wait counts it once, and excusing the last owed node
        # fires the wait.
        cluster = failstop_cluster(fail_at=1.0)
        masterd = cluster.masterd
        wait = masterd._await("ended", 7, [1, 3])
        stats = cluster.recovery_stats
        before = stats.unwedged_waits
        masterd._unwedge_waits(3)
        masterd._unwedge_waits(3)
        assert stats.unwedged_waits == before + 1
        assert not wait.event.triggered
        masterd._unwedge_waits(1)
        assert stats.unwedged_waits == before + 2
        assert wait.event.triggered
        assert wait.acks == set()           # excused, not acked

    def test_switch_wait_is_not_excused(self):
        # A switch barrier frees itself by evicting its laggards.
        cluster = failstop_cluster(fail_at=1.0)
        masterd = cluster.masterd
        wait = masterd._await("switch-done", 1, [0, 1, 2, 3])
        masterd._unwedge_waits(3)
        assert wait.owed == {0, 1, 2, 3}
        assert masterd._ack("switch-done", 1, 3)
        assert not masterd._ack("switch-done", 2, 3)
        assert wait.owed == {0, 1, 2}


class TestReintegration:
    def test_rejoin_restores_and_readmits(self):
        cluster = failstop_cluster(fail_at=6 * QUANTUM + 0.00005,
                                   rejoin_at=0.08)
        a = cluster.submit(JobSpec("a", 2, forever()))
        b = cluster.submit(JobSpec("b", 2, forever()))
        c = cluster.submit(JobSpec("c", 2, forever()))
        d = cluster.submit(JobSpec("d", 2, forever()))
        victims = [j for j in (a, b, c, d) if 3 in j.node_ids]
        assert len(victims) == 2    # one per slot, both on buddies (2,3)
        assert cluster.sim.now < 6 * QUANTUM
        cluster.run_for(0.15)

        masterd = cluster.masterd
        assert masterd.worker_ids == [0, 1, 2, 3]
        assert masterd.matrix.excluded_nodes == []
        stats = cluster.recovery_stats
        assert stats.evictions == 1
        assert stats.reintegrations == 1
        assert stats.rejoins_injected == 1
        # The dead node hosted two contexts.  Whatever was installed (or
        # already switched out) at death has a backing image and must
        # pass the residual-integrity restore; a context that never ran
        # has no image yet and is discarded without one.
        assert stats.contexts_restored >= 1
        assert stats.contexts_restored + stats.contexts_discarded == 2
        # The flush protocol runs over the full set again, from epoch 0.
        for node in range(4):
            assert cluster.glue[node].flush.participants == [0, 1, 2, 3]
        # And node 3's NIC serves again.
        assert not cluster.glue[3].firmware.dead

    def test_rejoined_node_schedulable_again(self):
        cluster = failstop_cluster(fail_at=0.02, rejoin_at=0.06)
        a = cluster.submit(JobSpec("a", 2, forever()))
        b = cluster.submit(JobSpec("b", 2, forever()))
        cluster.run_for(0.1)
        assert cluster.masterd.worker_ids == [0, 1, 2, 3]
        # A 4-wide job needs all four columns — including the rejoined one.
        from repro.workloads.alltoall import alltoall_benchmark

        wide = cluster.submit(JobSpec("wide", 4, alltoall_benchmark(10, 500)))
        assert 3 in wide.node_ids
        cluster.run_until_finished([wide], max_events=5_000_000)
        assert wide.state is JobState.FINISHED

    def test_requeue_after_rejoin_may_use_restored_node(self):
        cluster = failstop_cluster(fail_at=0.02, rejoin_at=0.03)
        a = cluster.submit(JobSpec("a", 2, forever()))
        b = cluster.submit(JobSpec("b", 2, bandwidth_benchmark(20_000, 500),
                                   on_failure="requeue"))
        cluster.run_until_finished([b], max_events=20_000_000)
        fresh = cluster.masterd.resolve_job(b.job_id)
        assert fresh.state is JobState.FINISHED

    def test_heartbeats_resume_after_rejoin(self):
        cluster = failstop_cluster(fail_at=0.02, rejoin_at=0.04)
        a = cluster.submit(JobSpec("a", 2, forever()))
        b = cluster.submit(JobSpec("b", 2, forever()))
        cluster.run_for(0.1)
        detector = cluster.masterd.detector
        assert not detector.is_suspect(3)
        assert 3 not in detector.evicted
        assert detector.last_seen[3] > 0.09

    def test_noded_drops_messages_while_dead(self):
        cluster = failstop_cluster(fail_at=6 * QUANTUM + 0.00005)
        a = cluster.submit(JobSpec("a", 2, forever()))
        b = cluster.submit(JobSpec("b", 2, forever()))
        c = cluster.submit(JobSpec("c", 2, forever()))
        d = cluster.submit(JobSpec("d", 2, forever()))
        cluster.run_for(0.05)
        noded = cluster.nodeds[3]
        assert noded.failed
        assert noded.dropped_messages > 0
        assert cluster.glue[3].firmware.dead

    def test_failstop_during_load_does_not_wedge_submit(self):
        # The node dies while job loads are still being distributed: the
        # in-flight load must be released by the lease monitor's
        # unwedge, the submit completes, and the half-loaded job is
        # retired by the eviction that follows.
        cluster = failstop_cluster(fail_at=0.004)
        jobs = [cluster.submit(JobSpec(f"j{i}", 2, forever()))
                for i in range(4)]
        victims = [j for j in jobs if 3 in j.node_ids]
        assert victims                      # at least one spans the corpse
        cluster.run_for(0.05)
        assert cluster.masterd.worker_ids == [0, 1, 2]
        for job in victims:
            assert job.state is JobState.KILLED
        assert cluster.recovery_stats.unwedged_waits >= 1
