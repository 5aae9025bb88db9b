"""End-to-end: dynamic buffer policies inside the full gang-scheduled
cluster — traffic flows, the engine reallocates, and every safety audit
stays clean."""

import pytest

from repro.errors import ConfigError
from repro.faults.audit import InvariantAuditor
from repro.fm.config import FMConfig
from repro.fm.policies import DynamicThreshold, make_policy
from repro.parpar.cluster import ClusterConfig, ParParCluster
from repro.parpar.job import JobSpec
from repro.workloads.bandwidth import bandwidth_benchmark

DYNAMIC = ("dynamic-threshold", "occamy", "bshare")


def policy_cluster(policy_name, jobs=2):
    return ParParCluster(ClusterConfig(
        num_nodes=2, time_slots=jobs, quantum=0.004, buffer_switching=True,
        policy=make_policy(policy_name),
        fm=FMConfig(max_contexts=jobs, num_processors=16),
    ))


class TestDynamicPolicyCluster:
    @pytest.mark.parametrize("policy_name", DYNAMIC)
    def test_two_jobs_flow_and_reallocate(self, policy_name):
        cluster = policy_cluster(policy_name)
        auditor = InvariantAuditor()
        auditor.attach(g.firmware for g in cluster.glue)
        jobs = [cluster.submit(JobSpec(f"bw{i}", 2,
                                       bandwidth_benchmark(150, 1400)))
                for i in range(2)]
        cluster.run_until_finished(jobs, max_events=100_000_000)

        for job in jobs:
            assert job.result_of(0).mbps > 0
        assert cluster.total_dropped() == 0
        engine = cluster.policy_engine
        assert engine is not None
        assert engine.reallocations > 0
        for cell in engine.conservation_report().values():
            assert cell["ok"]

        job_contexts = {
            job.job_id: {rank: cluster.endpoint_of(job, rank).context
                         for rank in range(2)}
            for job in jobs
        }
        report = auditor.report(job_contexts=job_contexts)
        assert report.ok, report.to_dict()
        assert report.packets_sent > 0

    def test_policy_by_config_name(self):
        """FMConfig.buffer_policy wires a named policy through the stack."""
        cluster = ParParCluster(ClusterConfig(
            num_nodes=2, time_slots=2, quantum=0.004, buffer_switching=True,
            fm=FMConfig(max_contexts=2, num_processors=16,
                        buffer_policy="occamy"),
        ))
        assert cluster.policy.name == "occamy"
        assert cluster.policy_engine is not None

    def test_dynamic_policy_requires_buffer_switching(self):
        with pytest.raises(ConfigError, match="buffer_switching"):
            ClusterConfig(num_nodes=2, time_slots=2, buffer_switching=False,
                          policy=DynamicThreshold()).resolved_policy()

    def test_static_policies_skip_the_engine(self):
        cluster = ParParCluster(ClusterConfig(
            num_nodes=2, time_slots=2, buffer_switching=True))
        assert cluster.policy_engine is None

    def test_telemetry_carries_policy_counters(self):
        cluster = ParParCluster(ClusterConfig(
            num_nodes=2, time_slots=2, quantum=0.004, buffer_switching=True,
            policy=make_policy("dynamic-threshold"),
            fm=FMConfig(max_contexts=2, num_processors=16),
            telemetry=True,
        ))
        jobs = [cluster.submit(JobSpec(f"bw{i}", 2,
                                       bandwidth_benchmark(60, 1400)))
                for i in range(2)]
        cluster.run_until_finished(jobs, max_events=100_000_000)
        snap = cluster.telemetry_snapshot()
        metrics = snap["metrics"]
        assert metrics["policy.reallocations"]["value"] > 0
        assert metrics["policy.reports"]["value"] == 1
        assert metrics["policy.max_window"]["kind"] == "gauge"


def _container_sizes(obj):
    """Size of every set and dict an object keeps."""
    return {name: len(value) for name, value in vars(obj).items()
            if isinstance(value, (set, dict))}


class TestBoundedSwitchBookkeeping:
    def test_state_does_not_grow_with_the_switch_count(self):
        """Fifty switches under a dynamic policy: the engine keeps plans
        for at most PLAN_KEEP sequences, and neither it nor a noded keeps
        anything that grows by one entry per switch."""
        cluster = policy_cluster("occamy")
        jobs = [cluster.submit(JobSpec(f"bw{i}", 2,
                                       bandwidth_benchmark(100_000, 1400)))
                for i in range(2)]
        engine = cluster.policy_engine
        masterd = cluster.masterd
        owners = [engine, *cluster.nodeds]
        early = None
        while masterd.switches_completed < 50:
            cluster.run_for(0.004)
            assert len(engine._plans) <= engine.PLAN_KEEP
            if early is None and masterd.switches_completed >= 10:
                early = [_container_sizes(owner) for owner in owners]
        assert not any(job.is_finished for job in jobs)
        assert engine.reallocations >= 2 * 40
        assert [_container_sizes(owner) for owner in owners] == early
