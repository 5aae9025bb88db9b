"""Whole telemetry snapshots, pinned by digest.

The schema tests check a snapshot's shape; these pin its bytes.  Each
run is small and seeded, and together they reach every span family the
snapshot sums: the switch stages, packet flights, retransmit epochs
(lossy chaos with duplicates), ``realloc`` spans (an Occamy burst run),
the incomplete messages a fail-stop leaves, and a record cap that
truncates the stream and clips the spans left open.  A change that
moves one bit of a count, a ``total_seconds`` or a metric fails here.
"""

import hashlib
import json

import pytest

from repro.experiments import figure5
from repro.experiments.figure9 import run_figure9
from repro.faults.chaos import ChaosPoint, run_chaos_point
from repro.fm.config import FMConfig
from repro.fm.policies import make_policy
from repro.parpar.cluster import ClusterConfig, ParParCluster
from repro.parpar.job import JobSpec
from repro.telemetry.schema import validate_snapshot
from repro.telemetry.session import merge_unified_snapshots
from repro.workloads.bandwidth import bandwidth_benchmark
from repro.workloads.synthetic import burst_benchmark


def _figure9():
    """``repro figure9 --nodes 4 --switches 4 --telemetry``'s snapshot."""
    points = run_figure9(nodes=(4,), num_switches=4, telemetry=True)
    return merge_unified_snapshots(p.telemetry for p in points)


def _figure5_cell():
    return figure5._measure_point(2, 1024, 200, 16, telemetry=True).telemetry


def _lossy_chaos():
    return run_chaos_point(ChaosPoint(rounds=10, drop=0.05, dup=0.05,
                                      telemetry=True))["telemetry"]


def _failstop_chaos():
    return run_chaos_point(ChaosPoint(rounds=200, failstops=1, rejoin=True,
                                      telemetry=True))["telemetry"]


def _occamy_bursts():
    cluster = ParParCluster(ClusterConfig(
        num_nodes=2, time_slots=2, quantum=0.002, seed=1,
        fm=FMConfig(max_contexts=2, num_processors=16),
        policy=make_policy("occamy"), telemetry=True))
    workload = burst_benchmark(40, 1, 256, quiet_time=400e-6)
    jobs = [cluster.submit(JobSpec(f"burst{i}", 2, workload))
            for i in range(2)]
    cluster.run_until_finished(jobs)
    return cluster.telemetry_snapshot()


def _truncated():
    """A record cap far below the run's stream: the snapshot is built
    from the first records only, and every span still open is clipped."""
    cluster = ParParCluster(ClusterConfig(
        num_nodes=2, time_slots=2, quantum=0.004, seed=2,
        fm=FMConfig(max_contexts=2, num_processors=16), telemetry=True))
    cluster.tracer.limit = 2500
    workload = bandwidth_benchmark(400, 1536)
    jobs = [cluster.submit(JobSpec(f"bw{i}", 2, workload)) for i in range(2)]
    cluster.run_until_finished(jobs)
    assert cluster.tracer.truncated
    return cluster.telemetry_snapshot()


#: run -> (sha256 of the snapshot's sorted-key JSON, span names it must
#: hold); recorded before the snapshot's spans moved onto the stream
GOLDENS = {
    "figure9-4-nodes": (
        _figure9,
        "817c3f07301f77b13ccad0d84739b500bdaccea6b9cada06e3b30c9ab3909708",
        ("gang-switch", "halt", "swap", "release", "pkt-flight")),
    "figure5-cell": (
        _figure5_cell,
        "536ef4d8b806a5903cc81fcbbd3c3b22da96678a2f070954b1ecff708e6cf15a",
        ("pkt-flight", "message", "stall-credit")),
    "lossy-chaos-dup": (
        _lossy_chaos,
        "04a608c9886eabd7c3dd9ea0ef936c78065b1fbb5daa3d338b05a9f5dd40a282",
        ("retransmit-epoch",)),
    "occamy-bursts": (
        _occamy_bursts,
        "3195d174fe522ceb55a0ac0d6cf7dab4568d67953f22d6f1ac9cf776e2832c47",
        ("realloc",)),
    "failstop-chaos": (
        _failstop_chaos,
        "a835ce9f2f2672000656f9bd99977380b05cb111fe7359ff63b6a2b02e89e184",
        ("message", "recovery-evict")),
    "truncated-stream": (
        _truncated,
        "0d69bafb35ff6671ed44419ef80a36b138d00046d8908a748d93ddba0714262e",
        ("gang-switch", "message")),
}


def digest(snapshot: dict) -> str:
    text = json.dumps(snapshot, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_snapshot_bytes_are_pinned(name):
    run, expected, names = GOLDENS[name]
    snapshot = run()
    assert validate_snapshot(snapshot) == []
    assert set(names) <= set(snapshot["spans"]["by_name"])
    assert digest(snapshot) == expected
