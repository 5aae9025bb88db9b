"""The end-to-end benchmark's four workloads.

Each workload is a list of hermetic points, every one a closed-loop batch
simulation driven through the repo's public experiment API
(``run_figure6``, ``ParParCluster``, ``run_chaos_point``,
``run_explain``).  A point's RNG seed derives from the benchmark
``--seed`` and the point's label only, so the same seed gives the same
inputs whatever order or process the points run in.

The workloads are chosen to separate the layers (see README.md for the
measured shares):

- ``gang_bw`` is data path: FM library, LANai firmware and fabric;
- ``switch_storm`` is switch protocol: gluefm, parpar and the Occamy
  policy engine, with the fabric mostly carrying HALT/READY packets;
- ``chaos_lossy`` is the only workload where the faults layer and the
  invariant auditor run;
- ``explain_trace`` is the only workload with the tracer on plus offline
  lineage analysis.

Sizes are scaled so one rep of a workload takes a few seconds on a
2-core Xeon; a run repeats reps to fill its ``--seconds``.

This module imports nothing from ``repro`` at import time, so the
orchestrator can read the workload table without the package on its
path.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, Callable, NamedTuple


class Point(NamedTuple):
    """One hermetic simulation: a stable label plus its runner's arguments."""

    label: str
    params: tuple


class Outcome(NamedTuple):
    """What a point produced."""

    output: Any           # JSON-able; its sha256 is the point's digest
    data_pkts: int        # application data packets delivered
    problems: list        # failed correctness checks, as messages


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    points: Callable[[int], list]     # seed -> [Point]
    run: Callable[[Point], Outcome]
    #: label of the smallest point, the one ``--smoke`` runs
    smoke_label: str
    #: repro modules the points import; setup time covers importing them
    modules: tuple
    #: host seconds of one untraced rep child, spawn included, on a 2-core
    #: 2.1 GHz Xeon; a run of ``--seconds S`` makes round(S / rep_seconds)
    #: reps, so the rep count is fixed by the benchmark, not by how fast
    #: the commit runs
    rep_seconds: float


def digest(output: Any) -> str:
    """sha256 of the canonical JSON form of a point's output."""
    h = hashlib.sha256()
    for chunk in json.JSONEncoder(sort_keys=True).iterencode(output):
        h.update(chunk.encode())
    return h.hexdigest()


def data_packets(cluster) -> tuple:
    """(data packets delivered, data packets transmitted) for a cluster.

    Read from public attributes: each node daemon keeps the record of
    every job it hosted, ended ones included, and each record's FM
    context counts the data packets its firmware delivered and sent
    (retransmitted clones included).
    """
    delivered = sent = 0
    for noded in cluster.nodeds:
        for job_id in noded.hosted_jobs:
            stats = noded.local_job(job_id).context.stats
            delivered += stats.packets_received
            sent += stats.packets_sent
    return delivered, sent


# ---------------------------------------------------------------- gang_bw
GANG_JOBS = (1, 4, 8)
#: the Figure 6 default is 4.5 quanta per job; 1.5 keeps every job
#: rotating through several gang switches at a third of the host time
GANG_QUANTA_PER_JOB = 1.5


def _gang_points(seed: int) -> list:
    from repro.experiments.common import FIG6_MESSAGE_SIZES
    return [Point(f"jobs={jobs}:size={size}", (seed, jobs, size))
            for jobs in GANG_JOBS for size in FIG6_MESSAGE_SIZES]


def _gang_run(point: Point) -> Outcome:
    from repro.experiments.figure6 import run_figure6
    from repro.fm.config import FMConfig

    seed, jobs, size = point.params
    (cell,) = run_figure6(jobs=(jobs,), message_sizes=(size,),
                          quanta_per_job=GANG_QUANTA_PER_JOB, root_seed=seed)
    fm = FMConfig(max_contexts=jobs)
    # Each job sends its messages plus one 1-byte finish message.
    per_job = (cell.messages_per_job * fm.packets_for(size)
               + fm.packets_for(1))
    problems = [f"job {i} blocked at 0 MB/s"
                for i, mbps in enumerate(cell.per_job_mbps) if mbps <= 0]
    return Outcome(dataclasses.asdict(cell), jobs * per_job, problems)


# ---------------------------------------------------------------- switch_storm
STORM_NODES = (8, 16)
STORM_QUANTA = (0.001, 0.002)
STORM_SLOTS = 4
STORM_JOBS = 4
STORM_BURSTS = 100
STORM_POLICY = "occamy"


def _storm_points(seed: int) -> list:
    return [Point(f"nodes={nodes}:quantum={quantum * 1e3:g}ms",
                  (seed, nodes, quantum))
            for nodes in STORM_NODES for quantum in STORM_QUANTA]


def _storm_run(point: Point) -> Outcome:
    from repro.experiments.common import point_seed
    from repro.fm.config import FMConfig
    from repro.parpar.cluster import ClusterConfig, ParParCluster
    from repro.parpar.job import JobSpec
    from repro.workloads.synthetic import burst_benchmark

    seed, nodes, quantum = point.params
    fm = FMConfig(max_contexts=STORM_SLOTS, num_processors=nodes,
                  buffer_policy=STORM_POLICY)
    cluster = ParParCluster(ClusterConfig(
        num_nodes=nodes, time_slots=STORM_SLOTS, quantum=quantum, fm=fm,
        seed=point_seed(seed, f"switch_storm:{point.label}")))
    workload = burst_benchmark(STORM_BURSTS, 1, 256, quiet_time=400e-6)
    jobs = [cluster.submit(JobSpec(f"storm{i}", nodes, workload))
            for i in range(STORM_JOBS)]
    cluster.run_until_finished(jobs)
    problems = [f"job {i} did not finish"
                for i, job in enumerate(jobs) if not job.is_finished]
    output = {
        "ranks": [[dataclasses.asdict(job.results[rank])
                   for rank in sorted(job.results)] for job in jobs],
        "switches": cluster.masterd.switches_completed,
        "reallocations": cluster.policy_engine.reallocations,
        "events": cluster.sim.processed_events,
        "sim_seconds": cluster.sim.now,
    }
    delivered, _ = data_packets(cluster)
    return Outcome(output, delivered, problems)


# ---------------------------------------------------------------- chaos_lossy
CHAOS_STRATEGIES = ("per-packet", "cumulative", "nack", "adaptive")
CHAOS_RUNS = 5
CHAOS_ROUNDS = 16


def _chaos_points(seed: int) -> list:
    return [Point(f"strategy={strategy}:run={run}", (seed, strategy, run))
            for strategy in CHAOS_STRATEGIES for run in range(CHAOS_RUNS)]


def _chaos_run(point: Point) -> Outcome:
    from repro.experiments.common import point_seed
    from repro.faults.chaos import ChaosPoint, run_chaos_point

    seed, strategy, _ = point.params
    report = run_chaos_point(ChaosPoint(
        seed=point_seed(seed, f"chaos_lossy:{point.label}"), nodes=8,
        drop=0.02, dup=0.01, jitter=0.05, rounds=CHAOS_ROUNDS,
        strategy=strategy, audit=True))
    problems = []
    if report["error"] is not None:
        problems.append(f"simulation error: {report['error']}")
    if not report["audit"]["ok"]:
        problems.append(f"audit not clean: {report['audit']}")
    return Outcome(report, report["audit"]["packets_delivered"], problems)


# ---------------------------------------------------------------- explain_trace
EXPLAIN_JOBS = (1, 2, 4, 8)
EXPLAIN_SIZES = (1536, 6144)
EXPLAIN_QUANTUM = 0.008


def _explain_points(seed: int) -> list:
    return [Point(f"jobs={jobs}:size={size}", (seed, jobs, size))
            for jobs in EXPLAIN_JOBS for size in EXPLAIN_SIZES]


def _explain_run(point: Point) -> Outcome:
    from repro.telemetry.explain import run_explain

    seed, jobs, size = point.params
    (result,) = run_explain(jobs=(jobs,), message_sizes=(size,),
                            quantum=EXPLAIN_QUANTUM, root_seed=seed)
    stats = result["point"]
    problems = []
    if stats["incomplete"] or not stats["complete"]:
        problems.append(f"{stats['incomplete']} incomplete messages, "
                        f"{stats['complete']} complete")
    if stats["mismatches"]:
        problems.append(f"{stats['mismatches']} attribution sum mismatches")
    if stats["truncated"]:
        problems.append("trace truncated")
    delivered = sum(m["frags"] for m in result["per_message"])
    return Outcome(result, delivered, problems)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="gang_bw",
        why="Figure 6 cells: the data path (FM library, LANai firmware, "
            "fabric) does almost all the work; the switch protocol is "
            "under 2%",
        points=_gang_points, run=_gang_run, smoke_label="jobs=1:size=98304",
        modules=("repro.experiments.figure6",), rep_seconds=5.0),
    Workload(
        name="switch_storm",
        why="light bursts under 1-2 ms quanta and the Occamy policy: "
            "gluefm, parpar and the policy engine do their most work; "
            "most fabric packets are HALT/READY",
        points=_storm_points, run=_storm_run,
        smoke_label="nodes=8:quantum=2ms",
        modules=("repro.parpar.cluster", "repro.workloads.synthetic",
                 "repro.fm.policies"),
        rep_seconds=3.7),
    Workload(
        name="chaos_lossy",
        why="4 reliability strategies under drop, dup and jitter with the "
            "auditor on: the only workload where the faults layer and "
            "faults.audit run",
        points=_chaos_points, run=_chaos_run,
        smoke_label="strategy=per-packet:run=0",
        modules=("repro.faults.chaos",), rep_seconds=4.3),
    Workload(
        name="explain_trace",
        why="repro explain points: the only workload with the tracer on "
            "plus offline lineage analysis, and the largest memory "
            "footprint",
        points=_explain_points, run=_explain_run,
        smoke_label="jobs=1:size=6144",
        modules=("repro.telemetry.explain",), rep_seconds=4.0),
)}


def setup(workload: Workload) -> None:
    """Import the workload's modules and build a first cluster.

    This is the set-up a user pays once per process: module imports
    (including the kernel's loop compile and priming) and the first
    ``ParParCluster`` construction.
    """
    import importlib

    for module in workload.modules:
        importlib.import_module(module)
    from repro.parpar.cluster import ClusterConfig, ParParCluster
    ParParCluster(ClusterConfig(num_nodes=2, time_slots=1))
