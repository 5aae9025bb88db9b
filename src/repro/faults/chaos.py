"""Chaos campaigns: gang-scheduled all-to-all under injected faults.

One :func:`run_chaos_point` stands up a full ParPar cluster with the
fault injector and the reliability layer enabled, runs gang-scheduled
all-to-all jobs to completion, lets the retransmit timers settle, and
returns a JSON-ready report: injected-fault counters, reliability-layer
statistics, and the :class:`~repro.faults.audit.InvariantAuditor`'s
verdict on the paper's no-loss/no-duplication/FIFO claim.

Every point is hermetic (fresh Simulator, seed-derived RNG streams) and
the report carries counts only, so a campaign fanned out with
:func:`~repro.experiments.common.run_points` is bit-identical to a
serial run — the property ``tests/test_determinism.py`` pins.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ConfigError, SimulationError
from repro.experiments.common import point_seed, run_points
from repro.faults.audit import InvariantAuditor
from repro.faults.model import FailStop, FaultSpec
from repro.faults.retransmit import RetransmitPolicy
from repro.faults.strategies import DEFAULT_STRATEGY
from repro.parpar.cluster import ClusterConfig, ParParCluster
from repro.parpar.job import JobSpec, JobState
from repro.sim.rand import RandomStreams
from repro.units import US
from repro.workloads.alltoall import alltoall_benchmark


@dataclass(frozen=True)
class ChaosPoint:
    """One chaos run's full parameterisation (plain data, picklable)."""

    seed: int = 0
    nodes: int = 4
    time_slots: int = 2
    jobs: int = 2
    quantum: float = 0.004
    rounds: int = 30
    message_bytes: int = 1024
    # fault model
    drop: float = 0.0
    dup: float = 0.0
    corrupt: float = 0.0
    jitter: float = 0.0
    jitter_max: float = 20 * US
    sram: float = 0.0          # SRAM flips per second per node
    stall: float = 0.0         # per-switch daemon stall probability
    crash: float = 0.0         # per-switch daemon crash probability
    #: fail-stop node deaths.  Jobs shrink to ``nodes // 2`` ranks and
    #: the corpses are drawn from the upper half of the node range, so
    #: lower-half jobs survive and keep rotating through the recovery.
    #: Kill times are seed-drawn from [3, 8] quanta; with ``rejoin`` each
    #: corpse restarts 5 quanta after its death and reintegrates.
    failstops: int = 0
    rejoin: bool = False
    #: failure policy for every job: requeue on a fresh allocation
    #: instead of killing (falls back to kill when allocation fails).
    requeue: bool = False
    audit: bool = True
    #: ACK/NACK strategy name (see ``repro.faults.strategies``).  The
    #: default keeps the report byte-identical to the pre-strategy
    #: layout; any other name adds ``"strategy"`` and NACK/strategy
    #: counters to the report.
    strategy: str = DEFAULT_STRATEGY
    #: post-completion drain time for ack timers and zombie retransmits
    settle: float = 0.2
    #: attach the unified telemetry layer; the report gains a
    #: ``"telemetry"`` snapshot (audit verdict included via
    #: AuditReport.publish) without disturbing the existing keys.
    telemetry: bool = False

    def fault_spec(self) -> FaultSpec:
        return FaultSpec(drop_rate=self.drop, dup_rate=self.dup,
                         corrupt_rate=self.corrupt, jitter_rate=self.jitter,
                         jitter_max=self.jitter_max, sram_flip_rate=self.sram,
                         daemon_stall_rate=self.stall,
                         daemon_crash_rate=self.crash,
                         failstop=self.failstop_schedule())

    def job_width(self) -> int:
        """Ranks per job — halved under fail-stops so some jobs survive."""
        return self.nodes // 2 if self.failstops else self.nodes

    def failstop_schedule(self) -> tuple:
        """Seed-drawn fail-stop entries (hermetic per point, sorted)."""
        if not self.failstops:
            return ()
        pool = list(range(self.job_width(), self.nodes))
        if self.failstops > len(pool):
            raise ConfigError(
                f"failstops={self.failstops} exceeds the expendable upper "
                f"half of a {self.nodes}-node cluster ({len(pool)} nodes)")
        rng = RandomStreams(self.seed).stream("chaos-failstop")
        picks = sorted(int(i) for i in
                       rng.choice(len(pool), size=self.failstops,
                                  replace=False))
        entries = []
        for idx in picks:
            fail_at = float(rng.uniform(3 * self.quantum, 8 * self.quantum))
            rejoin_at = fail_at + 5 * self.quantum if self.rejoin else None
            entries.append(FailStop(pool[idx], fail_at, rejoin_at))
        return tuple(entries)



def smoke_point(failstop: bool, **common) -> ChaosPoint:
    """The ``repro chaos --smoke`` presets on the default 4-node cluster.

    ``failstop`` selects the recovery preset: one fail-stop death with
    rejoin and requeue, jobs long enough that the death lands mid-run.
    Otherwise every fault model is lit for a few rounds.  ``common``
    carries the run-wide fields (seed, audit, strategy, telemetry).
    """
    if failstop:
        return ChaosPoint(rounds=600, failstops=1, rejoin=True,
                          requeue=True, **common)
    return ChaosPoint(rounds=10, drop=0.02, dup=0.01, corrupt=0.005,
                      jitter=0.05, sram=200.0, stall=0.05, crash=0.02,
                      **common)

def run_chaos_point(point: ChaosPoint) -> dict:
    """Run one seeded chaos simulation and report (deterministically)."""
    faults = point.fault_spec()
    config = ClusterConfig(
        num_nodes=point.nodes,
        time_slots=point.time_slots,
        quantum=point.quantum,
        seed=point.seed,
        faults=faults,
        retransmit=RetransmitPolicy(),
        reliability_strategy=point.strategy,
        telemetry=point.telemetry,
    )
    cluster = ParParCluster(config)

    auditor = None
    if point.audit:
        auditor = InvariantAuditor()
        auditor.attach(g.firmware for g in cluster.glue)

    workload = alltoall_benchmark(rounds=point.rounds,
                                  message_bytes=point.message_bytes)
    width = point.job_width()
    capacity = point.time_slots * (point.nodes // width)
    njobs = min(point.jobs, capacity)
    policy = "requeue" if point.requeue else "kill"
    jobs = [cluster.submit(JobSpec(f"chaos-{i}", width, workload,
                                   on_failure=policy))
            for i in range(njobs)]

    error = None
    try:
        cluster.run_until_finished(jobs)
    except SimulationError as exc:
        # An invariant tripped mid-run (e.g. strict no-loss) — report the
        # falsification instead of dying; the audit still runs on
        # whatever state remains.
        error = str(exc)
    cluster.masterd.pause_rotation()
    cluster.run_for(point.settle)

    firmwares = [g.firmware for g in cluster.glue]
    reliability = {
        "retransmits": sum(fw.retransmits for fw in firmwares),
        "acks_sent": sum(fw.acks_sent for fw in firmwares),
        "acks_received": sum(fw.acks_received for fw in firmwares),
        "dup_discards": sum(fw.dup_discards for fw in firmwares),
        "corrupt_discards": sum(fw.corrupt_discards for fw in firmwares),
        "unreachable_discards": sum(fw.unreachable_discards for fw in firmwares),
        "permanent_losses": sum(fw.permanent_losses for fw in firmwares),
        "outstanding_unacked": sum(fw.outstanding for fw in firmwares),
        "parked": sum(fw.parked_count() for fw in firmwares),
        "sram_descriptor_hits": sum(g.firmware.nic.sram_faults
                                    for g in cluster.glue),
    }
    if point.strategy != DEFAULT_STRATEGY:
        # Strategy-specific keys only when a non-default strategy runs,
        # so the default report stays byte-identical to the v1 layout.
        reliability["nacks_sent"] = sum(fw.nacks_sent for fw in firmwares)
        reliability["nacks_received"] = sum(fw.nacks_received
                                            for fw in firmwares)
        strategy_stats: dict = {}
        for fw in firmwares:
            for key, value in fw.strategy_stats().items():
                strategy_stats[key] = strategy_stats.get(key, 0) + value
        reliability["strategy_stats"] = strategy_stats

    failed_ids = set(cluster.masterd.failed_jobs)
    # Requeued jobs that finished as a fresh incarnation get the full
    # audit under their new job_id; the failed originals are excused.
    audited_jobs = [j for j in jobs if j.job_id not in failed_ids]
    for job in jobs:
        if job.job_id not in failed_ids:
            continue
        final = cluster.masterd.resolve_job(job.job_id)
        if final.job_id not in failed_ids and final.state is JobState.FINISHED:
            audited_jobs.append(final)

    result = {
        "seed": point.seed,
        "nodes": point.nodes,
        "jobs": njobs,
        "rounds": point.rounds,
        "message_bytes": point.message_bytes,
        "injected": cluster.fault_injector.counters()
        if cluster.fault_injector is not None else {},
        "reliability": reliability,
        "recovery": (cluster.recovery_stats.counters()
                     if cluster.recovery_stats is not None else {}),
        "failed_jobs": len(failed_ids),
        "switches": len(cluster.recorder.records),
        "sim_seconds": cluster.sim.now,
        "events": cluster.sim.processed_events,
        "error": error,
    }
    if point.strategy != DEFAULT_STRATEGY:
        result["strategy"] = point.strategy

    if auditor is not None:
        excused = set()
        if cluster.fault_injector is not None:
            excused |= cluster.fault_injector.faulted_seqs
        for fw in firmwares:
            excused |= fw.retransmitted_seqs
        job_contexts = {}
        for job in audited_jobs:
            job_contexts[job.job_id] = {
                rank: cluster.nodeds[node_id].local_job(job.job_id).context
                for rank, node_id in job.rank_to_node.items()
            }
        fresh = [j for j in audited_jobs if j not in jobs]
        report = _audit_with_backings(
            auditor, cluster, jobs + fresh, excused, job_contexts,
            reliability["retransmits"], excused_jobs=failed_ids)
        result["audit"] = report.to_dict()
        if cluster.telemetry is not None:
            report.publish(cluster.telemetry.registry)

    if cluster.telemetry is not None:
        result["telemetry"] = cluster.telemetry_snapshot()
    return result


def _audit_with_backings(auditor, cluster, jobs, excused, job_contexts,
                         retransmits, excused_jobs=None):
    """Run the audit once per backing store with node-local contexts."""
    # The audit report's channel checks are global; only the backing
    # residual check needs per-node context maps.  Aggregate by running
    # the channel/credit checks once with all backings and a combined
    # job_id -> context map per node.
    violations = 0
    for node_id, glue in enumerate(cluster.glue):
        local = {}
        for job in jobs:
            for rank, jnode in job.rank_to_node.items():
                if jnode != node_id:
                    continue
                try:   # a job can die mid-load: no record on the corpse
                    local[job.job_id] = (
                        cluster.nodeds[node_id].local_job(job.job_id).context)
                except KeyError:
                    pass
        report = auditor.report(excused_seqs=excused,
                                backings=[glue.backing],
                                stored_contexts=local,
                                excused_jobs=excused_jobs)
        violations += report.backing_violations
    report = auditor.report(excused_seqs=excused, job_contexts=job_contexts,
                            retransmits=retransmits,
                            excused_jobs=excused_jobs)
    return replace(report, backing_violations=violations)


# ---------------------------------------------------------------------- campaign
def _chaos_worker(point: ChaosPoint) -> dict:
    """Module-level for pickling into the process pool."""
    return run_chaos_point(point)


def run_chaos_campaign(base: ChaosPoint, runs: int = 1,
                       workers: int = 1) -> list:
    """``runs`` independent chaos points, seeds derived hermetically.

    Each point's seed comes from :func:`point_seed` on the base seed and
    the run index, so adding/removing/parallelising runs never changes
    any other run's stream.
    """
    points = [replace(base, seed=point_seed(base.seed, f"chaos:run={i}"))
              for i in range(runs)]
    return run_points(_chaos_worker, points, workers=workers)
