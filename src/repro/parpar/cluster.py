"""Cluster assembly: the whole simulated ParPar system in one object.

``ParParCluster`` wires the hardware (nodes, Myrinet fabric, control
Ethernet), the per-node software (glueFM, noded), and the global daemons
(masterd, jobrep) according to a :class:`ClusterConfig`, and offers a
small synchronous driver API for experiments:

    cluster = ParParCluster(ClusterConfig(num_nodes=4, time_slots=2))
    job = cluster.submit(JobSpec("bw", 2, workload))
    cluster.run_until_finished([job])

Two operating modes reproduce the paper's comparison axis:

- ``buffer_switching=True`` (the paper's system): FullBuffer contexts,
  three-stage switches at every quantum;
- ``buffer_switching=False`` (the original-FM baseline): statically
  partitioned contexts resident on the NIC, gang switches are pure
  SIGSTOP/SIGCONT.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

from repro.errors import ConfigError, SimulationError
from repro.faults.injector import FaultInjector
from repro.faults.model import FaultSpec
from repro.faults.retransmit import ReliableFirmware, RetransmitPolicy
from repro.faults.strategies import DEFAULT_STRATEGY, STRATEGY_NAMES
from repro.fm.config import FMConfig
from repro.fm.policies.base import BufferPolicy
from repro.fm.policies.static import FullBuffer, StaticPartition
from repro.gluefm.api import GlueFM
from repro.gluefm.switch import SwitchAlgorithm, ValidOnlyCopy
from repro.hardware.ethernet import ControlNetwork, EthernetSpec
from repro.hardware.link import LinkSpec
from repro.hardware.network import MyrinetFabric
from repro.hardware.node import HostNode, NodeSpec
from repro.metrics.counters import SwitchRecorder
from repro.parpar.job import JobSpec, ParallelJob
from repro.parpar.jobrep import JobRepresentative
from repro.parpar.masterd import MasterDaemon
from repro.parpar.noded import NodeDaemon
from repro.parpar.recovery import RecoveryConfig, RecoveryStats, failstop_process
from repro.sim.core import Simulator
from repro.sim.rand import RandomStreams
from repro.sim.trace import NullTracer, Tracer


@dataclass(frozen=True)
class ClusterConfig:
    """Everything needed to stand up a simulated ParPar cluster."""

    num_nodes: int = 16
    time_slots: int = 4
    quantum: float = 0.020      # scaled; the paper used 1-3 s (see DESIGN.md)
    buffer_switching: bool = True
    #: explicit buffer policy instance; overrides both the
    #: ``fm.buffer_policy`` name and the ``buffer_switching`` default
    policy: Optional[BufferPolicy] = None
    switch_algorithm: Optional[SwitchAlgorithm] = None  # default ValidOnlyCopy
    fm: Optional[FMConfig] = None   # default derived from nodes/slots
    node_spec: NodeSpec = field(default_factory=NodeSpec)
    link: LinkSpec = field(default_factory=LinkSpec)
    ethernet: EthernetSpec = field(default_factory=EthernetSpec)
    strict_no_loss: bool = True
    seed: int = 0
    trace: bool = False
    #: Unified telemetry (metrics registry + kernel profiler + span
    #: tracing).  Implies tracing; off by default because observability
    #: must never tax the measured runs — see the determinism contract in
    #: :mod:`repro.telemetry.session`.
    telemetry: bool = False
    #: Alternative node-daemon class (ablations, e.g. SHARE-style
    #: unflushed switching); must subclass NodeDaemon.
    noded_class: Optional[type] = None
    #: Fault model (chaos campaigns).  Enabling any fault automatically
    #: loads the reliability firmware — faults without retransmission
    #: would just crash the strict no-loss checks.
    faults: Optional[FaultSpec] = None
    #: Ack/retransmit schedule; set (or defaulted by ``faults``) to load
    #: :class:`~repro.faults.retransmit.ReliableFirmware` on every NIC.
    retransmit: Optional[RetransmitPolicy] = None
    #: ACK/NACK strategy name (see ``repro.faults.strategies``).  Empty
    #: string defers to ``fm.reliability_strategy``, then the default
    #: (``per-packet``).  Only takes effect when the reliability
    #: firmware is loaded.
    reliability_strategy: str = ""
    #: Failure detection / eviction / reintegration knobs.  Defaulted
    #: automatically whenever ``faults`` schedules a fail-stop — a node
    #: death without recovery would simply wedge the cluster.
    recovery: Optional[RecoveryConfig] = None

    def __post_init__(self):
        if self.num_nodes <= 0 or self.time_slots <= 0:
            raise ConfigError("num_nodes and time_slots must be positive")
        if self.quantum <= 0:
            raise ConfigError("quantum must be positive")
        if self.faults is not None:
            for entry in self.faults.failstop:
                if entry.node_id >= self.num_nodes:
                    raise ConfigError(
                        f"failstop node {entry.node_id} outside the cluster "
                        f"(num_nodes={self.num_nodes})")

    def resolved_fm(self) -> FMConfig:
        """The FM configuration, with n and p tied to the cluster shape."""
        if self.fm is not None:
            return self.fm
        return FMConfig(max_contexts=self.time_slots,
                        num_processors=self.num_nodes)

    def resolved_policy(self) -> BufferPolicy:
        """Buffer policy resolution: explicit instance > named > mode default.

        The mode default preserves the paper's comparison axis: buffer
        switching pairs with FullBuffer, resident mode with the original
        static partition.  Dynamic policies (``policy`` instance or an
        ``fm.buffer_policy`` name from the registry) need the flushed
        switch window to reallocate, so they require
        ``buffer_switching=True``.
        """
        if self.policy is not None:
            resolved = self.policy
        elif self.resolved_fm().buffer_policy:
            from repro.fm.policies import make_policy
            resolved = make_policy(self.resolved_fm().buffer_policy)
        else:
            return FullBuffer() if self.buffer_switching else StaticPartition()
        if getattr(resolved, "dynamic", False) and not self.buffer_switching:
            raise ConfigError(
                f"dynamic buffer policy {resolved.name!r} requires "
                f"buffer_switching=True (reallocation happens inside the "
                f"flushed switch window)")
        return resolved

    def resolved_strategy(self) -> str:
        """Reliability strategy resolution: cluster > fm > default name."""
        name = self.reliability_strategy or self.resolved_fm().reliability_strategy
        if not name:
            return DEFAULT_STRATEGY
        if name not in STRATEGY_NAMES:
            raise ConfigError(
                f"unknown reliability strategy {name!r}; "
                f"choose from {', '.join(STRATEGY_NAMES)}")
        return name

    def resolved_switch(self) -> SwitchAlgorithm:
        return (self.switch_algorithm if self.switch_algorithm is not None
                else ValidOnlyCopy())

    def resolved_recovery(self) -> Optional[RecoveryConfig]:
        """The recovery config — defaulted when fail-stops are scheduled."""
        if self.recovery is not None:
            return self.recovery
        if self.faults is not None and self.faults.node_faults:
            return RecoveryConfig()
        return None

    def with_overrides(self, **kwargs) -> "ClusterConfig":
        return replace(self, **kwargs)


class ParParCluster:
    """A fully assembled, running cluster simulation."""

    def __init__(self, config: ClusterConfig = ClusterConfig(),
                 sim: Optional[Simulator] = None):
        self.config = config
        self.sim = sim if sim is not None else Simulator()
        self.fm_config = config.resolved_fm()
        self.policy = config.resolved_policy()
        # Telemetry first: the policy engine (below) threads the tracer
        # through its reallocation records.
        if config.telemetry:
            from repro.telemetry.session import Telemetry
            self.telemetry: Optional["Telemetry"] = Telemetry(
                clock=lambda: self.sim.now)
            self.tracer = self.telemetry.tracer
            self.spans = self.telemetry.spans
            self.sim.profiler = self.telemetry.profiler
        else:
            self.telemetry = None
            self.spans = None
            self.tracer = (Tracer(clock=lambda: self.sim.now) if config.trace
                           else NullTracer())
        if getattr(self.policy, "dynamic", False):
            from repro.fm.policies.engine import PolicyEngine
            self.policy_engine: Optional[PolicyEngine] = PolicyEngine(
                self.sim, self.policy, self.fm_config, tracer=self.tracer)
        else:
            self.policy_engine = None
        self.rng = RandomStreams(config.seed)
        self.recorder = SwitchRecorder()

        self.fabric = MyrinetFabric(self.sim, config.link)
        self.control_net = ControlNetwork(self.sim, config.ethernet, rng=self.rng)
        self.nodes: list[HostNode] = []
        self.glue: list[GlueFM] = []
        self.nodeds: list[NodeDaemon] = []

        # Fault-injection & reliability wiring (chaos campaigns).
        retransmit = config.retransmit
        if (retransmit is None and config.faults is not None
                and config.faults.enabled):
            retransmit = RetransmitPolicy()
        self.fault_injector: Optional[FaultInjector] = None
        if config.faults is not None and config.faults.enabled:
            self.fault_injector = FaultInjector(
                config.faults, self.rng.fork("faults"),
                tracer=self.tracer, link=config.link)
            if config.faults.link_faults:
                self.fabric.fault_injector = self.fault_injector
        firmware_class = ReliableFirmware if retransmit is not None else None
        firmware_kwargs = ({"retransmit": retransmit,
                            "strategy": config.resolved_strategy()}
                           if retransmit is not None else None)

        self.recovery = config.resolved_recovery()
        self.recovery_stats: Optional[RecoveryStats] = (
            RecoveryStats(spans=self.spans) if self.recovery is not None
            else None)

        noded_class = config.noded_class if config.noded_class is not None else NodeDaemon
        participants = list(range(config.num_nodes))
        for node_id in participants:
            node = HostNode(self.sim, node_id, config.node_spec)
            self.nodes.append(node)
            self.fabric.register(node.nic)
            glue = GlueFM(self.sim, node, self.fabric, self.fm_config,
                          switch_algorithm=config.resolved_switch(),
                          tracer=self.tracer,
                          strict_no_loss=config.strict_no_loss,
                          firmware_class=firmware_class,
                          firmware_kwargs=firmware_kwargs,
                          policy_engine=self.policy_engine)
            glue.COMM_init_node(participants)
            self.glue.append(glue)
            self.nodeds.append(noded_class(
                self.sim, node, glue, self.control_net, MasterDaemon.ENDPOINT,
                policy=self.policy, recorder=self.recorder,
                resident_mode=not config.buffer_switching,
                fault_injector=self.fault_injector,
                spans=self.spans,
                recovery=self.recovery,
            ))
            if (self.fault_injector is not None
                    and config.faults.sram_flip_rate > 0):
                self.sim.process(
                    self.fault_injector.sram_flip_process(glue.firmware),
                    name=f"sram-faults-{node_id}")

        self.masterd = MasterDaemon(self.sim, self.control_net,
                                    num_nodes=config.num_nodes,
                                    num_slots=config.time_slots,
                                    quantum=config.quantum,
                                    recovery=self.recovery,
                                    recovery_stats=self.recovery_stats,
                                    spans=self.spans)
        self.jobrep = JobRepresentative(self.sim, self.control_net)

        # Seed-scheduled fail-stop deaths (and rebirths).
        if config.faults is not None:
            for entry in config.faults.failstop:
                self.sim.process(
                    failstop_process(self.sim, entry,
                                     self.nodeds[entry.node_id],
                                     self.masterd.detector,
                                     self.recovery_stats),
                    name=f"failstop-{entry.node_id}")

    # ------------------------------------------------------------------ driving
    def submit(self, spec: JobSpec, max_events: int = 10_000_000) -> ParallelJob:
        """Submit and run the simulation until the job is loaded and synced."""
        result = {}

        def submitter():
            result["job"] = yield from self.jobrep.submit(spec)

        proc = self.sim.process(submitter(), name=f"jobrep-{spec.name}")
        self.sim.run_until_processed(proc, max_events=max_events)
        return result["job"]

    def run_until_finished(self, jobs: Sequence[ParallelJob],
                           max_events: int = 200_000_000) -> None:
        """Advance the simulation until every listed job is retired.

        Drives the kernel through :meth:`Simulator.run_until_processed`
        (the inlined hot loop) rather than per-event ``step()`` calls —
        the difference is ~2x wall-clock on a large cluster run.
        """
        remaining = max_events
        for job in jobs:
            event = self.masterd.done_event(job.job_id)
            if event.processed:
                continue
            before = self.sim.processed_events
            try:
                self.sim.run_until_processed(event, max_events=remaining)
            except SimulationError as exc:
                message = str(exc)
                if "deadlock" in message:
                    raise SimulationError(
                        "cluster went idle before jobs finished") from None
                if message.startswith("exceeded max_events"):
                    raise SimulationError(
                        f"exceeded max_events={max_events}") from None
                raise
            remaining -= self.sim.processed_events - before

    def run_for(self, seconds: float, max_events: int = 200_000_000) -> None:
        """Advance the simulation by ``seconds`` of simulated time."""
        self.sim.run(until=self.sim.now + seconds, max_events=max_events)

    # ------------------------------------------------------------------ inspection
    def endpoint_of(self, job: ParallelJob, rank: int):
        """The Endpoint of ``rank`` (available after FM_initialize ran)."""
        node_id = job.rank_to_node[rank]
        return self.nodeds[node_id].local_job(job.job_id).endpoint

    def total_dropped(self) -> int:
        return sum(len(g.firmware.dropped_packets) for g in self.glue)

    def telemetry_snapshot(self, include_wall: bool = False) -> dict:
        """Harvest component counters and return the unified snapshot.

        Requires ``ClusterConfig(telemetry=True)``; call after the runs
        of interest (harvesting folds in cumulative totals, so call it
        once — it is not idempotent on a live registry).
        """
        if self.telemetry is None:
            raise ConfigError(
                "telemetry_snapshot() requires ClusterConfig(telemetry=True)")
        from repro.telemetry.session import harvest_cluster
        harvest_cluster(self.telemetry, self)
        return self.telemetry.snapshot(include_wall=include_wall)

    @property
    def matrix(self):
        return self.masterd.matrix
