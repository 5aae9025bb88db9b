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

import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from repro.errors import ConfigError, SimulationError
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
from repro.sim.trace import DEFAULT_TRACE_LIMIT, NullTracer, Tracer

if TYPE_CHECKING:
    from repro.faults.injector import FaultInjector
    from repro.faults.model import FaultSpec
    from repro.faults.retransmit import RetransmitPolicy
    from repro.telemetry.session import Telemetry
    from repro.telemetry.spans import SpanEmitter


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
    strict_no_loss: bool = True
    seed: int = 0
    #: Record the run's trace (packet, switch-span and scheduling
    #: records) into the cluster's one tracer, which keeps them.
    trace: bool = False
    #: Unified telemetry: the metrics registry, the kernel profiler and
    #: the span sink the tracer streams into.  Implies tracing, but keeps
    #: the records only with ``trace``; off by default because
    #: observability must never tax the measured runs — see the
    #: determinism contract in :mod:`repro.telemetry.session`.
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
    #: string keeps the default (``per-packet``).  Only takes effect when
    #: the reliability firmware is loaded.
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
        """The reliability strategy name, defaulted and checked."""
        from repro.faults.strategies import DEFAULT_STRATEGY, STRATEGY_NAMES
        name = self.reliability_strategy
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


def _teardown(sim: Simulator, fabric: MyrinetFabric,
              control_net: ControlNetwork, glue: list) -> None:
    """End a run that nothing can drive again, so that reference counting
    frees its whole component graph.

    Closing the simulator detaches and closes every unfinished process
    (their ``finally`` clauses may still use the networks, so this comes
    first) and clears the calendar; dropping the fabric and control
    network registrations and the firmware back-edges cuts the cycles
    that remain.  Only links are cut: every counter and result stays
    readable.
    """
    sim.close()
    for node_id in fabric.node_ids:
        fabric.unregister(node_id)
    for endpoint in control_net.endpoints:
        control_net.unregister(endpoint)
    for g in glue:
        g.firmware.detach()


class ParParCluster:
    """A fully assembled, running cluster simulation.

    The cluster owns its simulator.  When the cluster itself is freed
    (it is acyclic, so that happens at its last reference), its
    ``_finalizer`` tears the run down (:func:`_teardown`).
    """

    def __init__(self, config: ClusterConfig = ClusterConfig()):
        self.config = config
        self.sim = sim = Simulator()
        self.fm_config = config.resolved_fm()
        self.policy = config.resolved_policy()
        # One tracer per traced run, shared by every component; telemetry
        # streams it into its span sink and adds the registry and the
        # kernel profiler.  The tracer clock is bound to ``sim``, not
        # ``self``: a reference to the cluster would keep it alive until a
        # cyclic collection.  The tracer comes first: the policy engine
        # (below) threads it through its reallocation records.
        traced = config.trace or config.telemetry
        self.tracer = (Tracer(clock=sim.clock, limit=DEFAULT_TRACE_LIMIT)
                       if traced else NullTracer())
        self.spans: Optional["SpanEmitter"] = None
        if traced:
            from repro.telemetry.spans import SpanEmitter
            self.spans = SpanEmitter(self.tracer)
        self.telemetry: Optional["Telemetry"] = None
        if config.telemetry:
            from repro.telemetry.session import Telemetry
            self.telemetry = Telemetry(self.tracer,
                                       keep_records=config.trace)
            sim.profiler = self.telemetry.profiler
        if getattr(self.policy, "dynamic", False):
            from repro.fm.policies.engine import PolicyEngine
            self.policy_engine: Optional[PolicyEngine] = PolicyEngine(
                self.sim, self.policy, self.fm_config, tracer=self.tracer)
        else:
            self.policy_engine = None
        self.rng = RandomStreams(config.seed)
        self.recorder = SwitchRecorder()

        link = LinkSpec()
        self.fabric = MyrinetFabric(self.sim, link)
        self.control_net = ControlNetwork(self.sim, EthernetSpec(), rng=self.rng)
        self.nodes: list[HostNode] = []
        self.glue: list[GlueFM] = []
        self.nodeds: list[NodeDaemon] = []
        # Holds the run's parts, never the cluster; not run at exit.
        self._finalizer = weakref.finalize(
            self, _teardown, sim, self.fabric, self.control_net, self.glue)
        self._finalizer.atexit = False

        # Fault-injection & reliability wiring (chaos campaigns).  The
        # faults layer is imported only by runs that use it.
        faults_enabled = config.faults is not None and config.faults.enabled
        retransmit = config.retransmit
        if retransmit is None and faults_enabled:
            from repro.faults.retransmit import RetransmitPolicy
            retransmit = RetransmitPolicy()
        self.fault_injector: Optional[FaultInjector] = None
        if faults_enabled:
            from repro.faults.injector import FaultInjector
            self.fault_injector = FaultInjector(
                config.faults, self.rng.fork("faults"),
                tracer=self.tracer, link=link)
            if config.faults.link_faults:
                self.fabric.fault_injector = self.fault_injector
        firmware_class = firmware_kwargs = None
        if retransmit is not None:
            from repro.faults.retransmit import ReliableFirmware
            firmware_class = ReliableFirmware
            firmware_kwargs = {"retransmit": retransmit,
                               "strategy": config.resolved_strategy()}

        self.recovery = config.resolved_recovery()
        self.recovery_stats: Optional[RecoveryStats] = (
            RecoveryStats(spans=self.spans) if self.recovery is not None
            else None)

        noded_class = config.noded_class if config.noded_class is not None else NodeDaemon
        participants = list(range(config.num_nodes))
        node_spec = NodeSpec()
        for node_id in participants:
            node = HostNode(self.sim, node_id, node_spec)
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

    def telemetry_snapshot(self) -> dict:
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
        return self.telemetry.snapshot()

    @property
    def matrix(self):
        return self.masterd.matrix
