"""The glueFM API — Table 1 of the paper.

One ``GlueFM`` instance is linked into each noded.  The eight entry
points split into three groups:

===================  =====================================================
Initialisation       ``COMM_init_node``, ``COMM_add_node``,
                     ``COMM_remove_node``
Process control      ``COMM_init_job``, ``COMM_end_job``
Context switching    ``COMM_halt_network``, ``COMM_context_switch``,
                     ``COMM_release_network``
===================  =====================================================

The context-switch trio implements the paper's three-stage switch: flush
the network (Fig. 3), swap the buffers (Figs. 7/9), release the network.
Functions with simulated cost are generators to be driven with ``yield
from`` inside a noded process; each returns a small report the caller can
time and aggregate.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from repro.errors import ProtocolError
from repro.fm.config import FMConfig
from repro.fm.context import FMContext
from repro.fm.firmware import LanaiFirmware
from repro.fm.policies.base import BufferPolicy
from repro.gluefm.backing import BackingStore
from repro.gluefm.env import build_environment
from repro.gluefm.flush import FlushProtocol
from repro.gluefm.switch import SwitchAlgorithm, SwitchReport, ValidOnlyCopy
from repro.hardware.network import MyrinetFabric
from repro.hardware.node import HostNode
from repro.sim.core import Simulator
from repro.sim.trace import NullTracer, Tracer
from repro.units import US


class GlueFM:
    """Network-management library instance for one node."""

    #: host cost of allocating a context and preparing the environment
    INIT_JOB_TIME = 60 * US
    #: host cost of tearing a context down
    END_JOB_TIME = 40 * US

    def __init__(self, sim: Simulator, node: HostNode, fabric: MyrinetFabric,
                 config: FMConfig, switch_algorithm: Optional[SwitchAlgorithm] = None,
                 tracer: Optional[Tracer] = None, strict_no_loss: bool = False,
                 firmware_class: Optional[type] = None,
                 firmware_kwargs: Optional[dict] = None,
                 policy_engine=None):
        self.sim = sim
        self.node = node
        self.fabric = fabric
        self.config = config
        self.switch_algorithm = (switch_algorithm if switch_algorithm is not None
                                 else ValidOnlyCopy())
        self.tracer = tracer if tracer is not None else NullTracer()
        self.strict_no_loss = strict_no_loss
        #: Control-program variant to load at COMM_init_node (the
        #: reliability layer substitutes ReliableFirmware here).
        self.firmware_class = (firmware_class if firmware_class is not None
                               else LanaiFirmware)
        self.firmware_kwargs = dict(firmware_kwargs) if firmware_kwargs else {}
        #: shared PolicyEngine when the buffer policy is dynamic (one per
        #: cluster — reallocation plans span all nodes); None otherwise
        self.policy_engine = policy_engine
        self.firmware: Optional[LanaiFirmware] = None
        self.flush: Optional[FlushProtocol] = None
        self.backing = BackingStore(now=lambda: sim.now)
        self._contexts: dict[int, FMContext] = {}  # job_id -> context on this node

    # ------------------------------------------------------------------ init
    def COMM_init_node(self, participants: Sequence[int]) -> None:
        """Load the LANai control program; set topology and routing.

        Called once when the noded starts.  ``participants`` is the set
        of worker nodes taking part in the flush protocol (all nodes of
        the cluster partition, this node included).
        """
        if self.firmware is not None:
            raise ProtocolError(f"node {self.node.node_id}: COMM_init_node called twice")
        self.firmware = self.firmware_class(
            self.sim, self.node.nic, self.fabric, self.config,
            tracer=self.tracer, strict_no_loss=self.strict_no_loss,
            **self.firmware_kwargs)
        self.flush = FlushProtocol(self.sim, self.firmware, participants,
                                   tracer=self.tracer)

    def COMM_add_node(self, node_id: int) -> None:
        """Topology update: a node joined the partition."""
        self._require_init()
        self.flush.add_node(node_id)

    def COMM_remove_node(self, node_id: int) -> None:
        """Topology update: a node left the partition."""
        self._require_init()
        self.flush.remove_node(node_id)

    def _require_init(self) -> None:
        if self.firmware is None or self.flush is None:
            raise ProtocolError(
                f"node {self.node.node_id}: COMM_init_node has not been called"
            )

    # ------------------------------------------------------------------ process control
    def COMM_init_job(self, job_id: int, rank: int, rank_to_node: Mapping[int, int],
                      policy: BufferPolicy, sync_fd: int = 3, install: bool = True):
        """Allocate a context and prepare the FM_* environment (a generator).

        Called by the noded *before forking* the process, so that packets
        arriving early can already be received into the (physical) queue.
        ``install=False`` creates the context stored — used for jobs whose
        gang slot is not the active one; their context is installed by the
        buffer switch when the slot first runs.

        Returns ``(context, env)`` where env is the environment-variable
        dict the noded transfers to the forked process.
        """
        self._require_init()
        if job_id in self._contexts:
            raise ProtocolError(f"job {job_id} already initialised on node "
                                f"{self.node.node_id}")
        yield self.node.cpu.busy(self.INIT_JOB_TIME)
        ctx = FMContext.create(self.sim, self.node.node_id, job_id, rank,
                               rank_to_node, self.config, policy)
        if self.policy_engine is not None:
            self.policy_engine.register(ctx)
        if install:
            self.firmware.install_context(ctx)
        self._contexts[job_id] = ctx
        env = build_environment(job_id, rank, rank_to_node, sync_fd)
        if self.tracer.enabled:
            self.tracer.record("init-job", node=self.node.node_id,
                               job=job_id, rank=rank, installed=install)
        return ctx, env

    def COMM_end_job(self, job_id: int):
        """Tear down a finished job's context (a generator)."""
        self._require_init()
        ctx = self._contexts.pop(job_id, None)
        if ctx is None:
            raise ProtocolError(f"job {job_id} not initialised on node "
                                f"{self.node.node_id}")
        yield self.node.cpu.busy(self.END_JOB_TIME)
        if self.firmware.installed_context(job_id) is ctx:
            self.firmware.remove_context(ctx)
        if self.policy_engine is not None:
            self.policy_engine.forget(job_id, self.node.node_id)
        self.firmware.forget_job(job_id)
        self.backing.discard(job_id)   # stored-at-death jobs leave an image
        if self.tracer.enabled:
            self.tracer.record("end-job", node=self.node.node_id, job=job_id)

    def has_job(self, job_id: int) -> bool:
        """Is a context initialised (installed or stored) for this job?"""
        return job_id in self._contexts

    def page_out_installed(self) -> list[int]:
        """Crash path: save every installed context to the backing store.

        Called by the noded at fail-stop, *before* the NIC powers off,
        so the stored images fingerprint the queues exactly as they were
        at the moment of death; reintegration restore-verifies against
        these (contexts already stored have images from their last
        switch-out).  Synchronous — death does not pay copy costs.
        Returns the paged-out job ids.
        """
        self._require_init()
        saved = []
        for job_id in sorted(self._contexts):
            ctx = self._contexts[job_id]
            if self.firmware.installed_context(job_id) is ctx:
                self.firmware.remove_context(ctx)
                self.backing.save(ctx)
                saved.append(job_id)
        if saved and self.tracer.enabled:
            self.tracer.record("page-out", node=self.node.node_id, jobs=saved)
        return saved

    def context_of(self, job_id: int) -> FMContext:
        try:
            return self._contexts[job_id]
        except KeyError:
            raise ProtocolError(f"job {job_id} not initialised on node "
                                f"{self.node.node_id}") from None

    # ------------------------------------------------------------------ context switch
    def COMM_halt_network(self):
        """Stage 1: stop sending and run the global flush protocol.

        A generator; returns the stage duration in seconds.  The caller
        must already have SIGSTOPped the running user process.
        """
        self._require_init()
        start = self.sim.now
        self.node.nic.set_halt_bit()
        if self.tracer.enabled:
            self.tracer.record("nic-halt", node=self.node.node_id)
        yield self.flush.begin_flush()
        return self.sim.now - start

    def COMM_context_switch(self, out_job: Optional[int], in_job: Optional[int],
                            sequence: Optional[int] = None):
        """Stage 2: swap buffer contents (a generator returning SwitchReport).

        ``out_job``/``in_job`` may be None for idle slots.  The network
        must be flushed (stage 1) before this is called.  ``sequence`` is
        the masterd switch sequence number; under a dynamic buffer policy
        it keys the cluster-wide reallocation plan (computed once per
        sequence, applied by every node between its copy-out and
        install — the only point a context's buffer footprint may change).
        """
        self._require_init()
        if self.flush is not None and not self.flush.is_flushed:
            raise ProtocolError("COMM_context_switch before the network was flushed")
        out_ctx = self._contexts[out_job] if out_job is not None else None
        in_ctx = self._contexts[in_job] if in_job is not None else None
        if out_ctx is not None and self.firmware.installed_context(out_job) is not out_ctx:
            raise ProtocolError(f"outgoing job {out_job} is not the installed context")

        if out_ctx is not None:
            self.firmware.remove_context(out_ctx)
        report = yield from self.switch_algorithm.run(self.node, out_ctx, in_ctx,
                                                      self.backing)
        if self.policy_engine is not None:
            self.policy_engine.on_context_switch(self.node.node_id, sequence,
                                                 out_job, in_job)
        if in_ctx is not None:
            self.firmware.install_context(in_ctx)
        if self.tracer.enabled:
            self.tracer.record("buffer-switch", node=self.node.node_id,
                               out_job=out_job, in_job=in_job,
                               duration=report.duration,
                               out_send_valid=report.out_send_valid,
                               out_recv_valid=report.out_recv_valid)
        return report

    def COMM_release_network(self):
        """Stage 3: synchronise with all nodes and restart sending.

        A generator; returns the stage duration in seconds.  Only after
        every node reports READY is the halt bit cleared.
        """
        self._require_init()
        start = self.sim.now
        yield self.flush.begin_release()
        self.node.nic.clear_halt_bit()
        if self.tracer.enabled:
            self.tracer.record("nic-release", node=self.node.node_id)
        self.firmware.wake()
        return self.sim.now - start
