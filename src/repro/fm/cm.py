"""The local Context Manager — original FM's per-node daemon.

Stock FM runs a CM on every node; a starting process contacts it (after
the GRM round trip) to have a communication context allocated on the
Myrinet card "for as long as it runs".  The CM owns the node's fixed
context slots — dividing the card and DMA buffers among the *maximum*
number of contexts, active or not, which is exactly the static
partitioning the paper criticises.

In the integrated system the CM's duties move into glueFM's
COMM_init_job, called by the noded; this module remains as the baseline.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.errors import AllocationError, ProtocolError
from repro.fm.api import FMLibrary
from repro.fm.config import FMConfig
from repro.fm.context import FMContext
from repro.fm.firmware import LanaiFirmware
from repro.fm.grm import GlobalResourceManager
from repro.fm.harness import Endpoint
from repro.fm.policies.base import BufferPolicy
from repro.fm.policies.static import StaticPartition
from repro.hardware.ethernet import ControlNetwork
from repro.hardware.node import HostNode
from repro.sim.core import Event, Simulator
from repro.units import US


class ContextManager:
    """CM daemon for one node: context slots + the start-up protocol."""

    #: host cost of the CM allocating and wiring one context
    CONTEXT_ALLOC_TIME = 120 * US

    def __init__(self, sim: Simulator, node: HostNode, firmware: LanaiFirmware,
                 control_net: ControlNetwork, config: FMConfig,
                 policy: Optional[BufferPolicy] = None):
        self.sim = sim
        self.node = node
        self.firmware = firmware
        self.control_net = control_net
        self.config = config
        self.policy = policy if policy is not None else StaticPartition()
        self._slots_used = 0
        control_net.register(node.node_id, self._on_message)

    def _on_message(self, src: int, message) -> None:
        kind = message[0]
        if kind == "grm-ids":
            _, job_id, rank, ev = message
            ev.succeed((job_id, rank))
        elif kind == "grm-all-up":
            message[1].succeed()
        else:
            raise ProtocolError(f"CM on node {self.node.node_id}: "
                                f"unknown message {message!r}")

    @property
    def slots_free(self) -> int:
        return self.config.max_contexts - self._slots_used

    def allocate_context(self, job_id: int, rank: int,
                         rank_to_node: dict[int, int]) -> FMContext:
        """Allocate one of the node's fixed context slots."""
        if self._slots_used >= self.config.max_contexts:
            raise AllocationError(
                f"node {self.node.node_id}: all {self.config.max_contexts} "
                "FM context slots in use"
            )
        ctx = FMContext.create(self.sim, self.node.node_id, job_id, rank,
                               rank_to_node, self.config, self.policy)
        self.firmware.install_context(ctx)
        self._slots_used += 1
        return ctx

    def release_context(self, ctx: FMContext) -> None:
        self.firmware.remove_context(ctx)
        self._slots_used -= 1

    # ------------------------------------------------------------------ start-up
    def fm_initialize(self, job_name: str, node_ids: Sequence[int]):
        """Stock FM_initialize: GRM round trip, context allocation, all-up.

        A generator run inside the starting application process; returns
        the process's :class:`Endpoint`.  This is the "three stage
        protocol" whose cost the ParPar integration removes.
        """
        ids_event = Event(self.sim)
        all_up_event = Event(self.sim)
        # Stage 1: register with the GRM, learn job ID and rank.
        self.control_net.send(self.node.node_id, GlobalResourceManager.ENDPOINT,
                              ("register", job_name, tuple(node_ids),
                               ids_event, all_up_event))
        job_id, rank = yield ids_event
        # Stage 2: the CM allocates a context on the card, then reports
        # readiness back to the GRM.
        yield self.node.cpu.busy(self.CONTEXT_ALLOC_TIME)
        rank_to_node = {r: n for r, n in enumerate(node_ids)}
        ctx = self.allocate_context(job_id, rank, rank_to_node)
        lib = FMLibrary(self.node, self.firmware, ctx)
        self.control_net.send(self.node.node_id, GlobalResourceManager.ENDPOINT,
                              ("ready", job_name))
        # Stage 3: wait until every process of the job created its
        # context — only then is it safe to send (a packet to a context
        # that does not exist yet would be dropped, losing a credit
        # forever).
        yield all_up_event
        return Endpoint(ctx, lib)
