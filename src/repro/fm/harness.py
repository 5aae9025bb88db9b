"""Convenience assembly of a bare FM network (no ParPar daemons).

``FMNetwork`` wires hosts, NICs, firmware, and the fabric together and
can stamp out job contexts directly — the minimal substrate for unit
tests, the Figure 5 baseline experiment (which runs a single application
with *statically partitioned* buffers and no context switching), and the
analytic-model cross-checks.  The full cluster with daemons and gang
scheduling lives in :mod:`repro.parpar.cluster`.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.errors import ConfigError
from repro.fm.api import FMLibrary
from repro.fm.config import FMConfig
from repro.fm.context import FMContext
from repro.fm.firmware import LanaiFirmware
from repro.fm.policies.base import BufferPolicy
from repro.fm.policies.static import StaticPartition
from repro.hardware.ethernet import ControlNetwork
from repro.hardware.link import LinkSpec
from repro.hardware.network import MyrinetFabric
from repro.hardware.node import HostNode, NodeSpec
from repro.sim.core import Simulator
from repro.sim.trace import NullTracer, Tracer


class Endpoint:
    """One rank of a job: its context plus its library handle."""

    def __init__(self, context: FMContext, library: FMLibrary):
        self.context = context
        self.library = library

    @property
    def rank(self) -> int:
        return self.context.rank

    @property
    def node_id(self) -> int:
        return self.context.node_id


class FMNetwork:
    """Hosts + NICs + firmware + fabric, ready for FM traffic."""

    def __init__(self, sim: Simulator, num_nodes: int,
                 config: FMConfig = FMConfig(),
                 node_spec: NodeSpec = NodeSpec(),
                 link: LinkSpec = LinkSpec(),
                 tracer: Optional[Tracer] = None,
                 strict_no_loss: bool = False,
                 firmware_class: Optional[type] = None,
                 firmware_kwargs: Optional[dict] = None):
        if num_nodes < 1:
            raise ConfigError(f"need at least one node, got {num_nodes}")
        self.sim = sim
        self.config = config
        self.tracer = tracer if tracer is not None else NullTracer()
        self.fabric = MyrinetFabric(sim, link)
        self.control_net = ControlNetwork(sim)
        self.nodes: list[HostNode] = []
        self.firmwares: dict[int, LanaiFirmware] = {}
        cls = firmware_class if firmware_class is not None else LanaiFirmware
        extra = dict(firmware_kwargs) if firmware_kwargs else {}
        for node_id in range(num_nodes):
            node = HostNode(sim, node_id, node_spec)
            self.nodes.append(node)
            self.fabric.register(node.nic)
            self.firmwares[node_id] = cls(
                sim, node.nic, self.fabric, config,
                tracer=self.tracer, strict_no_loss=strict_no_loss, **extra,
            )

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def node(self, node_id: int) -> HostNode:
        return self.nodes[node_id]

    def firmware(self, node_id: int) -> LanaiFirmware:
        return self.firmwares[node_id]

    def create_job(self, job_id: int, node_ids: Sequence[int],
                   policy: BufferPolicy = StaticPartition(),
                   install: bool = True) -> list[Endpoint]:
        """Create one context per node for a job spanning ``node_ids``.

        Rank ``i`` lands on ``node_ids[i]``.  With ``install=True`` the
        contexts are loaded onto the NICs immediately (the no-daemon
        shortcut); the ParPar path instead installs through glueFM's
        COMM_init_job.
        """
        if len(set(node_ids)) != len(node_ids):
            raise ConfigError("a job may place at most one process per node")
        rank_to_node = {rank: node for rank, node in enumerate(node_ids)}
        endpoints = []
        for rank, node_id in rank_to_node.items():
            ctx = FMContext.create(self.sim, node_id, job_id, rank, rank_to_node,
                                   self.config, policy)
            if install:
                self.firmwares[node_id].install_context(ctx)
            lib = FMLibrary(self.nodes[node_id], self.firmwares[node_id], ctx,
                            tracer=self.tracer)
            endpoints.append(Endpoint(ctx, lib))
        return endpoints

    def total_dropped(self) -> int:
        return sum(len(fw.dropped_packets) for fw in self.firmwares.values())
