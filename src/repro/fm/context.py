"""FM communication contexts.

A context is the per-process communication identity: its job ID and rank,
a dedicated send queue (NIC SRAM), a dedicated receive queue (pinned host
RAM), and the flow-control credit state.  Under the paper's scheme a
context is either *active* (installed on the NIC, owning the physical
buffers) or *stored* (its queue contents copied to a pageable backing
store in the process's virtual memory).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Mapping

from repro.errors import ConfigError
from repro.fm.config import FMConfig
from repro.fm.credits import CreditState
from repro.fm.policies.base import BufferPolicy, ContextGeometry
from repro.fm.queues import ReceiveQueue, SendQueue
from repro.sim.core import Simulator


class ContextState(enum.Enum):
    ACTIVE = "active"    # installed on the NIC, may send and receive
    STORED = "stored"    # swapped out; queues live in backing store


@dataclass
class ContextStats:
    packets_sent: int = 0
    packets_received: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    store_count: int = 0
    restore_count: int = 0


class FMContext:
    """One process's communication context."""

    def __init__(self, sim: Simulator, node_id: int, job_id: int, rank: int,
                 rank_to_node: Mapping[int, int], config: FMConfig,
                 geometry: ContextGeometry):
        if rank not in rank_to_node:
            raise ConfigError(f"rank {rank} missing from rank_to_node map")
        if rank_to_node[rank] != node_id:
            raise ConfigError(
                f"rank {rank} maps to node {rank_to_node[rank]}, context is on {node_id}"
            )
        self.sim = sim
        self.node_id = node_id
        self.job_id = job_id
        self.rank = rank
        self.rank_to_node = dict(rank_to_node)
        self.config = config
        self.geometry = geometry
        self.state = ContextState.STORED  # becomes ACTIVE when installed on a NIC
        self.send_queue = SendQueue(sim, geometry.send_packets,
                                    name=f"sendq[j{job_id}r{rank}]")
        self.recv_queue = ReceiveQueue(sim, geometry.recv_packets,
                                       name=f"recvq[j{job_id}r{rank}]")
        self.credits = CreditState(sim, geometry.initial_credits, self.peer_nodes,
                                   config.low_water_fraction)
        self.stats = ContextStats()

    @classmethod
    def create(cls, sim: Simulator, node_id: int, job_id: int, rank: int,
               rank_to_node: Mapping[int, int], config: FMConfig,
               policy: BufferPolicy) -> "FMContext":
        """Build a context with the queue/credit geometry of ``policy``."""
        return cls(sim, node_id, job_id, rank, rank_to_node, config,
                   policy.geometry(config))

    @property
    def peer_nodes(self) -> list[int]:
        """Nodes hosting the other processes of this job."""
        return sorted({n for r, n in self.rank_to_node.items() if r != self.rank})

    @property
    def num_procs(self) -> int:
        return len(self.rank_to_node)

    def node_of_rank(self, rank: int) -> int:
        try:
            return self.rank_to_node[rank]
        except KeyError:
            raise ConfigError(f"job {self.job_id} has no rank {rank}") from None

    @property
    def is_active(self) -> bool:
        return self.state is ContextState.ACTIVE

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<FMContext job={self.job_id} rank={self.rank} node={self.node_id}"
            f" {self.state.value}>"
        )
