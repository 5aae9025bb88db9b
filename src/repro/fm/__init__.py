"""The Fast Messages (FM) user-level communication library, simulated.

Mirrors the structure of Illinois FM 2.0 as the paper describes it
(Section 2.2):

- a host-side library (:mod:`~repro.fm.api`) linked into each process,
  with ``FM_initialize`` / ``FM_send`` / ``FM_extract``;
- a LANai control program (:mod:`~repro.fm.firmware`) with a send context
  that scans per-process send queues and a receive context that consumes
  arriving packets and DMAs them to host receive queues;
- credit-based flow control with low-water-mark refills and piggybacking
  (:mod:`~repro.fm.credits`);
- per-process communication contexts whose queue sizes are set by a
  buffer-sharing policy (:mod:`~repro.fm.policies`): the original static
  division, the paper's full-buffer scheme enabled by gang scheduling,
  or one of the dynamic sharing policies driven at runtime by the
  :class:`~repro.fm.policies.engine.PolicyEngine`;
- the original FM management daemons, GRM and CM (:mod:`~repro.fm.grm`,
  :mod:`~repro.fm.cm`), kept as the baseline that ParPar integration
  replaces.
"""

from repro.fm.config import FMConfig
from repro.fm.context import ContextState, FMContext
from repro.fm.credits import CreditState
from repro.fm.packet import Packet, PacketType
from repro.fm.policies import (POLICIES, BShareDelay, DynamicThreshold,
                               OccamyPreemptive, PolicyEngine, make_policy,
                               policy_names)
from repro.fm.policies.base import BufferPolicy
from repro.fm.policies.static import FullBuffer, StaticPartition
from repro.fm.queues import ReceiveQueue, SendQueue

__all__ = [
    "BShareDelay",
    "BufferPolicy",
    "ContextState",
    "CreditState",
    "DynamicThreshold",
    "FMConfig",
    "FMContext",
    "FullBuffer",
    "OccamyPreemptive",
    "POLICIES",
    "Packet",
    "PacketType",
    "PolicyEngine",
    "ReceiveQueue",
    "SendQueue",
    "StaticPartition",
    "make_policy",
    "policy_names",
]
