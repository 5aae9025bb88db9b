"""Pluggable ACK/NACK reliability strategies for the FM firmware.

The registry maps stable names (the ``--strategy`` CLI vocabulary, the
``ClusterConfig.reliability_strategy`` field) to strategy classes:

- ``per-packet`` — positive ack per packet, fixed exponential backoff
  (the original hardwired behaviour; the regression anchor);
- ``cumulative`` — ack-every-N / max-ack-delay prefix acks;
- ``nack`` — selective retransmit driven by debounced gap NACKs;
- ``adaptive`` — per-packet acks with an RTT-tracking timeout
  controller and dead-peer degradation.

See :mod:`repro.faults.strategies.base` for the driver/strategy split
and the determinism contract.
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.faults.strategies.adaptive import AdaptiveBackoff
from repro.faults.strategies.base import ReliabilityStrategy
from repro.faults.strategies.cumulative import CumulativeAck
from repro.faults.strategies.nack import NackSelective
from repro.faults.strategies.per_packet import PerPacketAck

STRATEGIES = {cls.name: cls for cls in
              (PerPacketAck, CumulativeAck, NackSelective, AdaptiveBackoff)}

#: the pre-strategy behaviour; everything defaults to it
DEFAULT_STRATEGY = PerPacketAck.name

#: CLI / config vocabulary, in presentation order
STRATEGY_NAMES = tuple(STRATEGIES)


def make_strategy(name: str, policy, **kwargs) -> ReliabilityStrategy:
    """One fresh strategy instance (per-NIC state included) by name."""
    try:
        cls = STRATEGIES[name]
    except KeyError:
        raise ConfigError(
            f"unknown reliability strategy {name!r}; "
            f"choose from {', '.join(STRATEGY_NAMES)}") from None
    return cls(policy, **kwargs)


__all__ = [
    "AdaptiveBackoff", "CumulativeAck", "DEFAULT_STRATEGY", "NackSelective",
    "PerPacketAck", "ReliabilityStrategy", "STRATEGIES", "STRATEGY_NAMES",
    "make_strategy",
]
