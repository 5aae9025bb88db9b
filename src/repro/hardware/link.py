"""Myrinet link parameters.

The fabric model (:mod:`repro.hardware.network`) reduces the switched
Myrinet to three constants per packet: injection time at the source link,
a fixed fall-through latency, and a reception constraint at the
destination link.  1.28 Gb/s is the paper's stated data-network rate.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.units import US


@dataclass(frozen=True)
class LinkSpec:
    """One Myrinet link / switch traversal.

    All range checks happen once, at construction: the per-packet methods
    :meth:`wire_time` and :meth:`latency` are branch-free arithmetic on
    the fast path.  **Invariant** (validated by callers, not here): packet
    sizes are non-negative — guaranteed by ``Packet.__init__`` — and
    hop counts are non-negative — validated by ``MyrinetFabric.__init__``.
    """

    bandwidth: float = 160e6        # bytes/s: 1.28 Gb/s full duplex
    propagation: float = 0.5 * US   # cable + cut-through fall-through
    switch_latency: float = 0.3 * US  # per-switch routing decision
    #: Raw bit-error rate of the physical link.  Zero on the perfect
    #: Myrinet the paper assumes; the fault-injection layer
    #: (:mod:`repro.faults`) sets it nonzero to model wire corruption,
    #: converting it to a per-packet probability via
    #: :meth:`corruption_probability`.
    bit_error_rate: float = 0.0

    def __post_init__(self):
        if self.bandwidth <= 0:
            raise ConfigError("link bandwidth must be positive")
        if self.propagation < 0 or self.switch_latency < 0:
            raise ConfigError("link latencies must be >= 0")
        if not 0.0 <= self.bit_error_rate < 1.0:
            raise ConfigError("bit_error_rate must be in [0, 1)")
        # Precomputed reciprocal: one multiply per packet instead of a
        # divide (frozen dataclass, hence object.__setattr__).
        object.__setattr__(self, "inv_bandwidth", 1.0 / self.bandwidth)

    def wire_time(self, nbytes: int) -> float:
        """Serialisation time of ``nbytes`` on the link.

        ``nbytes`` must be >= 0 (see class invariant); not rechecked here.
        """
        return nbytes * self.inv_bandwidth

    def latency(self, hops: int = 1) -> float:
        """Fall-through latency across ``hops`` switches.

        ``hops`` must be >= 0 (see class invariant); not rechecked here.
        """
        return self.propagation + hops * self.switch_latency

    def corruption_probability(self, nbytes: int) -> float:
        """Probability that a ``nbytes`` packet suffers >= 1 bit error.

        ``p = 1 - (1 - BER)^(8 * nbytes)`` — zero when the link is
        perfect, growing with packet size otherwise.
        """
        if self.bit_error_rate == 0.0:
            return 0.0
        return 1.0 - (1.0 - self.bit_error_rate) ** (8 * nbytes)
