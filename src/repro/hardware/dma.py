"""DMA engine: LANai-initiated transfers into the pinned host buffer.

When the LANai's receive context consumes a packet from the network it
DMAs the payload into the destination process's receive queue in pinned
host RAM (paper Section 2.2).  The engine models PCI-era throughput plus
a fixed per-transfer setup cost.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.sim.core import Simulator
from repro.units import MB, US


@dataclass(frozen=True)
class DmaSpec:
    """Throughput and setup cost of the NIC's DMA engine."""

    bandwidth: float = 132 * MB   # 32-bit/33 MHz PCI burst rate
    setup_time: float = 1 * US    # descriptor programming per transfer

    def __post_init__(self):
        if self.bandwidth <= 0:
            raise ConfigError("DMA bandwidth must be positive")
        if self.setup_time < 0:
            raise ConfigError("DMA setup_time must be >= 0")


class DmaEngine:
    """One NIC's DMA engine; transfers are serialised FIFO."""

    def __init__(self, sim: Simulator, spec: DmaSpec = DmaSpec()):
        self.sim = sim
        self.spec = spec
        self.bytes_moved: int = 0
        self.transfers: int = 0
        self._free_at: float = 0.0

    def request(self, nbytes: int) -> float:
        """Start a transfer; returns the delay until it completes.

        Back-to-back requests queue behind each other (single engine);
        a transfer takes the setup time plus ``nbytes`` at the engine's
        bandwidth.  The return value is meant to be yielded from a
        simulated process (the kernel's bare-number sleep).
        """
        if nbytes < 0:
            raise ConfigError(f"negative DMA size {nbytes}")
        now = self.sim._now
        start = self._free_at
        if start < now:
            start = now
        spec = self.spec
        done = start + (spec.setup_time + nbytes / spec.bandwidth)
        self._free_at = done
        self.bytes_moved += nbytes
        self.transfers += 1
        return done - now
