"""FM configuration block.

Buffer sizes follow the paper exactly: the receive queue is a 1 MB pinned
DMA buffer holding **668** packets of 1560 bytes and the send queue is
~400 KB of NIC SRAM holding **252** packets (Section 4.2).  We parameterise
by packet counts (the unit credits are expressed in) and derive bytes.

Host-side timing constants are calibrated so the single-context baseline
reaches FM 2.0's ~75-80 MB/s (the ceiling in Figures 5/6 is the host's
~80 MB/s write-combining PIO rate), and ``credit_turnaround`` is
calibrated so the bandwidth collapse with shrinking credit windows matches
the shape of Figure 5 — it lumps the receiver-side refill batching and
control-message turnaround of real FM into one end-to-end delay.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.units import MB, US


@dataclass(frozen=True)
class FMConfig:
    """All tunables of the simulated FM stack."""

    # -- packet format -----------------------------------------------------
    packet_bytes: int = 1560           # max wire packet, as in the paper
    header_bytes: int = 24

    # -- buffer geometry (paper Section 4.2) --------------------------------
    recv_queue_packets: int = 668      # 1 MB pinned DMA buffer
    send_queue_packets: int = 252      # ~400 KB of NIC SRAM
    max_contexts: int = 1              # n: processes time-sliced per host
    num_processors: int = 16           # p: worker nodes in the cluster

    # -- host-side costs ------------------------------------------------------
    host_msg_overhead: float = 3.0 * US      # per FM_send call
    host_packet_overhead: float = 2.0 * US   # per-fragment bookkeeping
    pio_rate: float = 80 * MB                # WC write of payload into NIC queue
    extract_packet_overhead: float = 1.5 * US  # per-packet handler dispatch
    extract_copy_rate: float = 100 * MB      # handler consumes payload from pinned buf

    # -- flow control --------------------------------------------------------
    low_water_fraction: float = 0.5    # refill when peer's credits fall below this
    credit_turnaround: float = 150 * US  # end-to-end refill latency (calibrated)
    refill_send_overhead: float = 2.0 * US  # host cost to emit an explicit refill

    # -- buffer sharing ------------------------------------------------------
    #: registered policy name (see ``repro.fm.policies.POLICIES``); empty
    #: string keeps the caller-supplied / mode-derived default
    buffer_policy: str = ""

    def __post_init__(self):
        if not isinstance(self.buffer_policy, str):
            raise ConfigError("buffer_policy must be a policy name string")
        if self.packet_bytes <= self.header_bytes:
            raise ConfigError("packet_bytes must exceed header_bytes")
        if self.header_bytes < 0:
            raise ConfigError("header_bytes must be >= 0")
        for f in ("recv_queue_packets", "send_queue_packets", "max_contexts",
                  "num_processors"):
            if getattr(self, f) <= 0:
                raise ConfigError(f"{f} must be positive")
        if not 0.0 <= self.low_water_fraction < 1.0:
            raise ConfigError("low_water_fraction must be in [0, 1)")
        for f in ("host_msg_overhead", "host_packet_overhead", "extract_packet_overhead",
                  "credit_turnaround", "refill_send_overhead"):
            if getattr(self, f) < 0:
                raise ConfigError(f"{f} must be >= 0")
        for f in ("pio_rate", "extract_copy_rate"):
            if getattr(self, f) <= 0:
                raise ConfigError(f"{f} must be positive")

    # -- derived geometry -----------------------------------------------------
    @property
    def payload_bytes(self) -> int:
        """Maximum application payload per packet."""
        return self.packet_bytes - self.header_bytes

    @property
    def recv_buffer_bytes(self) -> int:
        """Total pinned receive buffer (all contexts share/divide it)."""
        return self.recv_queue_packets * self.packet_bytes

    @property
    def send_buffer_bytes(self) -> int:
        """Total NIC-SRAM send buffer."""
        return self.send_queue_packets * self.packet_bytes

    def packets_for(self, nbytes: int) -> int:
        """Number of packets (credits) a message of ``nbytes`` consumes."""
        if nbytes < 0:
            raise ConfigError(f"negative message size {nbytes}")
        if nbytes == 0:
            return 1  # a zero-byte message still sends one (header-only) packet
        return -(-nbytes // self.payload_bytes)
