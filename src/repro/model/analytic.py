"""Analytic bandwidth model for the point-to-point benchmark.

Two regimes bound FM's p2p throughput:

**Host-limited (peak)**: the sender's cost per packet is the per-fragment
bookkeeping plus the write-combining PIO write of the payload (plus the
per-message overhead amortised over its fragments):

    t_pkt  =  o_pkt + payload / r_pio + o_msg / nfrags
    peak   =  payload_per_pkt / t_pkt

**Window-limited**: with a credit window C0 and refills issued after
k = max(1, C0 - low_water) consumed packets, one refill cycle takes the
consumption of k packets (spaced by the arrival rate, i.e. t_pkt) plus
the pipeline latency delta (wire, DMA, extract, refill turnaround), and
returns k credits while up to C0 remain outstanding:

    cycle  =  k * t_pkt + delta + turnaround
    bw_win =  C0 * payload_per_pkt / cycle

The achievable bandwidth is min(peak, bw_win); C0 = 0 means zero.  The
DES must agree with this within a modest tolerance on p2p scenarios —
that agreement is a regression test (tests/model/), catching silent
drift in either the simulator's mechanics or this derivation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.fm.config import FMConfig
from repro.fm.policies.base import ContextGeometry
from repro.hardware.dma import DmaSpec
from repro.hardware.link import LinkSpec
from repro.hardware.nic import NicSpec
from repro.units import MB


@dataclass(frozen=True)
class BandwidthPrediction:
    """Model output for one (configuration, message size) point."""

    message_bytes: int
    c0: int
    peak_mbps: float
    window_mbps: float

    @property
    def mbps(self) -> float:
        """The binding constraint."""
        if self.c0 == 0:
            return 0.0
        return min(self.peak_mbps, self.window_mbps)

    @property
    def window_limited(self) -> bool:
        return self.c0 == 0 or self.window_mbps < self.peak_mbps


def predict_p2p_bandwidth(config: FMConfig, geometry: ContextGeometry,
                          message_bytes: int,
                          link: LinkSpec = LinkSpec(),
                          nic: NicSpec = NicSpec(),
                          dma: DmaSpec = DmaSpec()) -> BandwidthPrediction:
    """Predict the paper's Figure-5-style p2p bandwidth for one point."""
    if message_bytes < 0:
        raise ConfigError(f"negative message size {message_bytes}")
    c0 = geometry.initial_credits
    nfrags = config.packets_for(message_bytes)
    # Mean payload per packet (the last fragment may be partial).
    payload = message_bytes / nfrags if message_bytes > 0 else 0.0

    # Sender-side cost per packet.
    t_pkt = (config.host_packet_overhead
             + payload / config.pio_rate
             + config.host_msg_overhead / nfrags)
    peak = (payload / t_pkt) / MB if t_pkt > 0 else 0.0

    if c0 == 0:
        return BandwidthPrediction(message_bytes, 0, peak, 0.0)

    # Receiver-side per-packet consumption cost (extraction).
    t_extract = config.extract_packet_overhead + payload / config.extract_copy_rate
    # One-way pipeline latency: injection, wire, receive context, DMA,
    # extraction of the packet that crosses the refill threshold, plus the
    # receiver's refill-send overhead and the return trip of the refill.
    wire = link.wire_time(int(payload) + 24) + link.latency()
    dma_time = dma.setup_time + (payload + 24) / dma.bandwidth
    delta = (wire + nic.send_pickup_time + nic.interrupt_time
             + nic.recv_process_time + dma_time
             + t_extract + config.refill_send_overhead
             + link.wire_time(16) + link.latency() + nic.recv_process_time)

    low_water = int(c0 * config.low_water_fraction)
    k = max(1, c0 - low_water)
    # Packets are consumed at the arrival rate (sender-paced), so the k
    # consumptions of one refill cycle span k * t_pkt.
    cycle = k * max(t_pkt, t_extract) + delta + config.credit_turnaround
    window = (c0 * payload / cycle) / MB

    return BandwidthPrediction(message_bytes, c0, peak, window)
