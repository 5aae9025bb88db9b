"""The NIC-memory sufficiency observation (Section 4.1).

"The results also indicate that about 256KB of memory on the NIC
suffices for adequate performance; hence as the available memory grows,
more contexts can be supported."

We sweep the *per-context* buffer allotment (equivalently: the NIC/DMA
memory divided by the context count) and measure p2p bandwidth.  The
knee of the curve is where adding buffer stops paying — the paper eyeballs
it at ~256 KB of card memory; the driver also reports, for a given card
size, how many full-performance contexts fit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.errors import CreditError
from repro.fm.config import FMConfig
from repro.fm.harness import FMNetwork
from repro.fm.policies.base import BufferPolicy, ContextGeometry
from repro.sim.core import Simulator
from repro.experiments.common import run_points
from repro.units import KiB, mb_per_second


class ScaledBuffers(BufferPolicy):
    """A context sized to an explicit byte budget (credits sized like the
    paper's gang scheme: only the job's p processes can send here)."""

    name = "scaled-buffers"

    def __init__(self, send_bytes: int, recv_bytes: int):
        self.send_bytes = send_bytes
        self.recv_bytes = recv_bytes

    def geometry(self, config: FMConfig) -> ContextGeometry:
        recv = self.recv_bytes // config.packet_bytes
        send = max(1, self.send_bytes // config.packet_bytes)
        return ContextGeometry(
            recv_packets=recv, send_packets=send,
            initial_credits=recv // config.num_processors,
        )


@dataclass(frozen=True)
class NicMemoryPoint:
    """One x-position of the sufficiency curve."""

    send_buffer_kib: int
    recv_buffer_kib: int
    credits: int
    mbps: float
    #: unified telemetry snapshot (None unless the sweep asked for one)
    telemetry: Optional[dict] = None


def _measure_point(send_kib: int, recv_kib: int, message_bytes: int,
                   messages: int, num_processors: int,
                   telemetry: bool = False) -> NicMemoryPoint:
    """Bandwidth at one per-context buffer allotment (hermetic sim)."""
    policy = ScaledBuffers(send_kib * KiB, recv_kib * KiB)
    config = FMConfig(num_processors=num_processors)
    geometry = policy.geometry(config)

    sim = Simulator()
    telem = None
    if telemetry:
        from repro.telemetry.session import network_telemetry
        telem = network_telemetry(sim)
    net = FMNetwork(sim, num_nodes=2, config=config, strict_no_loss=True,
                    tracer=telem.tracer if telem is not None else None)
    sender, receiver = net.create_job(1, [0, 1], policy)
    start = {}

    def tx():
        start["t"] = sim.now
        for _ in range(messages):
            yield from sender.library.send(1, message_bytes)

    def rx():
        yield from receiver.library.extract_messages(messages)

    sim.process(tx())
    done = sim.process(rx())
    try:
        sim.run_until_processed(done, max_events=100_000_000)
        mbps = mb_per_second(messages * message_bytes, sim.now - start["t"])
    except CreditError:
        mbps = 0.0
    snapshot = None
    if telem is not None:
        from repro.telemetry.session import harvest_network
        snapshot = harvest_network(telem, net)
    return NicMemoryPoint(
        send_buffer_kib=send_kib, recv_buffer_kib=recv_kib,
        credits=geometry.initial_credits, mbps=mbps,
        telemetry=snapshot,
    )


def _point_worker(args: tuple) -> NicMemoryPoint:
    """Picklable run_points worker: one buffer allotment."""
    return _measure_point(*args)


def run_nic_memory_sweep(
        send_sizes_kib: Sequence[int] = (16, 32, 64, 128, 192, 256, 320, 400),
        recv_to_send_ratio: float = 2.5,   # the paper's 1 MB : 400 KB
        message_bytes: int = 16384,
        messages: int = 200,
        num_processors: int = 16,
        workers: int = 1,
        telemetry: bool = False) -> list[NicMemoryPoint]:
    """Bandwidth as a function of the per-context buffer allotment."""
    items = [(send_kib, int(send_kib * recv_to_send_ratio),
              message_bytes, messages, num_processors, telemetry)
             for send_kib in send_sizes_kib]
    return run_points(_point_worker, items, workers=workers)


def knee_of(points: Sequence[NicMemoryPoint], fraction: float = 0.95) -> NicMemoryPoint:
    """The smallest allotment reaching ``fraction`` of the best bandwidth."""
    best = max(p.mbps for p in points)
    for p in sorted(points, key=lambda p: p.send_buffer_kib):
        if p.mbps >= fraction * best:
            return p
    return points[-1]


def contexts_supported(card_kib: int, knee_send_kib: int) -> int:
    """How many adequate-performance contexts fit on a card of
    ``card_kib`` (the paper's forward-looking point)."""
    return max(1, card_kib // max(knee_send_kib, 1))
