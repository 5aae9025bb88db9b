"""Figure 5: FM bandwidth vs message size and number of contexts, using
the original (static) buffer division.

Methodology as in the paper: the p2p bandwidth benchmark runs as a single
application — no context switches occur — but the buffers are divided for
the *maximum* number of contexts n, so the credit window shrinks as
C0 = Br / (n^2 p) and bandwidth collapses; at n >= 7 the window is zero
and "no communication is even possible".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.fm.config import FMConfig
from repro.fm.harness import FMNetwork
from repro.fm.policies.static import StaticPartition
from repro.sim.core import Simulator
from repro.experiments.common import (FIG5_MESSAGE_SIZES, messages_for_size,
                                      packets_for_messages, run_points)
from repro.workloads.bandwidth import BandwidthResult, bandwidth_benchmark


@dataclass(frozen=True)
class Figure5Point:
    """One cell of the figure's surface."""

    contexts: int
    message_bytes: int
    c0: int
    mbps: float
    messages: int
    packets_moved: int   # actual packet volume (>= the nominal target)
    #: unified telemetry snapshot (None unless the sweep asked for one)
    telemetry: Optional[dict] = None


def _measure_point(contexts: int, message_bytes: int, messages: int,
                   num_processors: int,
                   telemetry: bool = False) -> Figure5Point:
    sim = Simulator()
    config = FMConfig(max_contexts=contexts, num_processors=num_processors)
    # "report" keeps the legacy zero-credit geometry: measuring the
    # collapse (0 MB/s at n >= 7) is this figure's entire point.
    policy = StaticPartition(on_zero_credit="report")
    c0 = policy.geometry(config).initial_credits
    telem = None
    if telemetry:
        from repro.sim.trace import DEFAULT_TRACE_LIMIT, Tracer
        from repro.telemetry.session import Telemetry
        telem = Telemetry(Tracer(clock=sim.clock, limit=DEFAULT_TRACE_LIMIT))
        sim.profiler = telem.profiler
    net = FMNetwork(sim, num_nodes=2, config=config, strict_no_loss=True,
                    tracer=telem.tracer if telem is not None else None)
    sender, receiver = net.create_job(1, [0, 1], policy)
    workload = bandwidth_benchmark(messages, message_bytes)
    results = {}

    def run(ep):
        results[ep.rank] = yield from workload(ep)

    procs = [sim.process(run(ep)) for ep in (sender, receiver)]
    for proc in procs:
        sim.run_until_processed(proc, max_events=200_000_000)
    result: BandwidthResult = results[0]
    snapshot = None
    if telem is not None:
        from repro.telemetry.session import harvest_network
        harvest_network(telem, net)
        snapshot = telem.snapshot()
    return Figure5Point(contexts=contexts, message_bytes=message_bytes,
                        c0=c0, mbps=result.mbps, messages=messages,
                        packets_moved=packets_for_messages(config, message_bytes,
                                                           messages),
                        telemetry=snapshot)


def _point_worker(args: tuple) -> Figure5Point:
    """Picklable run_points worker: one (contexts, size) cell."""
    return _measure_point(*args)


def run_figure5(contexts: Sequence[int] = tuple(range(1, 9)),
                message_sizes: Sequence[int] = FIG5_MESSAGE_SIZES,
                target_packets: int = 1500,
                num_processors: int = 16,
                workers: int = 1,
                telemetry: bool = False) -> list[Figure5Point]:
    """The full sweep: one point per (contexts, message size)."""
    items = []
    for n in contexts:
        config = FMConfig(max_contexts=n, num_processors=num_processors)
        for size in message_sizes:
            messages = messages_for_size(config, size, target_packets)
            items.append((n, size, messages, num_processors, telemetry))
    return run_points(_point_worker, items, workers=workers)
