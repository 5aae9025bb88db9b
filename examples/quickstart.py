#!/usr/bin/env python
"""Quickstart: measure FM point-to-point bandwidth under both buffer
management schemes.

Builds a two-node Myrinet/FM network (no cluster daemons), runs the
paper's bandwidth benchmark once with the original static partitioning
(sized for 4 time-sliced contexts) and once with the paper's full-buffer
scheme, and prints the comparison — the core of the paper in ~60 lines.

Run:  python examples/quickstart.py
"""

from repro.errors import CreditError
from repro.fm.config import FMConfig
from repro.fm.harness import FMNetwork
from repro.fm.policies.static import FullBuffer, StaticPartition
from repro.sim import Simulator
from repro.units import mb_per_second


def measure(policy, contexts: int, messages: int = 400, nbytes: int = 16384) -> float:
    """Bandwidth [MB/s] of one p2p run under `policy`."""
    sim = Simulator()
    config = FMConfig(max_contexts=contexts, num_processors=16)
    net = FMNetwork(sim, num_nodes=2, config=config, strict_no_loss=True)
    sender, receiver = net.create_job(job_id=1, node_ids=[0, 1], policy=policy)

    start = {}

    def tx():
        start["t"] = sim.now
        for _ in range(messages):
            yield from sender.library.send(1, nbytes)

    def rx():
        yield from receiver.library.extract_messages(messages)

    sim.process(tx())
    done = sim.process(rx())
    try:
        sim.run_until_processed(done, max_events=50_000_000)
    except CreditError:
        return 0.0  # zero credits: communication impossible
    return mb_per_second(messages * nbytes, sim.now - start["t"])


def main():
    print("FM p2p bandwidth, 16 KB messages, 16-processor credit sizing")
    print(f"{'contexts':>8}  {'static partition':>18}  {'full buffer (paper)':>20}")
    for contexts in (1, 2, 4, 8):
        # "report" mode keeps the legacy zero-credit geometry so the n=8
        # collapse prints as 0.0 MB/s instead of refusing to configure.
        static = measure(StaticPartition(on_zero_credit="report"), contexts)
        full = measure(FullBuffer(), contexts)
        print(f"{contexts:>8}  {static:>15.1f} MB/s  {full:>17.1f} MB/s")
    print()
    print("Static partitioning collapses quadratically (C0 = Br/n^2p) and is")
    print("dead by 8 contexts; the gang-scheduled full-buffer scheme (C0 = Br/p)")
    print("is independent of the number of time-sliced jobs.")


if __name__ == "__main__":
    main()
