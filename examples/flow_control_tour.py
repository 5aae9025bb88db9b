#!/usr/bin/env python
"""A tour of FM's credit-based flow control.

Watches the credit machinery in action on a two-node link: window
exhaustion, low-water-mark refills, piggybacking on reverse traffic, and
the analytic model's prediction next to the simulator's measurement for
a sweep of credit windows.

Run:  python examples/flow_control_tour.py
"""

from repro.errors import CreditError
from repro.fm.config import FMConfig
from repro.fm.harness import FMNetwork
from repro.fm.policies.static import StaticPartition
from repro.model.analytic import predict_p2p_bandwidth
from repro.sim import Simulator
from repro.units import mb_per_second


def trace_window_exhaustion():
    """Show the sender stalling on credits and resuming on a refill."""
    sim = Simulator()
    config = FMConfig(max_contexts=4, num_processors=16)  # C0 = 2
    net = FMNetwork(sim, num_nodes=2, config=config)
    sender, receiver = net.create_job(1, [0, 1], StaticPartition())
    c0 = sender.context.geometry.initial_credits
    print(f"window: C0 = {c0} credits per peer, refill threshold = "
          f"{sender.context.credits.refill_threshold}")

    events = []

    def tx():
        for i in range(6):
            before = sender.context.credits.available(1)
            yield from sender.library.send(1, 1400)
            events.append((sim.now, f"sent msg {i} (credits {before}->"
                           f"{sender.context.credits.available(1)})"))

    def rx():
        yield from receiver.library.extract_messages(6)

    sim.process(tx())
    done = sim.process(rx())
    sim.run_until_processed(done, max_events=1_000_000)
    for t, what in events:
        print(f"  t={t * 1e6:7.1f} us  {what}")
    print(f"  refills received by sender: "
          f"{sender.context.credits.credits_received} credits\n")


def model_vs_simulation():
    """The analytic window model against the DES, across window sizes."""
    print("analytic model vs simulation (16 KB messages):")
    print(f"{'contexts':>8} {'C0':>4} {'model MB/s':>11} {'sim MB/s':>9}")
    for contexts in (1, 2, 3, 4, 5, 8):
        config = FMConfig(max_contexts=contexts, num_processors=16)
        policy = StaticPartition(on_zero_credit="report")
        geo = policy.geometry(config)
        predicted = predict_p2p_bandwidth(config, geo, 16384).mbps

        sim = Simulator()
        net = FMNetwork(sim, num_nodes=2, config=config)
        sender, receiver = net.create_job(1, [0, 1], policy)
        messages = 150
        start = {}

        def tx():
            start["t"] = sim.now
            for _ in range(messages):
                yield from sender.library.send(1, 16384)

        def rx():
            yield from receiver.library.extract_messages(messages)

        sim.process(tx())
        done = sim.process(rx())
        try:
            sim.run_until_processed(done, max_events=50_000_000)
            measured = mb_per_second(messages * 16384, sim.now - start["t"])
        except CreditError:
            measured = 0.0
        print(f"{contexts:>8} {geo.initial_credits:>4} {predicted:>11.1f} "
              f"{measured:>9.1f}")


def main():
    trace_window_exhaustion()
    model_vs_simulation()


if __name__ == "__main__":
    main()
