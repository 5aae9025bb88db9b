"""Tests for the ping-pong latency benchmark."""

import pytest

from repro.errors import ConfigError
from repro.fm.config import FMConfig
from repro.fm.harness import FMNetwork
from repro.fm.policies.static import FullBuffer
from repro.sim import Simulator
from repro.units import US
from repro.workloads.latency import LatencyResult, pingpong_benchmark


def measure(message_bytes, iterations=30):
    sim = Simulator()
    net = FMNetwork(sim, 2, config=FMConfig(num_processors=2),
                    strict_no_loss=True)
    eps = net.create_job(1, [0, 1], FullBuffer())
    workload = pingpong_benchmark(iterations, message_bytes)
    results = {}

    def run(ep):
        results[ep.rank] = yield from workload(ep)

    procs = [sim.process(run(ep)) for ep in eps]
    for p in procs:
        sim.run_until_processed(p, max_events=10_000_000)
    assert net.total_dropped() == 0
    return results[0]


class TestPingPong:
    def test_short_message_latency_is_sanish(self):
        """FM 2.0's one-way latency was ~11 us for short messages; our
        model's cost chain lands in the same regime (tens of us)."""
        result = measure(16)
        assert isinstance(result, LatencyResult)
        assert 5 * US < result.one_way < 60 * US

    def test_latency_grows_with_size(self):
        small = measure(16)
        large = measure(1400)
        assert large.mean_rtt > small.mean_rtt

    def test_min_le_mean_le_max(self):
        result = measure(256)
        assert result.min_rtt <= result.mean_rtt <= result.max_rtt

    def test_deterministic_pingpong_has_stable_rtt(self):
        result = measure(256)
        assert result.max_rtt - result.min_rtt < 0.3 * result.mean_rtt

    def test_requires_two_procs(self):
        sim = Simulator()
        net = FMNetwork(sim, 3, config=FMConfig(num_processors=3))
        eps = net.create_job(1, [0, 1, 2], FullBuffer())
        workload = pingpong_benchmark(5, 100)

        def run(ep):
            yield from workload(ep)

        proc = sim.process(run(eps[0]))
        with pytest.raises(ConfigError, match="two-process"):
            sim.run_until_processed(proc)

    def test_param_validation(self):
        with pytest.raises(ConfigError):
            pingpong_benchmark(0, 100)
        with pytest.raises(ConfigError):
            pingpong_benchmark(5, -1)
        with pytest.raises(ConfigError):
            pingpong_benchmark(5, 100, warmup=-1)
