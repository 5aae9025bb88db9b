"""Unit tests for the benchmark workloads."""

import pytest

from repro.errors import ConfigError
from repro.fm.config import FMConfig
from repro.fm.harness import FMNetwork
from repro.fm.policies.static import FullBuffer
from repro.sim import Simulator
from repro.workloads.alltoall import alltoall_benchmark, alltoall_stream
from repro.workloads.bandwidth import BandwidthResult, bandwidth_benchmark
from repro.workloads.synthetic import (
    burst_benchmark,
    ring_benchmark,
    uniform_random_benchmark,
)


def run_job(num_nodes, workload, **cfg):
    sim = Simulator()
    defaults = dict(num_processors=max(num_nodes, 2))
    defaults.update(cfg)
    net = FMNetwork(sim, num_nodes, config=FMConfig(**defaults),
                    strict_no_loss=True)
    eps = net.create_job(1, list(range(num_nodes)), FullBuffer())
    results = {}

    def run(ep):
        results[ep.rank] = yield from workload(ep)

    procs = [sim.process(run(ep)) for ep in eps]
    for p in procs:
        sim.run_until_processed(p, max_events=100_000_000)
    assert net.total_dropped() == 0
    return results


class TestBandwidthBenchmark:
    def test_sender_measures_receiver_counts(self):
        results = run_job(2, bandwidth_benchmark(80, 2000))
        assert isinstance(results[0], BandwidthResult)
        assert results[0].mbps > 0
        assert results[0].payload_bytes == 80 * 2000
        assert results[1] == 80

    def test_finish_message_included_in_timing(self):
        results = run_job(2, bandwidth_benchmark(10, 100))
        assert results[0].elapsed > 0

    def test_requires_two_processes(self):
        with pytest.raises(ConfigError, match="two-process"):
            run_job(3, bandwidth_benchmark(5, 100))

    def test_invalid_params(self):
        with pytest.raises(ConfigError):
            bandwidth_benchmark(0, 100)
        with pytest.raises(ConfigError):
            bandwidth_benchmark(10, -1)

    def test_zero_byte_messages_allowed(self):
        results = run_job(2, bandwidth_benchmark(5, 0))
        assert results[1] == 5
        assert results[0].mbps == 0.0  # zero payload bytes


class TestAllToAll:
    def test_everyone_receives_everything(self):
        results = run_job(4, alltoall_benchmark(12, 800))
        for rank, stats in results.items():
            assert stats.rank == rank
            assert stats.messages_sent == 12 * 3
            assert stats.messages_received == 12 * 3

    def test_needs_two_processes(self):
        with pytest.raises(ConfigError):
            run_job(1, alltoall_benchmark(3, 100), num_processors=2)

    def test_stream_terminates_via_fences(self):
        sim_deadline = 0.004
        results = run_job(3, alltoall_stream(until=sim_deadline,
                                             message_bytes=900))
        for stats in results.values():
            assert stats.rounds > 0
            assert stats.messages_sent == stats.rounds * 2
        # Conservation across the job: all data sent was received.
        total_sent = sum(s.messages_sent for s in results.values())
        total_received = sum(s.messages_received for s in results.values())
        assert total_sent == total_received

    def test_stream_rejects_fence_sized_messages(self):
        with pytest.raises(ConfigError):
            alltoall_stream(until=1.0, message_bytes=1)


class TestSynthetic:
    def test_ring_delivers_all(self):
        results = run_job(4, ring_benchmark(30, 700))
        for stats in results.values():
            assert stats.messages_sent == 30
            assert stats.messages_received == 30  # one neighbour in-flow

    def test_uniform_random_conserves_messages(self):
        results = run_job(4, uniform_random_benchmark(40, 600, seed=7))
        total_sent = sum(s.messages_sent for s in results.values())
        total_received = sum(s.messages_received for s in results.values())
        assert total_sent == 4 * 40
        assert total_received == total_sent

    def test_uniform_random_is_deterministic_per_seed(self):
        r1 = run_job(3, uniform_random_benchmark(25, 600, seed=3))
        r2 = run_job(3, uniform_random_benchmark(25, 600, seed=3))
        assert {k: v.messages_received for k, v in r1.items()} == \
            {k: v.messages_received for k, v in r2.items()}

    def test_burst_fills_receive_queue(self):
        sim = Simulator()
        net = FMNetwork(sim, 2, config=FMConfig(num_processors=2),
                        strict_no_loss=True)
        eps = net.create_job(1, [0, 1], FullBuffer())
        workload = burst_benchmark(bursts=4, burst_len=30, message_bytes=1400)
        procs = [sim.process(workload(ep)) for ep in eps]
        for p in procs:
            sim.run_until_processed(p, max_events=100_000_000)
        # The burst outran extraction at some point.
        assert max(ep.context.recv_queue.peak_occupancy for ep in eps) > 5

    def test_burst_rejects_window_overrun(self):
        with pytest.raises(ConfigError, match="deadlock"):
            run_job(2, burst_benchmark(bursts=2, burst_len=10_000,
                                       message_bytes=1400))

    def test_param_validation(self):
        for bad in (lambda: ring_benchmark(0, 100),
                    lambda: ring_benchmark(5, 1),
                    lambda: uniform_random_benchmark(-1, 100),
                    lambda: burst_benchmark(1, 0, 100),
                    lambda: burst_benchmark(1, 1, 100, quiet_time=-1)):
            with pytest.raises(ConfigError):
                bad()
