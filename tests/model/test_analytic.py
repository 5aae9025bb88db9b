"""The analytic bandwidth model must track the simulator.

This is a drift detector: if either the DES mechanics or the closed-form
derivation silently changes, the two diverge and these tests fail.
"""

import pytest

from repro.errors import ConfigError, CreditError
from repro.fm.config import FMConfig
from repro.fm.harness import FMNetwork
from repro.fm.policies.static import FullBuffer, StaticPartition
from repro.model.analytic import predict_p2p_bandwidth
from repro.sim import Simulator
from repro.units import mb_per_second


def simulate(config, policy, nbytes, messages=200):
    sim = Simulator()
    net = FMNetwork(sim, num_nodes=2, config=config, strict_no_loss=True)
    sender, receiver = net.create_job(1, [0, 1], policy)
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
        sim.run_until_processed(done, max_events=100_000_000)
    except CreditError:
        return 0.0
    return mb_per_second(messages * nbytes, sim.now - start["t"])


class TestModelAgreement:
    @pytest.mark.parametrize("contexts", [1, 2, 3, 4, 5])
    def test_window_sweep_16kb(self, contexts):
        config = FMConfig(max_contexts=contexts, num_processors=16)
        policy = StaticPartition()
        geo = policy.geometry(config)
        predicted = predict_p2p_bandwidth(config, geo, 16384).mbps
        measured = simulate(config, policy, 16384, messages=120)
        assert measured == pytest.approx(predicted, rel=0.15), (
            f"model {predicted:.1f} vs sim {measured:.1f} at n={contexts}"
        )

    @pytest.mark.parametrize("nbytes", [256, 1536, 4096, 65536])
    def test_message_size_sweep_full_buffer(self, nbytes):
        config = FMConfig(num_processors=16)
        policy = FullBuffer()
        geo = policy.geometry(config)
        predicted = predict_p2p_bandwidth(config, geo, nbytes).mbps
        messages = max(40, 60_000 // max(nbytes, 1))
        measured = simulate(config, policy, nbytes, messages=messages)
        assert measured == pytest.approx(predicted, rel=0.20), (
            f"model {predicted:.1f} vs sim {measured:.1f} at {nbytes}B"
        )

    def test_zero_window_predicts_zero(self):
        config = FMConfig(max_contexts=8, num_processors=16)
        # "report" keeps the legacy zero-credit geometry; the default mode
        # rejects this configuration at geometry time.
        policy = StaticPartition(on_zero_credit="report")
        geo = policy.geometry(config)
        prediction = predict_p2p_bandwidth(config, geo, 16384)
        assert prediction.mbps == 0.0
        assert prediction.window_limited
        assert simulate(config, policy, 16384, messages=10) == 0.0


class TestModelStructure:
    def test_peak_is_pio_bound_for_large_messages(self):
        config = FMConfig()
        geo = FullBuffer().geometry(config)
        prediction = predict_p2p_bandwidth(config, geo, 65536)
        # PIO at 80 MB/s minus per-packet overheads.
        assert 60 < prediction.peak_mbps < 80

    def test_small_windows_are_window_limited(self):
        config = FMConfig(max_contexts=4, num_processors=16)
        geo = StaticPartition().geometry(config)
        assert predict_p2p_bandwidth(config, geo, 65536).window_limited

    def test_large_windows_are_host_limited(self):
        config = FMConfig(num_processors=16)
        geo = FullBuffer().geometry(config)
        assert not predict_p2p_bandwidth(config, geo, 65536).window_limited

    def test_monotone_in_window(self):
        config = FMConfig(num_processors=16)
        values = []
        for contexts in (1, 2, 3, 4, 6, 8):
            cfg = FMConfig(max_contexts=contexts, num_processors=16)
            geo = StaticPartition(on_zero_credit="report").geometry(cfg)
            values.append(predict_p2p_bandwidth(cfg, geo, 16384).mbps)
        assert values == sorted(values, reverse=True)

    def test_negative_size_rejected(self):
        config = FMConfig()
        geo = FullBuffer().geometry(config)
        with pytest.raises(ConfigError):
            predict_p2p_bandwidth(config, geo, -1)
