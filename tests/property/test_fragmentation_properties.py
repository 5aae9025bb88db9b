"""Property-based tests of message fragmentation and reassembly."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fm.config import FMConfig
from repro.fm.harness import FMNetwork
from repro.fm.policies.static import FullBuffer
from repro.sim import Simulator


@settings(max_examples=60, deadline=None)
@given(nbytes=st.integers(min_value=0, max_value=200_000))
def test_fragment_count_matches_reconstruction(nbytes):
    """packets_for must be exactly what reassembly arithmetic expects."""
    config = FMConfig()
    nfrags = config.packets_for(nbytes)
    assert nfrags >= 1
    if nbytes == 0:
        assert nfrags == 1
        return
    # All-but-last fragments are full; the last carries the remainder.
    last = nbytes - (nfrags - 1) * config.payload_bytes
    assert 0 < last <= config.payload_bytes
    assert (nfrags - 1) * config.payload_bytes + last == nbytes


@settings(max_examples=15, deadline=None)
@given(sizes=st.lists(st.integers(min_value=0, max_value=12_000),
                      min_size=1, max_size=8))
def test_end_to_end_sizes_survive_fragmentation(sizes):
    """Whatever mix of message sizes is sent, the receiver reassembles
    exactly those sizes, in order."""
    sim = Simulator()
    config = FMConfig(num_processors=2)
    net = FMNetwork(sim, num_nodes=2, config=config, strict_no_loss=True)
    sender, receiver = net.create_job(1, [0, 1], FullBuffer())

    def tx():
        for nbytes in sizes:
            yield from sender.library.send(1, nbytes)

    def rx():
        msgs = yield from receiver.library.extract_messages(len(sizes))
        return [m.nbytes for m in msgs]

    sim.process(tx())
    done = sim.process(rx())
    got = sim.run_until_processed(done, max_events=50_000_000)
    assert got == sizes
    assert net.total_dropped() == 0
