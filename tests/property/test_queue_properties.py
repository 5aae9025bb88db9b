"""Property-based tests of the ring-buffer packet queues."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BufferOverflowError
from repro.fm.packet import Packet, PacketType
from repro.fm.queues import PacketQueue
from repro.sim import Simulator


def pkt(i, payload=64):
    return Packet(PacketType.DATA, 0, 1, i, payload_bytes=payload, msg_id=i)


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(st.sampled_from(["append", "pop"]), max_size=80),
       capacity=st.integers(min_value=1, max_value=16))
def test_fifo_and_occupancy_under_random_ops(ops, capacity):
    sim = Simulator()
    queue = PacketQueue(sim, capacity)
    model = []  # reference deque
    counter = 0
    peak = 0
    for op in ops:
        if op == "append":
            if len(model) >= capacity:
                try:
                    queue.append(pkt(counter))
                    raise AssertionError("overflow not detected")
                except BufferOverflowError:
                    pass
            else:
                queue.append(pkt(counter))
                model.append(counter)
                counter += 1
        else:
            got = queue.try_pop()
            if not model:
                assert got is None
            else:
                assert got is not None and got.msg_id == model.pop(0)
        peak = max(peak, len(model))
        assert len(queue) == len(model)
        assert queue.is_full == (len(model) == capacity)
        assert queue.is_empty == (len(model) == 0)
    assert queue.peak_occupancy == peak
    assert [p.msg_id for p in queue.snapshot()] == model


@settings(max_examples=40, deadline=None)
@given(n_items=st.integers(min_value=0, max_value=10),
       n_waits=st.integers(min_value=1, max_value=5))
def test_wait_nonempty_is_level_triggered(n_items, n_waits):
    """wait_nonempty fires iff the queue holds something, and re-arming
    after emptying works."""
    sim = Simulator()
    queue = PacketQueue(sim, 32)
    got = []

    def consumer():
        for _ in range(n_waits):
            while True:
                p = queue.try_pop()
                if p is not None:
                    break
                yield queue.wait_nonempty()
            got.append(p.msg_id)

    proc = sim.process(consumer())

    def producer():
        for i in range(n_items):
            yield sim.timeout(1.0)
            queue.append(pkt(i))

    sim.process(producer())
    sim.run(max_events=100_000)
    expected = min(n_items, n_waits)
    assert got == list(range(expected))
    assert proc.is_alive == (n_items < n_waits)
