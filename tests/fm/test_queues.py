"""Unit tests for the ring-buffer packet queues."""

import pytest

from repro.errors import BufferOverflowError, ConfigError
from repro.fm.packet import Packet, PacketType
from repro.fm.queues import PacketQueue, ReceiveQueue, SendQueue
from repro.hardware.memory import MemoryKind
from repro.sim import Simulator


def pkt(label=0, payload=100):
    return Packet(PacketType.DATA, 0, 1, payload_bytes=payload, msg_id=label)


@pytest.fixture
def sim():
    return Simulator()


class TestBasics:
    def test_locations(self, sim):
        assert SendQueue(sim, 4).location is MemoryKind.NIC_SRAM
        assert ReceiveQueue(sim, 4).location is MemoryKind.PINNED_RAM

    def test_append_pop_fifo(self, sim):
        q = PacketQueue(sim, 4)
        for i in range(3):
            q.append(pkt(i))
        assert [q.try_pop().msg_id for _ in range(3)] == [0, 1, 2]
        assert q.try_pop() is None

    def test_overflow_raises(self, sim):
        q = PacketQueue(sim, 2)
        q.append(pkt())
        q.append(pkt())
        with pytest.raises(BufferOverflowError):
            q.append(pkt())

    def test_negative_capacity_rejected(self, sim):
        with pytest.raises(ConfigError):
            PacketQueue(sim, -1)

    def test_occupancy_accounting(self, sim):
        q = PacketQueue(sim, 10)
        q.append(pkt(payload=100))
        q.append(pkt(payload=200))
        assert q.valid_packets == 2
        assert q.valid_bytes == (100 + 24) + (200 + 24)
        assert q.peak_occupancy == 2
        q.try_pop()
        assert q.valid_packets == 1
        assert q.peak_occupancy == 2

    def test_free_slots(self, sim):
        q = PacketQueue(sim, 3)
        assert q.free_slots == 3
        q.append(pkt())
        assert q.free_slots == 2 and not q.is_full
        q.append(pkt())
        q.append(pkt())
        assert q.is_full


class TestBlocking:
    def test_wait_space_blocks_when_full(self, sim):
        q = PacketQueue(sim, 1)
        q.append(pkt(0))
        log = []

        def producer():
            yield q.wait_space()
            q.append(pkt(1))
            log.append(sim.now)

        sim.process(producer())

        def consumer():
            yield sim.timeout(3.0)
            q.try_pop()

        sim.process(consumer())
        sim.run()
        assert log == [3.0]

    def test_nonempty_callback_fires_on_append(self, sim):
        q = PacketQueue(sim, 4)
        kicks = []
        q.on_nonempty(lambda: kicks.append(len(q)))
        q.append(pkt())
        q.append(pkt())
        assert kicks == [1, 2]


class TestSwitchSupport:
    def test_drain_all_empties_queue(self, sim):
        q = PacketQueue(sim, 4)
        for i in range(3):
            q.append(pkt(i))
        drained = q.drain_all()
        assert [p.msg_id for p in drained] == [0, 1, 2]
        assert q.is_empty

    def test_drain_releases_space_waiters(self, sim):
        q = PacketQueue(sim, 1)
        q.append(pkt(0))
        log = []

        def producer():
            yield q.wait_space()
            log.append(sim.now)

        sim.process(producer())

        def switcher():
            yield sim.timeout(1.0)
            q.drain_all()

        sim.process(switcher())
        sim.run()
        assert log == [1.0]

    def test_load_all_restores_in_order(self, sim):
        q = PacketQueue(sim, 4)
        packets = [pkt(i) for i in range(3)]
        q.load_all(packets)
        assert [q.try_pop().msg_id for _ in range(3)] == [0, 1, 2]

    def test_load_all_overflow_rejected(self, sim):
        q = PacketQueue(sim, 2)
        with pytest.raises(BufferOverflowError):
            q.load_all([pkt(i) for i in range(3)])

    def test_load_all_wakes_pending_getter(self, sim):
        # A consumer parked on the level-triggered wait pops the restored
        # packet once it runs.
        q = PacketQueue(sim, 4)
        got = []

        def consumer():
            yield q.wait_nonempty()
            got.append((q.try_pop().msg_id, sim.now))

        sim.process(consumer())

        def restorer():
            yield sim.timeout(1.0)
            q.load_all([pkt(5)])

        sim.process(restorer())
        sim.run()
        assert got == [(5, 1.0)]

    def test_snapshot_does_not_mutate(self, sim):
        q = PacketQueue(sim, 4)
        q.append(pkt(0))
        snap = q.snapshot()
        assert len(snap) == 1 and len(q) == 1


class TestRuntimeResize:
    """set_capacity: the policy engine's queue-resizing primitive."""

    def test_grow_simple(self, sim):
        q = PacketQueue(sim, 2)
        q.append(pkt(0))
        q.append(pkt(1))
        assert q.is_full
        q.set_capacity(4)
        assert q.capacity == 4 and q.free_slots == 2
        q.append(pkt(2))

    def test_negative_capacity_rejected(self, sim):
        q = PacketQueue(sim, 2)
        with pytest.raises(ConfigError):
            q.set_capacity(-20)

    def test_shrink_below_occupancy_keeps_packets(self, sim):
        """The engine may plan a shrink while packets sit queued; nothing
        is dropped — the queue just reads full until it drains down."""
        q = PacketQueue(sim, 4)
        for i in range(3):
            q.append(pkt(i))
        q.set_capacity(2)
        assert q.capacity == 2
        assert len(q) == 3            # no drops
        assert q.is_full
        assert q.free_slots == 0      # clamped, never negative
        with pytest.raises(BufferOverflowError):
            q.append(pkt(9))
        # Drain to below the new capacity; normal service resumes.
        assert [q.try_pop().msg_id for _ in range(2)] == [0, 1]
        q.append(pkt(3))
        assert [q.try_pop().msg_id, q.try_pop().msg_id] == [2, 3]

    def test_grow_wakes_space_waiters(self, sim):
        q = PacketQueue(sim, 1)
        q.append(pkt(0))
        woke = []

        def producer(label):
            yield q.wait_space()
            q.append(pkt(label))
            woke.append(label)

        sim.process(producer(1))
        sim.process(producer(2))

        def grower():
            yield sim.timeout(1.0)
            q.set_capacity(3)

        sim.process(grower())
        sim.run()
        assert sorted(woke) == [1, 2]
        assert len(q) == 3

    def test_shrink_does_not_wake_waiters(self, sim):
        q = PacketQueue(sim, 1)
        q.append(pkt(0))
        woke = []

        def producer():
            yield q.wait_space()
            woke.append(1)

        sim.process(producer())

        def shrinker():
            yield sim.timeout(1.0)
            q.set_capacity(1)  # no-op resize: still full

        sim.process(shrinker())
        sim.run()
        assert woke == []

    def test_peak_occupancy_survives_resize(self, sim):
        q = PacketQueue(sim, 4)
        for i in range(3):
            q.append(pkt(i))
        q.set_capacity(8)
        assert q.peak_occupancy == 3
