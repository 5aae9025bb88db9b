"""Unit tests for Gate, Store, Resource."""

import pytest

from repro.errors import SimulationError
from repro.sim import Gate, Resource, Simulator, Store


@pytest.fixture
def sim():
    return Simulator()


class TestGate:
    def test_open_gate_passes_immediately(self, sim):
        gate = Gate(sim, opened=True)
        log = []

        def job():
            yield gate.wait()
            log.append(sim.now)

        sim.process(job())
        sim.run()
        assert log == [0.0]

    def test_closed_gate_blocks_until_open(self, sim):
        gate = Gate(sim, opened=False)
        log = []

        def job():
            yield gate.wait()
            log.append(sim.now)

        sim.process(job())

        def opener():
            yield sim.timeout(4.0)
            gate.open()

        sim.process(opener())
        sim.run()
        assert log == [4.0]

    def test_open_releases_all_waiters(self, sim):
        gate = Gate(sim, opened=False)
        log = []

        def job(tag):
            yield gate.wait()
            log.append(tag)

        for tag in range(3):
            sim.process(job(tag))
        sim.process(_after(sim, 1.0, gate.open))
        sim.run()
        assert sorted(log) == [0, 1, 2]

    def test_reclose_blocks_again(self, sim):
        gate = Gate(sim, opened=True)
        gate.close()
        log = []

        def job():
            yield gate.wait()
            log.append(sim.now)

        sim.process(job())
        sim.run()
        assert log == []
        assert not gate.is_open


class TestStore:
    def test_put_get_fifo(self, sim):
        store = Store(sim)
        got = []

        def consumer():
            for _ in range(3):
                item = yield store.get()
                got.append(item)

        def producer():
            for item in "xyz":
                yield store.put(item)

        sim.process(consumer())
        sim.process(producer())
        sim.run()
        assert got == ["x", "y", "z"]

    def test_get_blocks_until_put(self, sim):
        store = Store(sim)
        got = []

        def consumer():
            item = yield store.get()
            got.append((item, sim.now))

        sim.process(consumer())
        sim.process(_after(sim, 3.0, lambda: store.put("late")))
        sim.run()
        assert got == [("late", 3.0)]

    def test_capacity_blocks_putter(self, sim):
        store = Store(sim, capacity=1)
        events = []

        def producer():
            yield store.put("a")
            events.append(("put-a", sim.now))
            yield store.put("b")
            events.append(("put-b", sim.now))

        def consumer():
            yield sim.timeout(5.0)
            item = yield store.get()
            events.append(("got", item, sim.now))

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert events == [("put-a", 0.0), ("got", "a", 5.0), ("put-b", 5.0)]

    def test_invalid_capacity(self, sim):
        with pytest.raises(SimulationError):
            Store(sim, capacity=0)

    def test_try_get_nonblocking(self, sim):
        store = Store(sim)
        assert store.try_get() is None
        store.put("a")
        sim.run()
        assert store.try_get() == "a"
        assert len(store) == 0


class TestResource:
    def test_serialises_users(self, sim):
        res = Resource(sim, capacity=1)
        log = []

        def user(tag):
            yield res.request()
            log.append((tag, "in", sim.now))
            yield sim.timeout(2.0)
            log.append((tag, "out", sim.now))
            res.release()

        sim.process(user("a"))
        sim.process(user("b"))
        sim.run()
        assert log == [("a", "in", 0.0), ("a", "out", 2.0),
                       ("b", "in", 2.0), ("b", "out", 4.0)]

    def test_capacity_two_admits_two(self, sim):
        res = Resource(sim, capacity=2)
        entered = []

        def user(tag):
            yield res.request()
            entered.append((tag, sim.now))
            yield sim.timeout(1.0)
            res.release()

        for tag in range(3):
            sim.process(user(tag))
        sim.run()
        assert entered == [(0, 0.0), (1, 0.0), (2, 1.0)]

    def test_release_without_request_raises(self, sim):
        with pytest.raises(SimulationError):
            Resource(sim).release()

    def test_available_accounting(self, sim):
        res = Resource(sim, capacity=3)
        res.request()
        sim.run()
        assert res.in_use == 1 and res.available == 2


def _after(sim, delay, action):
    def waiter():
        yield sim.timeout(delay)
        action()

    return waiter()
