"""Edge cases of the DES kernel's run loop.

The loop in :meth:`Simulator.run` special-cases processes, waiter slots
and bare-number sleeps; these tests pin condition failures, horizons,
event budgets, callback removal and timeout reuse patterns, so a kernel
change cannot silently change semantics.
"""

import gc
import weakref

import pytest

from repro.errors import SimulationError
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator()


class TestConditionFailure:
    def test_any_of_fails_when_first_member_fails(self, sim):
        slow = sim.timeout(5.0)
        bad = sim.timeout(1.0)
        cond = sim.any_of([slow, bad])
        sim.run(until=0.5)
        bad_ev = sim.event()
        bad_ev.fail(ValueError("early failure"))
        cond2 = sim.any_of([bad_ev, sim.timeout(9.0)])
        sim.run()
        assert cond.ok is True          # plain timeout won the race
        assert cond2.ok is False        # failure propagates, not swallowed
        assert isinstance(cond2.value, ValueError)

    def test_all_of_failure_carries_the_exception(self, sim):
        bad = sim.event()
        bad.fail(RuntimeError("member died"))
        cond = sim.all_of([sim.timeout(1.0), bad])
        sim.run()
        assert cond.ok is False
        assert isinstance(cond.value, RuntimeError)
        assert str(cond.value) == "member died"

    def test_failed_condition_raises_in_waiting_process(self, sim):
        bad = sim.event()
        caught = []

        def waiter():
            try:
                yield sim.all_of([sim.timeout(1.0), bad])
            except RuntimeError as exc:
                caught.append(str(exc))

        p = sim.process(waiter())
        bad.fail(RuntimeError("boom"))
        sim.run_until_processed(p)
        assert caught == ["boom"]

    def test_any_of_result_is_first_completed_value(self, sim):
        fast = sim.timeout(1.0, value="fast")
        slow = sim.timeout(2.0, value="slow")
        cond = sim.any_of([slow, fast])
        sim.run()
        assert cond.value == {fast: "fast"}


class TestRunUntilClock:
    def test_until_beyond_queue_advances_clock(self, sim):
        sim.timeout(1.0)
        sim.run(until=10.0)
        assert sim.now == 10.0
        assert sim.processed_events == 1

    def test_until_before_next_event_leaves_it_queued(self, sim):
        fired = []
        sim.timeout(5.0).add_callback(lambda ev: fired.append(sim.now))
        sim.run(until=2.0)
        assert sim.now == 2.0
        assert fired == []
        sim.run()
        assert fired == [5.0]

    def test_until_exactly_at_event_time_processes_it(self, sim):
        fired = []
        sim.timeout(3.0).add_callback(lambda ev: fired.append(sim.now))
        sim.run(until=3.0)
        assert fired == [3.0]
        assert sim.now == 3.0

    def test_until_on_empty_queue_still_advances(self, sim):
        sim.run(until=7.0)
        assert sim.now == 7.0

    def test_until_in_the_past_is_noop(self, sim):
        """A horizon before ``now`` leaves the clock, the count and the
        calendar alone: with the calendar empty, with an entry pending,
        and mid-batch after a step()."""
        fired = []

        def at(delay):
            sim.timeout(delay).add_callback(lambda ev: fired.append(sim.now))

        at(1.0)
        sim.run()
        assert sim.now == 1.0
        sim.run(until=0.5)
        assert (sim.now, sim.processed_events) == (1.0, 1)

        at(4.0)                      # fires at 5.0
        sim.run(until=2.0)
        sim.run(until=1.5)
        assert (sim.now, sim.processed_events, fired) == (2.0, 1, [1.0])
        sim.run()
        assert (sim.now, sim.processed_events, fired) == (5.0, 2, [1.0, 5.0])

        at(1.0)
        at(1.0)                      # two entries at 6.0
        sim.step()
        sim.run(until=3.0)
        assert (sim.now, sim.processed_events, fired) == (6.0, 3, [1.0, 5.0, 6.0])
        at(0.5)                      # a later push must not land in the past
        sim.run()
        assert fired == [1.0, 5.0, 6.0, 6.0, 6.5]
        assert (sim.now, sim.processed_events) == (6.5, 5)


class TestMaxEventsExhaustion:
    def test_exhaustion_reports_the_budget(self, sim):
        def ticker():
            while True:
                yield 1.0

        sim.process(ticker())
        with pytest.raises(SimulationError, match="max_events=25"):
            sim.run(max_events=25)

    def test_run_until_processed_budget(self, sim):
        def ticker():
            while True:
                yield 1.0

        sim.process(ticker())
        with pytest.raises(SimulationError, match="max_events"):
            sim.run_until_processed(sim.event(), max_events=50)

    def test_clock_is_sane_after_exhaustion(self, sim):
        def ticker():
            while True:
                yield 1.0

        sim.process(ticker())
        with pytest.raises(SimulationError):
            sim.run(max_events=10)
        # The simulation remains usable: clock at the last processed event.
        assert sim.now >= 0.0
        assert sim.processed_events == 10


class TestRemoveCallback:
    def test_remove_after_processed_is_noop(self, sim):
        ev = sim.timeout(1.0)
        got = []
        cb = lambda e: got.append(1)
        ev.add_callback(cb)
        sim.run()
        assert got == [1]
        ev.remove_callback(cb)    # must not raise on a processed event
        assert ev.processed

    def test_remove_unregistered_callback_is_noop(self, sim):
        ev = sim.timeout(1.0)
        ev.remove_callback(lambda e: None)
        sim.run()
        assert ev.processed

    def test_remove_waiting_process(self, sim):
        """A process parked in the waiter slot can be detached."""
        ev = sim.event()
        log = []

        def waiter():
            log.append("start")
            yield ev
            log.append("woke")   # must never run

        p = sim.process(waiter())
        sim.run(until=1.0)
        assert log == ["start"]
        ev.remove_callback(p._step)
        ev.succeed()
        sim.run()
        assert log == ["start"]

    def test_remove_one_of_many_callbacks(self, sim):
        ev = sim.timeout(1.0)
        got = []
        keep = lambda e: got.append("keep")
        drop = lambda e: got.append("drop")
        ev.add_callback(keep)
        ev.add_callback(drop)
        ev.remove_callback(drop)
        sim.run()
        assert got == ["keep"]


class TestTimeoutRecycling:
    def test_recycled_timeouts_stay_correct(self, sim):
        """After 2000 bare-number sleeps, a new timeout still delivers its
        own value at its own time."""
        fired = []

        def proc():
            for i in range(2000):
                yield 0.001
            t = sim.timeout(1.0, value="fresh-semantics")
            got = yield t
            fired.append((got, sim.now))

        p = sim.process(proc())
        sim.run_until_processed(p)
        assert fired == [("fresh-semantics", pytest.approx(3.0))]

    def test_recycling_does_not_leak_values(self, sim):
        """Each of many back-to-back timeouts delivers its own value."""
        values = []

        def proc():
            for i in range(100):
                values.append((yield sim.timeout(0.5, value=i)))

        sim.run_until_processed(sim.process(proc()))
        assert values == list(range(100))


class TestFinishedProcessIsNotCyclic:
    def test_finished_processes_free_without_a_collection(self, sim):
        """A process keeps no reference to itself (such as a stored bound
        method), so it goes at its last reference, not at the next
        cyclic collection.  The generator stands in for the process:
        Process has no ``__weakref__`` slot and owns its generator."""
        ev = sim.event()

        def waiter():
            yield ev

        # the first parks in the waiter slot, the second in callbacks
        gens = [waiter(), waiter()]
        procs = [sim.process(g) for g in gens]
        sim.run(until=1.0)
        ev.succeed()
        sim.run()
        refs = [weakref.ref(g) for g in gens]
        gc.disable()
        try:
            del gens, procs
            assert [r() for r in refs] == [None, None]
        finally:
            gc.enable()
