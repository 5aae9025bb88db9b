"""Unit tests for Process: lifecycle, interrupts, suspend/resume (SIGSTOP)."""

import pytest

from repro.errors import InterruptError, SimulationError
from repro.sim import PARK, Simulator


@pytest.fixture
def sim():
    return Simulator()


class TestLifecycle:
    def test_runs_and_returns_value(self, sim):
        def job():
            yield sim.timeout(1.0)
            return "done"

        proc = sim.process(job())
        assert sim.run_until_processed(proc) == "done"
        assert not proc.is_alive

    def test_receives_event_values(self, sim):
        seen = []

        def job():
            v = yield sim.timeout(1.0, value="first")
            seen.append(v)
            v = yield sim.timeout(1.0, value="second")
            seen.append(v)

        sim.process(job())
        sim.run()
        assert seen == ["first", "second"]

    def test_two_processes_interleave(self, sim):
        log = []

        def job(tag, delay):
            for _ in range(3):
                yield sim.timeout(delay)
                log.append((tag, sim.now))

        sim.process(job("fast", 1.0))
        sim.process(job("slow", 2.0))
        sim.run()
        # At t=2.0 both wake; slow's timeout was enqueued first (at t=0)
        # so FIFO tie-breaking runs it first — determinism matters here.
        assert log == [
            ("fast", 1.0), ("slow", 2.0), ("fast", 2.0),
            ("fast", 3.0), ("slow", 4.0), ("slow", 6.0),
        ]

    def test_yielding_non_event_raises(self, sim):
        def bad():
            yield "not an event"

        sim.process(bad())
        with pytest.raises(SimulationError, match="must yield Events"):
            sim.run()

    def test_yield_number_sleeps(self, sim):
        log = []

        def sleeper():
            yield 1.5
            log.append(sim.now)
            yield 2  # ints sleep too
            log.append(sim.now)

        sim.process(sleeper())
        sim.run()
        assert log == [1.5, 3.5]

    def test_yield_negative_sleep_rejected(self, sim):
        def bad():
            yield -0.5

        sim.process(bad())
        with pytest.raises(SimulationError, match="negative sleep"):
            sim.run()

    def test_interrupt_during_number_sleep(self, sim):
        from repro.errors import InterruptError
        log = []

        def sleeper():
            try:
                yield 10.0
            except InterruptError as e:
                log.append((sim.now, e.cause))
                yield 1.0
            log.append(sim.now)

        p = sim.process(sleeper())

        def poker():
            yield 2.0
            p.interrupt("wake")

        sim.process(poker())
        sim.run()
        assert log == [(2.0, "wake"), 3.0]
        # The stale sleep entry at t=10 pops harmlessly.
        assert sim.now == 10.0

    def test_uncaught_exception_propagates_when_unwatched(self, sim):
        def bad():
            yield sim.timeout(1.0)
            raise ValueError("kaboom")

        sim.process(bad())
        with pytest.raises(ValueError, match="kaboom"):
            sim.run()

    def test_uncaught_exception_fails_event_when_watched(self, sim):
        def bad():
            yield sim.timeout(1.0)
            raise ValueError("kaboom")

        def watcher():
            with pytest.raises(ValueError, match="kaboom"):
                yield proc

        proc = sim.process(bad())
        watched = sim.process(watcher())
        sim.run()
        assert watched.processed

    def test_process_can_wait_on_process(self, sim):
        def inner():
            yield sim.timeout(3.0)
            return 99

        def outer():
            v = yield sim.process(inner())
            return v + 1

        assert sim.run_until_processed(sim.process(outer())) == 100

    def test_non_generator_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.process(lambda: None)

    def test_process_name_default_and_explicit(self, sim):
        def my_job():
            yield sim.timeout(0)

        assert sim.process(my_job()).name == "my_job"
        assert sim.process(my_job(), name="alpha").name == "alpha"


class TestInterrupt:
    def test_interrupt_raises_in_process(self, sim):
        caught = []

        def job():
            try:
                yield sim.timeout(100.0)
            except InterruptError as err:
                caught.append((sim.now, err.cause))

        proc = sim.process(job())
        sim.process(_after(sim, 5.0, lambda: proc.interrupt("preempt")))
        sim.run()
        assert caught == [(5.0, "preempt")]

    def test_interrupt_dead_process_returns_false(self, sim):
        def job():
            yield sim.timeout(1.0)

        proc = sim.process(job())
        sim.run()
        assert proc.interrupt() is False

    def test_interrupted_process_can_continue(self, sim):
        log = []

        def job():
            try:
                yield sim.timeout(100.0)
            except InterruptError:
                pass
            yield sim.timeout(1.0)
            log.append(sim.now)

        proc = sim.process(job())
        sim.process(_after(sim, 2.0, lambda: proc.interrupt()))
        sim.run()
        assert log == [3.0]

    def test_stale_event_does_not_wake_interrupted_process(self, sim):
        wakes = []

        def job():
            try:
                yield sim.timeout(10.0)
                wakes.append("timeout")
            except InterruptError:
                wakes.append("interrupt")
            yield sim.timeout(50.0)
            wakes.append("second")

        proc = sim.process(job())
        sim.process(_after(sim, 1.0, lambda: proc.interrupt()))
        sim.run()
        # The original 10s timeout still fires at t=10 but must not re-wake.
        assert wakes == ["interrupt", "second"]


class TestSuspendResume:
    def test_suspended_process_makes_no_progress(self, sim):
        log = []

        def job():
            while True:
                yield sim.timeout(1.0)
                log.append(sim.now)

        proc = sim.process(job())
        sim.process(_after(sim, 2.5, proc.suspend))
        sim.run(until=10.0)
        assert log == [1.0, 2.0]
        assert proc.is_suspended

    def test_resume_delivers_deferred_wakeup(self, sim):
        log = []

        def job():
            yield sim.timeout(3.0)
            log.append(sim.now)

        proc = sim.process(job())
        sim.process(_after(sim, 1.0, proc.suspend))
        sim.process(_after(sim, 7.0, proc.resume))
        sim.run()
        # Timeout fired at t=3 while stopped; delivery happens at resume.
        assert log == [7.0]

    def test_suspend_resume_without_pending_event(self, sim):
        log = []

        def job():
            yield sim.timeout(5.0)
            log.append(sim.now)

        proc = sim.process(job())
        sim.process(_after(sim, 1.0, proc.suspend))
        sim.process(_after(sim, 2.0, proc.resume))
        sim.run()
        # Resumed before its timeout fired: normal wakeup at t=5.
        assert log == [5.0]

    def test_suspend_is_idempotent(self, sim):
        def job():
            yield sim.timeout(10.0)

        proc = sim.process(job())
        sim.process(_after(sim, 1.0, proc.suspend))
        sim.process(_after(sim, 2.0, proc.suspend))
        sim.process(_after(sim, 3.0, proc.resume))
        sim.run()
        assert not proc.is_alive

    def test_interrupt_while_suspended_deferred_to_resume(self, sim):
        log = []

        def job():
            try:
                yield sim.timeout(100.0)
            except InterruptError as err:
                log.append((sim.now, err.cause))

        proc = sim.process(job())
        sim.process(_after(sim, 1.0, proc.suspend))
        sim.process(_after(sim, 2.0, lambda: proc.interrupt("sig")))
        sim.process(_after(sim, 6.0, proc.resume))
        sim.run()
        assert log == [(6.0, "sig")]

    def test_suspend_dead_process_is_noop(self, sim):
        def job():
            yield sim.timeout(1.0)

        proc = sim.process(job())
        sim.run()
        proc.suspend()
        proc.resume()
        assert not proc.is_alive

    def test_repeated_stop_cont_cycles(self, sim):
        """Model several gang quanta: the job only progresses while running."""
        log = []

        def job():
            for _ in range(4):
                yield sim.timeout(1.0)
                log.append(sim.now)

        proc = sim.process(job())

        def scheduler():
            while proc.is_alive:
                yield sim.timeout(2.0)
                proc.suspend()
                yield sim.timeout(2.0)
                proc.resume()

        sim.process(scheduler())
        sim.run(until=30.0)
        assert len(log) == 4
        assert not proc.is_alive


def _after(sim, delay, action):
    def waiter():
        yield sim.timeout(delay)
        action()

    return waiter()


class TestParkWake:
    def test_parked_process_has_no_calendar_entry(self, sim):
        log = []

        def server():
            while True:
                yield PARK
                log.append(sim.now)

        proc = sim.process(server())
        sim.run()
        assert sim.peek() == float("inf")
        assert proc.is_alive and log == []
        sim.process(_after(sim, 2.0, proc.wake))
        sim.run()
        assert log == [2.0]

    def test_interrupt_reaches_a_parked_process(self, sim):
        causes = []

        def server():
            try:
                yield PARK
            except InterruptError as err:
                causes.append((err.cause, sim.now))

        proc = sim.process(server())
        sim.run()
        sim.process(_after(sim, 1.0, lambda: proc.interrupt("poke")))
        sim.run()
        assert causes == [("poke", 1.0)]
        assert proc.wake() is False   # no longer parked

    def test_wake_while_suspended_is_deferred_to_resume(self, sim):
        log = []

        def server():
            yield PARK
            log.append(sim.now)

        proc = sim.process(server())
        sim.run()
        proc.suspend()
        proc.wake()
        sim.run(until=3.0)
        assert log == []
        sim.process(_after(sim, 1.0, proc.resume))
        sim.run()
        assert log == [4.0]
