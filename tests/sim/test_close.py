"""Run teardown: :meth:`Simulator.close`.

A process parked in any wait state sits in a reference cycle with the
simulator (through the calendar, the event it waits on, or the
simulator's list of unfinished processes).  ``close()`` must cut every
such cycle, so that the run is freed by reference counting alone: these
tests drop everything with the collector off and check that each
parked generator is gone.  A generator stands in for its process,
because ``Process`` has no ``__weakref__`` slot and owns its generator.
"""

import gc
import weakref

import pytest

from repro.fm.credits import CreditState
from repro.sim import Simulator
from repro.sim.primitives import Store
from repro.sim.process import PARK


def _sleep(sim):
    yield 5.0


def _park(sim):
    yield PARK


def _sole_waiter(sim):
    yield sim.event()


def _callback_waiter(sim):
    ev = sim.event()
    ev.add_callback(lambda _ev: None)
    yield ev


def _store_getter(sim):
    store = Store(sim)
    yield store.get()


def _credit_waiter(sim):
    credits = CreditState(sim, c0=1, peers=[1])
    credits.try_acquire_send(1)
    yield credits.wait_send(1)


def _busy(sim):
    while True:
        yield sim.timeout(1.0)


WAIT_STATES = [_sleep, _park, _sole_waiter, _callback_waiter,
               _store_getter, _credit_waiter]


def _deferred_wake(sim, proc):
    """Suspend the process so that its next wake-up is deferred."""
    proc.suspend()
    sim.run(until=sim.now + 1.5)
    assert proc._deferred is not None


def _pending_interrupt(sim, proc):
    """An interrupt scheduled in the calendar but not yet delivered."""
    proc.interrupt("stop")


def _suspended_interrupt(sim, proc):
    """An interrupt held back while the process is suspended."""
    proc.suspend()
    proc.interrupt("stop")
    assert proc._pending_interrupt


PERTURBATIONS = [_deferred_wake, _pending_interrupt, _suspended_interrupt]


def _parked_run(make, perturb=None):
    """A simulator with one process parked by ``make`` (optionally
    disturbed by ``perturb``), plus a weakref to its generator."""
    sim = Simulator()
    gen = make(sim)
    ref = weakref.ref(gen)
    proc = sim.process(gen)
    sim.run(until=0.5)
    if perturb is not None:
        perturb(sim, proc)
    return sim, ref


def _cases():
    cases = [pytest.param(make, None, id=make.__name__.lstrip("_"))
             for make in WAIT_STATES]
    cases += [pytest.param(_busy, perturb, id=perturb.__name__.lstrip("_"))
              for perturb in PERTURBATIONS]
    return cases


@pytest.fixture
def collector_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.mark.parametrize("make, perturb", _cases())
def test_closed_run_is_freed_by_reference_counting(make, perturb,
                                                    collector_off):
    sim, ref = _parked_run(make, perturb)
    sim.close()
    assert sim.peek() == float("inf")
    del sim
    assert ref() is None


@pytest.mark.parametrize("make, perturb", _cases())
def test_unclosed_run_stays_cyclic(make, perturb, collector_off):
    """The control: without close() the parked run is not freed."""
    sim, ref = _parked_run(make, perturb)
    del sim
    assert ref() is not None
    gc.collect()
    assert ref() is None


def test_close_is_idempotent():
    sim = Simulator()
    sim.process(_busy(sim))
    sim.run(until=2.5)
    events = sim.processed_events
    sim.close()
    sim.close()
    assert sim.now == 2.5
    assert sim.processed_events == events
    assert sim.peek() == float("inf")


def test_finally_that_triggers_an_event_leaves_no_calendar_entry():
    sim = Simulator()
    done = sim.event()

    def worker():
        try:
            yield PARK
        finally:
            done.succeed("closed")

    sim.process(worker())
    sim.run()
    sim.close()
    assert done.triggered and done.value == "closed"
    assert sim.peek() == float("inf")
    assert not sim._queue


def test_process_started_by_a_finally_is_closed_too(collector_off):
    sim = Simulator()
    refs = []

    def late():
        yield PARK

    def worker():
        try:
            yield PARK
        finally:
            gen = late()
            refs.append(weakref.ref(gen))
            sim.process(gen)

    sim.process(worker())
    sim.run()
    sim.close()
    assert len(refs) == 1
    assert sim.peek() == float("inf")
    del sim
    assert refs[0]() is None


def test_unfinished_processes_close_in_start_order():
    """The registry keeps start order (a dict, not a set), so the
    ``finally`` clauses run in the same order on every run."""
    sim = Simulator()
    closed = []

    def worker(name, lifetime):
        try:
            yield lifetime
        finally:
            closed.append(name)

    names = ["e", "a", "d", "b", "c", "f"]
    for i, name in enumerate(names):
        # every other process finishes before the close
        sim.process(worker(name, 1.0 if i % 2 else 10.0), name=name)
    sim.run(until=5.0)
    assert closed == ["a", "b", "f"]
    assert [p.name for p in sim._live] == ["e", "d", "c"]
    closed.clear()
    sim.close()
    assert closed == ["e", "d", "c"]
    assert not sim._live
