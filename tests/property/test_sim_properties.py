"""Property-based tests of the simulation kernel."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator


@settings(max_examples=50, deadline=None)
@given(delays=st.lists(st.floats(min_value=0.0, max_value=100.0,
                                 allow_nan=False), min_size=1, max_size=40))
def test_events_process_in_time_order(delays):
    sim = Simulator()
    fired = []
    for i, delay in enumerate(delays):
        sim.timeout(delay, value=i).add_callback(
            lambda ev: fired.append((sim.now, ev.value)))
    sim.run()
    times = [t for t, _ in fired]
    assert times == sorted(times)
    assert len(fired) == len(delays)


@settings(max_examples=50, deadline=None)
@given(delays=st.lists(st.sampled_from([0.0, 1.0, 2.0]), min_size=2, max_size=30))
def test_simultaneous_events_fifo(delays):
    """Events at the same instant run in scheduling order."""
    sim = Simulator()
    fired = []
    for i, delay in enumerate(delays):
        sim.timeout(delay, value=(delay, i)).add_callback(
            lambda ev: fired.append(ev.value))
    sim.run()
    for t in set(d for d in delays):
        at_t = [i for (d, i) in fired if d == t]
        assert at_t == sorted(at_t)


@settings(max_examples=40, deadline=None)
@given(
    tick_count=st.integers(min_value=1, max_value=20),
    stops=st.lists(st.tuples(st.floats(min_value=0.1, max_value=50.0),
                             st.floats(min_value=0.1, max_value=10.0)),
                   max_size=5),
)
def test_suspend_resume_never_loses_work(tick_count, stops):
    """However a process is SIGSTOPped/SIGCONTed, it eventually does all
    its work — no wakeup is ever lost."""
    sim = Simulator()
    ticks = []

    def worker():
        for i in range(tick_count):
            yield sim.timeout(1.0)
            ticks.append(i)

    proc = sim.process(worker())

    def controller():
        for start, duration in sorted(stops):
            if not proc.is_alive:
                return
            now = sim.now
            if start > now:
                yield sim.timeout(start - now)
            proc.suspend()
            yield sim.timeout(duration)
            proc.resume()

    sim.process(controller())
    sim.run(max_events=100_000)
    assert ticks == list(range(tick_count))
    assert not proc.is_alive
