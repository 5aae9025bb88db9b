"""Kernel oracle: random workloads through ``step()`` vs the run loop.

``Simulator.step()`` is the reference implementation of one dispatch;
``run()`` and ``run_until_processed()`` share one run loop.  This suite
builds randomized workloads — bare-number sleeps, explicit timeouts,
immediately-succeeded events, failed events, AnyOf/AllOf conditions,
cross-process interrupts, park/wake pairs (woken by processes and by
callbacks, sometimes twice in one instant), and timeouts piled onto
duplicate instants —
and executes each twice from identical initial conditions: once by
single-stepping, once through the run loop.  The trace (every
observable action with its timestamp) and the final kernel state must
match exactly.

This is the standing oracle for kernel surgery: any calendar or
dispatch change that perturbs ordering, timing, value delivery, or
event accounting fails here before it can corrupt an experiment.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InterruptError, SimulationError
from repro.sim import PARK, Simulator

#: Delay alphabet with deliberate duplicates, so most draws collide on
#: one instant and FIFO-within-timestamp is exercised.
DELAYS = (0.0, 0.25, 0.5, 1.0, 1.0, 1.0, 2.0, 3.5)

_INF = float("inf")


def _build(sim: Simulator, trace: list, procs_spec, standalone_spec):
    """Materialise one workload on ``sim``; all actions append to ``trace``."""
    procs = []

    def body(pid: int, ops):
        for k, op in enumerate(ops):
            kind = op[0]
            try:
                if kind == "sleep":
                    yield op[1]
                elif kind == "timeout":
                    got = yield sim.timeout(op[1], value=(pid, k))
                    trace.append(("got", pid, k, got, sim.now))
                elif kind == "instant":
                    ev = sim.event()
                    ev.succeed((pid, k))
                    got = yield ev
                    trace.append(("got", pid, k, got, sim.now))
                elif kind == "anyof":
                    yield sim.any_of([sim.timeout(op[1]), sim.timeout(op[2])])
                elif kind == "allof":
                    yield sim.all_of([sim.timeout(op[1]), sim.timeout(op[2])])
                elif kind == "failev":
                    ev = sim.event()
                    ev.fail(RuntimeError(f"boom-{pid}-{k}"))
                    try:
                        yield ev
                    except RuntimeError as err:
                        trace.append(("fail", pid, k, str(err), sim.now))
                elif kind == "interrupt":
                    victim = procs[op[1] % len(procs)]
                    if victim.is_alive:
                        victim.interrupt((pid, k))
                    yield 0.0
                elif kind == "park":
                    got = yield PARK
                    trace.append(("unpark", pid, k, got, sim.now))
                elif kind == "wake":
                    woke = [procs[op[1] % len(procs)].wake()
                            for _ in range(op[2])]
                    trace.append(("wake", pid, k, woke, sim.now))
                    yield 0.0
            except InterruptError as err:
                trace.append(("int", pid, k, err.cause, sim.now))
            trace.append(("op", pid, k, sim.now))
        return pid

    for pid, ops in enumerate(procs_spec):
        procs.append(sim.process(body(pid, ops), name=f"p{pid}"))
    procs[-1].add_callback(lambda ev: trace.append(("done", ev.value, sim.now)))

    def cascade_cb(tag, fanout):
        def fire(ev):
            trace.append(("cascade", tag, sim.now))
            for j in range(fanout):
                sim.timeout(0.0, value=(tag, j)).add_callback(
                    lambda e: trace.append(("leaf", e.value, sim.now)))
        return fire

    def wake_cb(tag, target):
        def fire(ev):
            trace.append(("cb-wake", tag, target.wake(), sim.now))
        return fire

    for s, op in enumerate(standalone_spec):
        if op[0] == "timeout_cb":
            sim.timeout(op[1], value=s).add_callback(
                lambda ev: trace.append(("cb", ev.value, sim.now)))
        elif op[0] == "wake_cb":
            sim.timeout(op[1]).add_callback(
                wake_cb(s, procs[op[2] % len(procs)]))
        else:  # cascade: a drain-time fan-out onto the current instant
            sim.timeout(op[1]).add_callback(cascade_cb(s, op[2]))
    return procs


def _drain_by_step(sim: Simulator) -> None:
    while sim.peek() != _INF:
        sim.step()


_op = st.one_of(
    st.tuples(st.just("sleep"), st.sampled_from(DELAYS)),
    st.tuples(st.just("timeout"), st.sampled_from(DELAYS)),
    st.tuples(st.just("instant")),
    st.tuples(st.just("anyof"), st.sampled_from(DELAYS), st.sampled_from(DELAYS)),
    st.tuples(st.just("allof"), st.sampled_from(DELAYS), st.sampled_from(DELAYS)),
    st.tuples(st.just("failev")),
    st.tuples(st.just("interrupt"), st.integers(min_value=0, max_value=7)),
    st.tuples(st.just("park")),
    st.tuples(st.just("wake"), st.integers(min_value=0, max_value=7),
              st.integers(min_value=1, max_value=2)),
)
_procs = st.lists(st.lists(_op, min_size=1, max_size=6), min_size=1, max_size=5)
_standalone = st.lists(
    st.one_of(
        st.tuples(st.just("timeout_cb"), st.sampled_from(DELAYS)),
        st.tuples(st.just("cascade"), st.sampled_from(DELAYS),
                  st.integers(min_value=1, max_value=4)),
        st.tuples(st.just("wake_cb"), st.sampled_from(DELAYS),
                  st.integers(min_value=0, max_value=7)),
    ),
    max_size=6,
)


def _execute(procs_spec, standalone_spec, driver) -> tuple:
    sim = Simulator()
    trace: list = []
    _build(sim, trace, procs_spec, standalone_spec)
    driver(sim)
    return tuple(trace), sim.now, sim.processed_events


@settings(max_examples=60, deadline=None)
@given(procs_spec=_procs, standalone_spec=_standalone)
def test_step_oracle_matches_fast_loop(procs_spec, standalone_spec):
    """step()-by-step execution and run() produce identical traces."""
    oracle = _execute(procs_spec, standalone_spec, _drain_by_step)
    fast = _execute(procs_spec, standalone_spec, lambda sim: sim.run())
    assert fast == oracle


@settings(max_examples=30, deadline=None)
@given(procs_spec=_procs, standalone_spec=_standalone,
       head=st.integers(min_value=1, max_value=9))
def test_step_run_mixing_matches_pure_run(procs_spec, standalone_spec, head):
    """A few manual step()s followed by run() is still the same execution."""

    def mixed(sim):
        for _ in range(head):
            if sim.peek() == _INF:
                break
            sim.step()
        sim.run()

    assert (_execute(procs_spec, standalone_spec, mixed)
            == _execute(procs_spec, standalone_spec, lambda sim: sim.run()))


def _run_watching_last(sim: Simulator, procs) -> None:
    """run_until_processed() on the last process, then run() to drain."""
    try:
        sim.run_until_processed(procs[-1])
    except RuntimeError:
        pass  # an unwaited process failure propagates; still deterministic
    except SimulationError:
        pass  # drained first: the watched process parked for good
    sim.run()


@settings(max_examples=30, deadline=None)
@given(procs_spec=_procs, standalone_spec=_standalone, watch=st.booleans())
def test_profiled_run_matches_unprofiled(procs_spec, standalone_spec, watch):
    """A profiler changes nothing observable in run() or
    run_until_processed()."""
    from repro.telemetry.profiler import KernelProfiler

    def execute(profiled: bool):
        sim = Simulator()
        trace: list = []
        procs = _build(sim, trace, procs_spec, standalone_spec)
        if profiled:
            sim.profiler = KernelProfiler()
        if watch:
            _run_watching_last(sim, procs)
        else:
            sim.run()
        return tuple(trace), sim.now, sim.processed_events

    assert execute(profiled=True) == execute(profiled=False)


@settings(max_examples=30, deadline=None)
@given(procs_spec=_procs, standalone_spec=_standalone,
       horizons=st.lists(st.sampled_from(DELAYS + (0.1, 1.5, 2.75, 5.0)),
                         max_size=6).map(lambda hs: sorted(set(hs))))
def test_horizon_slices_match_single_run(procs_spec, standalone_spec,
                                         horizons):
    """run(until=h) over increasing horizons, then run(), == one run().

    The trace and event count match exactly; the clock ends at the later
    of the last event and the last horizon (a horizon past the drain
    still advances it).
    """

    def sliced(sim):
        for h in horizons:
            sim.run(until=h)
            assert sim.now == h
        sim.run()

    trace, now, processed = _execute(procs_spec, standalone_spec,
                                     lambda sim: sim.run())
    assert _execute(procs_spec, standalone_spec, sliced) == (
        trace, max([now] + horizons), processed)


@settings(max_examples=30, deadline=None)
@given(procs_spec=_procs, standalone_spec=_standalone)
def test_watch_loop_matches_step_oracle(procs_spec, standalone_spec):
    """run_until_processed() on the last process, then run(), == oracle."""

    def execute_watch():
        sim = Simulator()
        trace: list = []
        _run_watching_last(sim, _build(sim, trace, procs_spec, standalone_spec))
        return tuple(trace), sim.now, sim.processed_events

    def execute_oracle():
        sim = Simulator()
        trace: list = []
        _build(sim, trace, procs_spec, standalone_spec)
        _drain_by_step(sim)
        return tuple(trace), sim.now, sim.processed_events

    assert execute_watch() == execute_oracle()


def test_wake_twice_in_one_instant_runs_once():
    """Two wakes before the parked process runs: one resume, one event."""
    sim = Simulator()
    resumes = []

    def sleeper():
        while True:
            yield PARK
            resumes.append(sim.now)

    proc = sim.process(sleeper())
    sim.run()
    assert proc.wake() is True
    assert proc.wake() is False     # already rescheduled
    before = sim.processed_events
    sim.run()
    assert resumes == [0.0]
    assert sim.processed_events == before + 1
    assert proc.wake() is True      # parked again: a later wake works
    sim.run()
    assert resumes == [0.0, 0.0]


@settings(max_examples=40, deadline=None)
@given(schedule=st.lists(st.tuples(st.sampled_from(DELAYS),
                                   st.integers(min_value=1, max_value=3)),
                         min_size=1, max_size=8),
       others=st.lists(st.sampled_from(DELAYS), max_size=6))
def test_park_wake_matches_kick_event_idiom(schedule, others):
    """``yield PARK`` + ``wake()`` takes the same (time, seq) slots and
    the same processed-event count as ``yield ev`` + ``ev.succeed()``."""

    def execute(use_park: bool):
        sim = Simulator()
        trace: list = []
        kick = [None]

        def server():
            while True:
                if use_park:
                    yield PARK
                else:
                    kick[0] = sim.event()
                    yield kick[0]
                    kick[0] = None
                trace.append(("served", sim.now))

        proc = sim.process(server(), name="server")

        def wake():
            if use_park:
                proc.wake()
            elif kick[0] is not None and not kick[0].triggered:
                kick[0].succeed()

        def waker():
            for delay, times in schedule:
                yield delay
                for _ in range(times):
                    wake()
                trace.append(("woke", sim.now))

        sim.process(waker(), name="waker")
        for i, delay in enumerate(others):
            sim.timeout(delay).add_callback(
                lambda ev, i=i: trace.append(("other", i, sim.now)))
        sim.run()
        return tuple(trace), sim.now, sim.processed_events, sim._seq

    assert execute(use_park=True) == execute(use_park=False)
