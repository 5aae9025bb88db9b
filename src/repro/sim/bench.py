"""Microbenchmarks for the DES kernel hot paths.

Each benchmark builds a fresh :class:`~repro.sim.core.Simulator`, drives it
through ``n`` iterations of one event pattern, and reports throughput in
processed events per second.  The patterns cover the kernel's distinct
dispatch paths:

``sleep``
    one process yielding bare-number delays — the canonical simulation
    idiom (every hardware/firmware model sleeps this way), which parks
    the process itself in the calendar with no event object;
``timeout``
    the same loop through explicit :meth:`Simulator.timeout` events,
    one Timeout allocated per wake-up;
``chain``
    callback-driven timeout *links* of ``_WIDTH`` same-instant events
    each: every link schedules the next link's worth of simultaneous
    timeouts from inside a callback, the pattern of a barrier release
    fanning out to a gang (pure ``add_callback`` dispatch);
``churn``
    a process creating and immediately succeeding ``_WIDTH`` transient
    events per wake-up (the immediate-fire path: every event is pushed
    at the current instant);
``same_instant_burst``
    ``n`` timeouts pre-scheduled at one single future instant, then
    drained in one run — heap pushes and pops whose keys tie on time
    and are ordered by seq alone;
``far_horizon``
    ``n`` timeouts scattered pseudo-randomly over a wide horizon —
    almost no same-instant sharing, so each push and pop pays the full
    O(log n) heap sift.

``chain`` and ``churn`` use ``_WIDTH``-wide same-instant links rather
than single-event links: the paper's workloads (figures 5–9) are
dominated by barrier-release storms and broadcast fan-outs where
hundreds-to-thousands of events share one timestamp.  The perf harness
re-measures the seed kernel on the *same shapes* in the same run, so
ratios stay honest.  These are microbenchmarks: a kernel mechanism is
kept only for a measured end-to-end win (``benchmarks/e2e``), never for
a win here alone.

The functions are imported both by ``python -m repro perf`` (a quick
assert-only smoke check) and by ``benchmarks/perf/bench_kernel.py``
(the full JSON-emitting harness).  They use only the public simulator
API, so the harness can run the identical workload source against
the seed tree.  Wall-clock numbers are measured with GC left as the
caller configured it; the harness disables GC, the smoke check does
not bother.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.sim.core import Simulator

#: Same-instant population for the chain/churn/burst patterns.  Sized
#: for the 1000-node scale the roadmap targets (a full-machine barrier
#: release wakes a few thousand processes at one instant).
_WIDTH = 4096


def bench_sleep(n: int) -> float:
    """Events/sec for one process yielding bare-number delays."""
    sim = Simulator()

    def proc():
        for _ in range(n):
            yield 1.0

    p = sim.process(proc())
    t0 = time.perf_counter()  # simlint: ignore[SIM001] -- microbenchmark measures host wall time by design
    sim.run_until_processed(p)
    return sim.processed_events / (time.perf_counter() - t0)  # simlint: ignore[SIM001] -- microbenchmark measures host wall time by design


def bench_timeout(n: int) -> float:
    """Events/sec for one process yielding explicit Timeout events."""
    sim = Simulator()

    def proc():
        for _ in range(n):
            yield sim.timeout(1.0)

    p = sim.process(proc())
    t0 = time.perf_counter()  # simlint: ignore[SIM001] -- microbenchmark measures host wall time by design
    sim.run_until_processed(p)
    return sim.processed_events / (time.perf_counter() - t0)  # simlint: ignore[SIM001] -- microbenchmark measures host wall time by design


def bench_chain(n: int) -> float:
    """Events/sec for wide same-instant callback-chain links.

    Each link is ``_WIDTH`` timeouts at one instant; the last callback
    of a link schedules the next link.  This is the barrier-release
    shape: one trigger, a gang-wide fan-out, repeat.
    """
    sim = Simulator()
    state = {"left": n}
    hits = [0]

    def cb(ev):
        hits[0] += 1

    timeout = sim.timeout  # hoisted bind: measure the kernel, not attr lookup

    def last_cb(ev):
        left = state["left"] - _WIDTH
        state["left"] = left
        if left > 0:
            for _ in range(_WIDTH - 1):
                timeout(1.0).add_callback(cb)
            timeout(1.0).add_callback(last_cb)

    last_cb(None)
    t0 = time.perf_counter()  # simlint: ignore[SIM001] -- microbenchmark measures host wall time by design
    sim.run()
    return sim.processed_events / (time.perf_counter() - t0)  # simlint: ignore[SIM001] -- microbenchmark measures host wall time by design


def bench_churn(n: int) -> float:
    """Events/sec for bursts of transient already-succeeded events.

    One process creates and immediately succeeds ``_WIDTH`` events per
    wake-up, waiting on the last — the immediate-completion shape of
    zero-latency protocol steps, all at one instant.
    """
    sim = Simulator()

    event = sim.event  # hoisted bind: measure the kernel, not attr lookup

    def producer():
        made = 0
        while made < n:
            last = None
            for _ in range(_WIDTH):
                ev = event()
                ev.succeed(1)
                last = ev
            made += _WIDTH
            yield last

    p = sim.process(producer())
    t0 = time.perf_counter()  # simlint: ignore[SIM001] -- microbenchmark measures host wall time by design
    sim.run_until_processed(p)
    return sim.processed_events / (time.perf_counter() - t0)  # simlint: ignore[SIM001] -- microbenchmark measures host wall time by design


def bench_same_instant_burst(n: int) -> float:
    """Events/sec draining ``n`` timeouts that share one single instant.

    All events are pre-scheduled at the same future timestamp before the
    clock starts; the run is one drain of that instant, each pop a
    log-n sift over keys that tie on time.  Scheduling is inside the
    timed region (insertion cost is part of the calendar's cost).
    """
    sim = Simulator()
    hits = [0]

    def cb(ev):
        hits[0] += 1

    t0 = time.perf_counter()  # simlint: ignore[SIM001] -- microbenchmark measures host wall time by design
    for _ in range(n):
        sim.timeout(1.0).add_callback(cb)
    sim.run()
    return sim.processed_events / (time.perf_counter() - t0)  # simlint: ignore[SIM001] -- microbenchmark measures host wall time by design


def bench_far_horizon(n: int) -> float:
    """Events/sec for timeouts scattered over a wide horizon.

    Delays are generated by a fixed multiplicative LCG (no ``random``
    import, fully deterministic), giving ~n distinct timestamps spread
    over ~1000 simulated seconds: almost no two events share an
    instant.
    """
    sim = Simulator()
    hits = [0]

    def cb(ev):
        hits[0] += 1

    t0 = time.perf_counter()  # simlint: ignore[SIM001] -- microbenchmark measures host wall time by design
    for i in range(n):
        sim.timeout(((i * 2654435761) % 1000003) * 1e-3).add_callback(cb)
    sim.run()
    return sim.processed_events / (time.perf_counter() - t0)  # simlint: ignore[SIM001] -- microbenchmark measures host wall time by design


def bench_sleep_profiled(n: int) -> float:
    """The ``sleep`` pattern with the kernel profiler attached.

    Measures what telemetry *costs*: with a profiler attached the run
    loop observes every event, so the ratio against :func:`bench_sleep`
    is the price of ``--telemetry`` on the cheapest event.
    """
    from repro.telemetry.profiler import KernelProfiler

    sim = Simulator()
    sim.profiler = KernelProfiler()

    def proc():
        for _ in range(n):
            yield 1.0

    p = sim.process(proc())
    t0 = time.perf_counter()  # simlint: ignore[SIM001] -- microbenchmark measures host wall time by design
    sim.run_until_processed(p)
    return sim.processed_events / (time.perf_counter() - t0)  # simlint: ignore[SIM001] -- microbenchmark measures host wall time by design


#: name -> benchmark function, in reporting order.
KERNEL_BENCHMARKS: dict[str, Callable[[int], float]] = {
    "sleep": bench_sleep,
    "timeout": bench_timeout,
    "chain": bench_chain,
    "churn": bench_churn,
    "same_instant_burst": bench_same_instant_burst,
    "far_horizon": bench_far_horizon,
}


def run_smoke(n: int = 50_000, floor: float = 100_000.0) -> int:
    """Quick assert-only health check for ``python -m repro perf``.

    Runs every kernel benchmark once at a small ``n`` and fails (exit
    code 1) if any pattern falls below ``floor`` events/s, which even a
    cold interpreter on a loaded CI box clears by an order of magnitude.
    The point is catching catastrophic regressions (an accidentally
    quadratic queue, tracing left enabled), not measuring — use
    ``benchmarks/perf/bench_kernel.py`` for numbers.
    """
    failed = False
    for name, fn in KERNEL_BENCHMARKS.items():
        rate = max(fn(n) for _ in range(2))
        status = "ok" if rate >= floor else "FAIL"
        if rate < floor:
            failed = True
        print(f"  {name:<18} {rate:>12,.0f} events/s  [{status}]")
    if failed:
        print(f"perf smoke FAILED: floor is {floor:,.0f} events/s")
        return 1
    print("perf smoke passed")
    return 0
