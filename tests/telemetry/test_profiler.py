"""KernelProfiler: attribution, zero-cost-off hook, self-benchmark."""

from repro.sim.core import Simulator
from repro.telemetry.profiler import (KernelProfiler, component_of,
                                      merge_profiles)
from repro.telemetry.registry import MetricsRegistry


class TestComponentOf:
    def test_strips_run_numbers(self):
        assert component_of("noded3-switch17") == "noded-switch"
        assert component_of("app-j1-r0") == "app-j-r"
        assert component_of("lanai-4") == "lanai"

    def test_plain_names_unchanged(self):
        assert component_of("masterd") == "masterd"

    def test_all_digits_becomes_anonymous(self):
        assert component_of("123") == "anonymous"


def _drive(profiler=None, n=50):
    sim = Simulator()
    if profiler is not None:
        sim.profiler = profiler

    def ticker():
        for _ in range(n):
            yield 1.0

    done = []

    def cb(ev):
        done.append(ev)

    sim.timeout(5.0).add_callback(cb)
    sim.process(ticker(), name="ticker-1")
    sim.process(ticker(), name="ticker-2")
    sim.run()
    return sim


class TestProfilerHook:
    def test_simulator_has_no_profiler_by_default(self):
        assert Simulator().profiler is None

    def test_profiled_run_counts_every_event(self):
        prof = KernelProfiler()
        sim = _drive(prof)
        assert prof.events == sim.processed_events

    def test_attribution_groups_by_component(self):
        prof = KernelProfiler()
        _drive(prof, n=10)
        snap = prof.snapshot()
        assert "ticker" in snap["components"]
        # Both ticker-1 and ticker-2 fold into one component.
        assert snap["components"]["ticker"]["events"] >= 20
        assert "kernel.timeout" in snap["components"]

    def test_waiters_and_entry_classes(self):
        """An event with a parked process waiter belongs to the waiter;
        a timeout and an event nobody waits on go by their class."""
        prof = KernelProfiler()
        sim = Simulator()
        sim.profiler = prof
        gate, lone = sim.event(), sim.event()

        def waiter():
            yield gate

        sim.process(waiter(), name="waiter-7")
        sim.timeout(2.0).add_callback(lambda ev: gate.succeed())
        sim.timeout(1.0).add_callback(lambda ev: lone.succeed())
        sim.run()
        assert prof.snapshot()["components"] == {
            "kernel.event": {"events": 1, "sim_seconds": 0.0},
            "kernel.timeout": {"events": 2, "sim_seconds": 2.0},
            "waiter": {"events": 3, "sim_seconds": 0.0},   # start, gate, end
        }

    def test_sim_seconds_total_matches_clock(self):
        prof = KernelProfiler()
        sim = _drive(prof, n=25)
        total = sum(c["sim_seconds"]
                    for c in prof.snapshot()["components"].values())
        assert abs(total - sim.now) < 1e-9

    def test_profiled_equals_unprofiled(self):
        plain = _drive(None, n=40)
        prof = _drive(KernelProfiler(), n=40)
        assert plain.now == prof.now
        assert plain.processed_events == prof.processed_events

    def test_run_until_processed_profiled(self):
        prof = KernelProfiler()
        sim = Simulator()
        sim.profiler = prof

        def proc():
            yield 1.0
            yield 2.0
            return 42

        p = sim.process(proc(), name="worker-9")
        sim.run_until_processed(p)
        assert prof.events == sim.processed_events
        assert "worker" in prof.snapshot()["components"]


class TestSnapshotAndMerge:
    def test_wall_clock_excluded_by_default(self):
        prof = KernelProfiler()
        _drive(prof)
        assert "self_benchmark" not in prof.snapshot()
        bench = prof.snapshot(include_wall=True)["self_benchmark"]
        assert bench["wall_seconds"] > 0
        assert bench["events_per_sec"] > 0

    def test_merge_sums_components(self):
        a = KernelProfiler()
        b = KernelProfiler()
        _drive(a, n=10)
        _drive(b, n=10)
        merged = merge_profiles([a.snapshot(), b.snapshot()])
        assert merged["events"] == a.events + b.events
        assert (merged["components"]["ticker"]["events"]
                == a.snapshot()["components"]["ticker"]["events"] * 2)

    def test_publish_into_registry(self):
        prof = KernelProfiler()
        _drive(prof, n=5)
        reg = MetricsRegistry()
        prof.publish(reg)
        assert reg.counter("kernel.events").value == prof.events
        assert "kernel.ticker.events" in reg
