"""Buffer ownership across a gang switch, checked where it is enforced.

Between a job's switch-out and its next switch-in its context is STORED:
nothing may touch its queues, and no SRAM flip may land in them.  The
model holds this by construction.  The job's process is stopped before
the halt and continued after the release, the firmware scans only
installed contexts, the fault injector draws SRAM targets from the
installed contexts, and ``BackingStore.restore`` refuses a context whose
queues changed while it was stored.  These tests break the rule on
purpose and expect the restore to refuse, and replay whole traced runs
to check that every SRAM flip, send-queue append and delivery names an
installed context.
"""

from dataclasses import replace

import pytest

import repro.faults.chaos as chaos
from repro.faults.chaos import ChaosPoint, run_chaos_point, smoke_point
from repro.fm.context import ContextState
from repro.fm.packet import Packet, PacketType

#: A fault-mix point whose first context found STORED 6 ms in holds a
#: saved image (the probe below needs one: a context loaded stored and
#: not yet installed has none, and its first install restores nothing).
STORED_PROBE = ChaosPoint(seed=0, rounds=10, drop=0.02, dup=0.01,
                          corrupt=0.005, jitter=0.05, sram=200.0, stall=0.05,
                          crash=0.02)
#: A fail-stop point that keeps gang-switching through the recovery:
#: three jobs on two slots, so jobs rotate before and after the eviction.
FAILSTOP_SWITCHING = ChaosPoint(rounds=600, failstops=1, rejoin=True,
                                requeue=True, jobs=3)


def _capture_clusters(monkeypatch):
    """Return the list each cluster ``run_chaos_point`` builds from now
    on is appended to."""
    built = []

    class Captured(chaos.ParParCluster):
        def __init__(self, config):
            super().__init__(config)
            built.append(self)

    monkeypatch.setattr(chaos, "ParParCluster", Captured)
    return built


class TestStoredQueuesAreFrozen:
    def test_append_to_a_stored_context_trips_the_restore(self, monkeypatch):
        """An append to a switched-out context's send queue in the middle
        of a gang-switching chaos run: the context's next restore must
        refuse it."""
        planted = []

        class Planting(chaos.ParParCluster):
            def __init__(self, config):
                super().__init__(config)
                self.sim.process(self._plant())

            def _plant(self):
                yield 0.006
                while True:
                    stored = [ctx for glue in self.glue
                              for ctx in glue._contexts.values()
                              if ctx.state is ContextState.STORED]
                    if stored:
                        break
                    yield 0.0005
                ctx = stored[0]
                ctx.send_queue.append(Packet(
                    PacketType.DATA, ctx.node_id, ctx.node_id,
                    self.sim.next_seq(), job_id=ctx.job_id))
                planted.append(ctx)

        monkeypatch.setattr(chaos, "ParParCluster", Planting)
        report = run_chaos_point(STORED_PROBE)
        assert len(planted) == 1
        # the refusal ends the run and lands in the point's report
        assert report["error"].startswith(f"job {planted[0].job_id}:")
        assert "changed while stored" in report["error"]


def _ownership_violations(records) -> dict:
    """Replay a record stream, tracking which (node, job) contexts are
    installed; count the records that touch one that is not."""
    installed = set()
    violations = {"fault-sram": 0, "pkt-enq": 0, "pkt-deliver": 0}
    for rec in records:
        kind = rec.kind
        if kind == "ctx-install":
            installed.add((rec.fields["node"], rec.fields["job"]))
        elif kind == "ctx-remove":
            installed.discard((rec.fields["node"], rec.fields["job"]))
        elif kind in violations:
            if (rec.fields["node"], rec.fields["job"]) not in installed:
                violations[kind] += 1
    return violations


class TestTraceReplay:
    @pytest.mark.parametrize("seed", range(5))
    def test_chaos_flips_and_packets_touch_only_installed_contexts(
            self, monkeypatch, seed):
        built = _capture_clusters(monkeypatch)
        point = replace(smoke_point(False, seed=seed), sram=20_000.0,
                        telemetry=True)
        report = run_chaos_point(point)
        tracer = built[0].tracer
        assert not tracer.truncated
        assert report["error"] is None and report["audit"]["ok"]
        assert report["switches"] > 0
        kinds = {rec.kind for rec in tracer.records}
        assert {"fault-sram", "ctx-remove", "pkt-deliver"} <= kinds
        assert _ownership_violations(tracer.records) == {
            "fault-sram": 0, "pkt-enq": 0, "pkt-deliver": 0}

    @pytest.mark.parametrize("seed", range(3))
    def test_failstop_recovery_touches_only_installed_contexts(
            self, monkeypatch, seed):
        built = _capture_clusters(monkeypatch)
        report = run_chaos_point(replace(FAILSTOP_SWITCHING, seed=seed,
                                         telemetry=True))
        tracer = built[0].tracer
        assert not tracer.truncated
        assert report["error"] is None and report["audit"]["ok"]
        # The point really switches through an eviction and a rejoin.
        assert report["switches"] > 0
        assert report["recovery"]["evictions"] == 1
        assert report["recovery"]["reintegrations"] == 1
        assert _ownership_violations(tracer.records) == {
            "fault-sram": 0, "pkt-enq": 0, "pkt-deliver": 0}
