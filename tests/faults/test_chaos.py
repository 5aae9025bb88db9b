"""End-to-end chaos campaigns: the acceptance tests of the subsystem.

The headline claim under test: with every fault model lit, the
reliability layer recovers every injected fault and the auditor proves
no loss, no duplication, FIFO order, credit conservation, and backing
integrity — while with the reliability layer's evidence counters we can
show the faults really happened (no vacuous pass).
"""

import pytest

from repro.errors import ProtocolError
from repro.faults import chaos
from repro.faults.chaos import (FAILSTOP_SMOKE_COUNTERS, FAULT_SMOKE_COUNTERS,
                                ChaosPoint, run_chaos_campaign,
                                run_chaos_point, smoke_point, unlit_counters)
from repro.faults.strategies import STRATEGY_NAMES
from repro.gluefm.flush import FlushProtocol


def small_point(**overrides):
    base = dict(seed=0, nodes=4, time_slots=2, jobs=2, quantum=0.004,
                rounds=6, message_bytes=1024)
    base.update(overrides)
    return ChaosPoint(**base)


class TestCleanBaseline:
    def test_no_faults_no_retransmits_audit_ok(self):
        result = run_chaos_point(small_point())
        assert result["error"] is None
        assert result["audit"]["ok"]
        assert result["injected"] == {}  # no injector on a perfect cluster
        assert result["reliability"]["retransmits"] == 0
        assert result["reliability"]["outstanding_unacked"] == 0
        assert result["audit"]["packets_sent"] > 0
        assert result["audit"]["packets_sent"] == \
            result["audit"]["packets_delivered"]


class TestFaultyRuns:
    def test_link_faults_recovered_and_audited(self):
        result = run_chaos_point(small_point(drop=0.02, dup=0.01,
                                             corrupt=0.005))
        injected = result["injected"]
        assert injected["drops"] > 0, "the campaign must actually inject"
        assert result["reliability"]["retransmits"] > 0
        assert result["error"] is None
        assert result["audit"]["ok"], result["audit"]
        assert result["reliability"]["outstanding_unacked"] == 0
        assert result["reliability"]["permanent_losses"] == 0

    def test_all_fault_models_together(self):
        result = run_chaos_point(small_point(
            drop=0.02, dup=0.01, corrupt=0.005, jitter=0.05,
            sram=200.0, stall=0.05, crash=0.02, rounds=10))
        injected = result["injected"]
        assert injected["drops"] > 0 and injected["dups"] > 0
        assert injected["jitters"] > 0
        assert result["error"] is None
        assert result["audit"]["ok"], result["audit"]

    def test_audit_disabled_still_reports_injection(self):
        """The --no-audit path: faults demonstrably injected, nothing
        verified — the control arm of the acceptance criterion."""
        result = run_chaos_point(small_point(drop=0.05, dup=0.02,
                                             audit=False))
        assert "audit" not in result
        assert result["injected"]["drops"] > 0
        assert result["reliability"]["retransmits"] > 0

    def test_reports_are_json_clean(self):
        import json

        result = run_chaos_point(small_point(drop=0.02))
        text = json.dumps(result)
        assert "drops" in text and "audit" in text


class TestFailStopCampaigns:
    """Fail-stop chaos: seed-drawn node deaths through the recovery
    subsystem, with the audit excusing exactly the dead jobs."""

    def failstop_point(self, **overrides):
        base = dict(rounds=600, failstops=1)
        base.update(overrides)
        return small_point(**base)

    def test_schedule_is_seed_deterministic(self):
        point = self.failstop_point()
        schedule = point.failstop_schedule()
        assert schedule == point.failstop_schedule()
        assert len(schedule) == 1
        fs = schedule[0]
        # Corpses come from the expendable upper half, mid-run.
        assert fs.node_id in (2, 3)
        assert 3 * point.quantum <= fs.fail_at <= 8 * point.quantum
        assert fs.rejoin_at is None
        other = self.failstop_point(seed=99).failstop_schedule()
        assert other != schedule

    def test_rejoin_schedules_restart_after_death(self):
        [fs] = self.failstop_point(rejoin=True).failstop_schedule()
        assert fs.rejoin_at == pytest.approx(fs.fail_at + 5 * 0.004)

    def test_too_many_failstops_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="expendable"):
            self.failstop_point(failstops=3).failstop_schedule()

    def test_job_width_halves_under_failstops(self):
        assert small_point().job_width() == 4
        assert self.failstop_point().job_width() == 2

    def test_failstop_kill_policy_audits_survivors(self):
        # jobs=4 fills the matrix (two 2-wide jobs per slot), so the
        # corpse is guaranteed to carry ranks — whatever node the seed
        # draws — and the kill policy must fire.
        result = run_chaos_point(self.failstop_point(jobs=4))
        assert result["error"] is None
        recovery = result["recovery"]
        assert recovery["failstops_injected"] == 1
        assert recovery["evictions"] == 1
        assert recovery["jobs_killed"] >= 1
        assert result["failed_jobs"] >= 1
        assert result["audit"]["ok"], result["audit"]
        assert result["audit"]["excused_channels"] > 0

    def test_failstop_rejoin_requeue_full_recovery(self):
        # seed=1 places a job on the upper node half with spare matrix
        # capacity left, so the death triggers a requeue (not the
        # no-capacity kill fallback) and the rejoin reintegrates.
        result = run_chaos_point(self.failstop_point(seed=1, rejoin=True,
                                                     requeue=True))
        assert result["error"] is None
        recovery = result["recovery"]
        assert recovery["evictions"] == 1
        assert recovery["reintegrations"] == 1
        assert recovery["jobs_requeued"] == 1
        assert recovery["jobs_killed"] == 0
        assert result["audit"]["ok"], result["audit"]

    @pytest.mark.parametrize("requeue", [False, True])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_restarted_node_ignores_switch_until_reintegrated(self, seed,
                                                              requeue):
        # seed=2: node 3 restarts while a slot switch is multicast, and
        # the switch reaches it before its register reaches the masterd.
        # The fast-rejoin eviction drops it from its peers' flush sets,
        # so a flush round it opened could never close and the
        # reintegration's flush reset would raise mid-round.
        result = run_chaos_point(ChaosPoint(
            seed=seed, nodes=4, jobs=3, rounds=300, failstops=2,
            rejoin=True, requeue=requeue))
        assert result["error"] is None
        assert result["recovery"]["evictions"] == 2
        assert result["recovery"]["reintegrations"] == 2
        assert result["audit"]["ok"], result["audit"]


class TestSmokePresets:
    def test_failstop_preset_lights_every_counter(self):
        # What ``repro chaos --failstop 1 --smoke --runs 2`` runs: each run
        # gang-switches, evicts, reintegrates and requeues.
        for result in run_chaos_campaign(smoke_point(True, seed=0), runs=2):
            assert unlit_counters(result, FAILSTOP_SMOKE_COUNTERS) == []
            assert result["recovery"]["requeue_failures"] == 0
            assert result["error"] is None
            assert result["audit"]["ok"], result["audit"]

    @pytest.mark.parametrize("strategy", STRATEGY_NAMES)
    def test_fault_preset_lights_every_fault_model(self, strategy):
        # What ``repro chaos --smoke --strategy S`` runs: every fault
        # model injects at least once, and the audit stays clean.
        (result,) = run_chaos_campaign(smoke_point(False, seed=0,
                                                   strategy=strategy))
        assert unlit_counters(result, FAULT_SMOKE_COUNTERS) == []
        assert result["error"] is None
        assert result["audit"]["ok"], result["audit"]

    def test_unlit_counters_named(self):
        result = {"switches": 0, "recovery": {
            "evictions": 1, "reintegrations": 0, "jobs_requeued": 2}}
        assert unlit_counters(result, FAILSTOP_SMOKE_COUNTERS) == [
            "switches", "recovery.reintegrations"]


class TestMidRunErrors:
    def test_protocol_error_is_reported_and_the_campaign_goes_on(
            self, monkeypatch):
        """A protocol invariant that trips in the second gang switch of
        the first run: that run reports it and is still audited, and the
        second run is untouched."""
        calls = []
        begin_flush = FlushProtocol.begin_flush

        def failing(self):
            calls.append(self)
            if len(calls) == 6:
                raise ProtocolError("planted mid-run")
            return begin_flush(self)

        monkeypatch.setattr(FlushProtocol, "begin_flush", failing)
        base = small_point(drop=0.02)
        first, second = run_chaos_campaign(base, runs=2)
        assert first["error"] == "planted mid-run"
        assert "audit" in first
        monkeypatch.undo()
        assert second == run_chaos_campaign(base, runs=2)[1]
        assert second["error"] is None and second["audit"]["ok"]


    def test_protocol_error_in_the_settle_run_is_reported(
            self, monkeypatch):
        """An invariant that trips after the jobs finished, while the
        point settles, lands in the point's error field as well."""
        class Settling(chaos.ParParCluster):
            def run_for(self, seconds, **kwargs):
                def trip():
                    yield seconds / 2
                    raise ProtocolError("planted in the settle run")
                self.sim.process(trip())
                return super().run_for(seconds, **kwargs)

        monkeypatch.setattr(chaos, "ParParCluster", Settling)
        result = run_chaos_point(small_point(drop=0.02))
        assert result["error"] == "planted in the settle run"
        assert "audit" in result


class TestSeeding:
    def test_same_seed_same_report(self):
        a = run_chaos_point(small_point(drop=0.02, dup=0.01))
        b = run_chaos_point(small_point(drop=0.02, dup=0.01))
        assert a == b

    def test_different_seed_different_faults(self):
        a = run_chaos_point(small_point(drop=0.05, jitter=0.1))
        b = run_chaos_point(small_point(drop=0.05, jitter=0.1, seed=99))
        assert a["injected"] != b["injected"]
