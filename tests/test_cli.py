"""Tests for the command-line experiment runner."""

import dataclasses
import importlib
import os

import pytest

from repro.cli import main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("figure5", "figure6", "figure7", "figure8", "figure9",
                     "headline", "nicmem", "chaos"):
            assert name in out

    def test_figure5_small(self, capsys):
        assert main(["figure5", "--contexts", "1", "8",
                     "--sizes", "4096", "--packets", "100"]) == 0
        out = capsys.readouterr().out
        assert "Figure 5" in out and "4096" in out

    def test_figure8_small(self, capsys):
        assert main(["figure8", "--nodes", "2", "--switches", "2"]) == 0
        assert "Figure 8" in capsys.readouterr().out

    def test_figure6_small(self, capsys):
        assert main(["figure6", "--jobs", "1", "2", "--sizes", "4096",
                     "--quantum", "0.01"]) == 0
        assert "Figure 6" in capsys.readouterr().out

    def test_figure_policies_small(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "bench.json"
        assert main(["figure_policies", "--jobs", "2",
                     "--policies", "static-partition", "occamy",
                     "--sizes", "1536", "--quantum", "0.01",
                     "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "Buffer policies" in out
        assert "occamy" in out and "static-partition" in out
        doc = json.loads(out_path.read_text())
        assert doc["schema"] == "repro-bench-policies/1"
        assert {p["policy"] for p in doc["points"]} == {"static-partition",
                                                        "occamy"}

    def test_figure_policies_unknown_policy_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            main(["figure_policies", "--policies", "lru", "--jobs", "1"])

    def test_chaos_small_audited(self, capsys):
        import json

        assert main(["chaos", "--seed", "0", "--rounds", "4",
                     "--drop", "0.02", "--dup", "0.01"]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["audit"]["ok"]
        assert result["injected"]["drops"] >= 0
        assert result["error"] is None

    def test_chaos_no_audit(self, capsys):
        import json

        assert main(["chaos", "--rounds", "4", "--drop", "0.05",
                     "--no-audit"]) == 0
        result = json.loads(capsys.readouterr().out)
        assert "audit" not in result
        assert result["injected"]["drops"] > 0

    def test_chaos_multi_run_list(self, capsys):
        import json

        assert main(["-j", "2", "chaos", "--runs", "2", "--rounds", "3",
                     "--drop", "0.02"]) == 0
        results = json.loads(capsys.readouterr().out)
        assert isinstance(results, list) and len(results) == 2
        assert all(r["audit"]["ok"] for r in results)

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["no-such-figure"])


def test_failstop_smoke_fails_on_an_unlit_counter(monkeypatch, capsys):
    # The pre-3-slot preset made no gang switch on seed 0: the gate must
    # exit 1 and name the counter.
    from repro.faults import chaos

    monkeypatch.setattr(chaos, "smoke_point", lambda failstop, **common:
                        chaos.ChaosPoint(rounds=600, failstops=1, rejoin=True,
                                         requeue=True, **common))
    assert main(["chaos", "--failstop", "1", "--smoke"]) == 1
    assert "run 0: switches read 0" in capsys.readouterr().err


def test_fault_smoke_fails_on_an_unlit_counter(monkeypatch, capsys):
    # The 10-round preset injected no corruption, daemon stall or daemon
    # crash on seed 0: the gate must exit 1 and name each of them.
    from repro.faults import chaos

    monkeypatch.setattr(chaos, "smoke_point", lambda failstop, **common:
                        chaos.ChaosPoint(rounds=10, drop=0.02, dup=0.01,
                                         corrupt=0.005, jitter=0.05,
                                         sram=200.0, stall=0.05, crash=0.02,
                                         **common))
    assert main(["chaos", "--smoke"]) == 1
    err = capsys.readouterr().err
    for name in ("corruptions", "daemon_stalls", "daemon_crashes"):
        assert f"run 0: injected.{name} read 0" in err


# (argv, module, point function the pool worker calls, perturbation)
SMOKE_GATES = [
    (["figure_policies", "--smoke"], "repro.experiments.figure_policies",
     "_measure_point",
     lambda point: dataclasses.replace(point, switches=point.switches + 1)),
    (["chaos", "--smoke"], "repro.faults.chaos", "run_chaos_point",
     lambda result: {**result, "perturbed": True}),
]


@pytest.mark.parametrize("argv, module, name, perturb", SMOKE_GATES,
                         ids=[gate[0][0] for gate in SMOKE_GATES])
class TestSmokeGatesCanFail:
    """``--smoke`` compares a serial run with a real process pool, even on
    a one-CPU host: a result that changes only in a worker process must
    fail the gate."""

    def test_pool_only_perturbation_fails(self, argv, module, name, perturb,
                                          monkeypatch, capsys):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        target = importlib.import_module(module)
        real = getattr(target, name)
        parent = os.getpid()

        def perturbed(*args, **kwargs):
            result = real(*args, **kwargs)
            return result if os.getpid() == parent else perturb(result)

        monkeypatch.setattr(target, name, perturbed)
        assert main(argv) == 1
        assert "diverged" in capsys.readouterr().err

    def test_unperturbed_passes(self, argv, module, name, perturb,
                                monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert main(argv) == 0


class TestExplainSmokeChecksTheReplay:
    """``explain --smoke`` re-ingests its own saved trace through the
    offline replay: a streamed attribution that drifts from it fails the
    gate, even when serial and pool runs drift alike."""

    def test_streamed_cause_perturbation_fails(self, monkeypatch, capsys):
        from repro.telemetry.explain import ExplainStream

        real = ExplainStream.finish

        def perturbed(self, *args, **kwargs):
            analysis = real(self, *args, **kwargs)
            analysis["causes"]["wire"]["total"] += 1e-9
            return analysis

        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        monkeypatch.setattr(ExplainStream, "finish", perturbed)
        assert main(["explain", "--smoke"]) == 1
        err = capsys.readouterr().err
        assert "offline replay" in err and "diverged" not in err

    def test_unperturbed_passes(self, monkeypatch, capsys):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert main(["explain", "--smoke"]) == 0
        assert "FAIL" not in capsys.readouterr().err
