"""Byte-identity anchors for the chaos campaign's default strategy.

The fixtures are the exact stdout of three CLI campaigns captured
*before* ``ReliableFirmware`` was split into a driver plus pluggable
strategies (PR 9's acceptance bar: the refactor must be invisible to the
default ``per-packet`` configuration).  Any diff here means the default
path changed behaviour — deliberately regenerate the fixtures only with
a documented reason:

    PYTHONPATH=src python -m repro chaos --smoke
        > tests/faults/fixtures/golden_chaos_smoke.json
    PYTHONPATH=src python -m repro chaos --failstop 1 --rejoin --requeue \
        --rounds 600 --runs 2 > tests/faults/fixtures/golden_chaos_failstop.json
    PYTHONPATH=src python -m repro chaos --runs 3 --drop 0.05 \
        --dup 0.02 --corrupt 0.01 --rounds 20 \
        > tests/faults/fixtures/golden_chaos_drops.json

The failstop fixture is the recovery smoke preset from before that preset
gained a third slot and a third job.  The tests pin their own points, so
a smoke preset change never moves a fixture.
"""

import json
from pathlib import Path

from repro.faults.chaos import ChaosPoint, run_chaos_campaign

FIXTURES = Path(__file__).parent / "fixtures"


def _campaign_stdout(point, runs):
    """Exactly what the chaos CLI prints (plus its trailing newline)."""
    results = run_chaos_campaign(point, runs=runs, workers=1)
    return json.dumps(results if runs > 1 else results[0], indent=2) + "\n"


class TestGoldenCampaigns:
    def test_smoke_preset_byte_identical(self):
        point = ChaosPoint(seed=0, nodes=4, time_slots=2, jobs=2,
                           quantum=0.004, rounds=10, message_bytes=1024,
                           drop=0.02, dup=0.01, corrupt=0.005, jitter=0.05,
                           sram=200.0, stall=0.05, crash=0.02)
        golden = (FIXTURES / "golden_chaos_smoke.json").read_text()
        assert _campaign_stdout(point, runs=1) == golden

    def test_failstop_preset_byte_identical(self):
        point = ChaosPoint(seed=0, nodes=4, time_slots=2, jobs=2,
                           quantum=0.004, rounds=600, message_bytes=1024,
                           failstops=1, rejoin=True, requeue=True)
        golden = (FIXTURES / "golden_chaos_failstop.json").read_text()
        assert _campaign_stdout(point, runs=2) == golden

    def test_drop_campaign_byte_identical(self):
        point = ChaosPoint(seed=0, rounds=20, drop=0.05, dup=0.02,
                           corrupt=0.01)
        golden = (FIXTURES / "golden_chaos_drops.json").read_text()
        assert _campaign_stdout(point, runs=3) == golden
