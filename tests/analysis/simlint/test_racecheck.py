"""Buffer-ownership race detector: end-to-end and determinism tests."""

import json

import pytest

from repro.analysis.simlint.racecheck import (
    BufferOwnershipMonitor,
    preset_point,
    run_racecheck,
    run_racecheck_smoke,
)
from repro.cli import main
from repro.errors import SimulationError
from repro.faults.chaos import run_chaos_point


# ------------------------------------------------------------------ plumbing
def test_monitor_installs_and_uninstalls_cleanly():
    from repro.fm.context import FMContext
    from repro.fm.queues import PacketQueue

    original_init = FMContext.__init__
    original_append = PacketQueue.append
    with BufferOwnershipMonitor():
        assert FMContext.__init__ is not original_init
        assert PacketQueue.append is not original_append
    assert FMContext.__init__ is original_init
    assert PacketQueue.append is original_append


def test_second_monitor_refused_while_installed():
    with BufferOwnershipMonitor():
        with pytest.raises(SimulationError):
            BufferOwnershipMonitor().install()


def test_unmonitored_queues_are_ignored():
    """Queues built outside any FMContext never produce races."""
    from repro.fm.packet import Packet, PacketType
    from repro.fm.queues import PacketQueue
    from repro.sim.core import Simulator

    with BufferOwnershipMonitor() as mon:
        queue = PacketQueue(Simulator(), 8, name="scratch")
        queue.append(Packet(ptype=PacketType.DATA, src_node=0, dst_node=1,
                            seq=0))
        queue.try_pop()
    assert mon.races == []
    assert mon.checked_ops == 2


# ------------------------------------------------------------------ clean runs
@pytest.mark.parametrize("preset", ["chaos", "failstop"])
def test_clean_presets_report_zero_races(preset):
    result = run_racecheck(preset=preset, seed=0)
    assert result.race_count == 0
    # The monitor genuinely watched the run (not a silent no-op)...
    assert result.monitor["checked_ops"] > 100
    assert result.monitor["contexts"] >= 2
    # ...and the run itself was healthy.
    assert result.run["error"] is None
    assert result.run["audit"]["ok"]


def test_clean_run_sees_ownership_traffic():
    """Epoch bumps and save/restore transitions actually flow through."""
    result = run_racecheck(preset="chaos", seed=0)
    assert result.monitor["halt_epochs"] > 0
    assert result.monitor["saves"] > 0
    assert result.monitor["restores"] > 0


# ------------------------------------------------------------------ planted race
def test_planted_out_of_window_access_yields_exactly_one_race():
    result = run_racecheck(preset="chaos", seed=0, plant=True)
    assert result.monitor["planted"] == 1
    assert result.race_count == 1
    race = result.monitor["races"][0]
    assert race["kind"] == "stored-access"
    assert race["op"] == "append"
    assert race["queue"].startswith("sendq[")
    # The surgical undo keeps the run healthy: the planted packet never
    # reaches the wire and the backing fingerprints still verify.
    assert result.run["error"] is None
    assert result.run["audit"]["ok"]


@pytest.mark.parametrize("kind", BufferOwnershipMonitor.PLANT_KINDS)
def test_each_plant_kind_yields_exactly_one_race_of_its_class(kind):
    result = run_racecheck(preset="chaos", seed=0, plant=True,
                           plant_kind=kind)
    assert result.monitor["planted"] == 1
    assert result.race_count == 1
    assert result.monitor["races"][0]["kind"] == kind
    # Every probe undoes itself: the run stays healthy for all kinds.
    assert result.run["error"] is None
    assert result.run["audit"]["ok"]


def test_unknown_plant_kind_is_rejected():
    with pytest.raises(SimulationError):
        BufferOwnershipMonitor(plant_at=0.001, plant_kind="bogus")


# ------------------------------------------------------------------ determinism
def test_racecheck_on_equals_racecheck_off_byte_identical():
    """Enabling the monitor must not disturb the simulation at all."""
    point = preset_point("chaos", seed=7)
    bare = run_chaos_point(point)
    monitored = run_racecheck(preset="chaos", seed=7)
    assert (json.dumps(bare, sort_keys=True)
            == json.dumps(monitored.run, sort_keys=True))


def test_racecheck_report_is_reproducible():
    first = run_racecheck(preset="chaos", seed=3, plant=True)
    second = run_racecheck(preset="chaos", seed=3, plant=True)
    assert (json.dumps(first.to_dict(), sort_keys=True)
            == json.dumps(second.to_dict(), sort_keys=True))


# ------------------------------------------------------------------ smoke + CLI
def test_smoke_gate_passes_and_is_json_ready():
    summary = run_racecheck_smoke(seed=0)
    assert summary["ok"]
    assert {c["check"] for c in summary["checks"]} == {
        "clean-chaos", "clean-failstop", "planted-stored-access",
        "planted-halted-send", "planted-sram-stored", "bit-identical"}
    json.dumps(summary)  # must serialise without error


def test_cli_racecheck_smoke_and_artifact(tmp_path, capsys):
    out = tmp_path / "racecheck.json"
    rc = main(["racecheck", "--smoke", "--out", str(out)])
    stdout = capsys.readouterr().out
    assert rc == 0
    assert "racecheck smoke: PASS" in stdout
    assert json.loads(out.read_text())["ok"]


def test_cli_racecheck_plant_expects_the_race(capsys):
    assert main(["racecheck", "--plant"]) == 0
    capsys.readouterr()
    assert main(["racecheck", "--preset", "failstop"]) == 0


def test_cli_racecheck_plant_kind_flag(capsys):
    rc = main(["racecheck", "--plant", "--plant-kind", "sram-stored"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "sram-stored" in out
