"""Checks for the end-to-end benchmark; run with ``pytest benchmarks/e2e``.

One ``--smoke --trace 1`` run (smallest point per workload, one timed
rep plus the traced rep) backs most checks; it takes about 10 s.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter  # simlint: ignore[SIM001] -- the reconciliation test times a traced run on the host

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import suite  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def definitions() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def smoke(tmp_path_factory) -> tuple:
    """(contract line, full result) of one smoke run with the trace."""
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--trace", "1",
         "--out", str(out)],
        capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1]), json.loads(out.read_text())


def test_definitions_match_the_code(definitions):
    workloads = definitions["workloads"]
    e2e = definitions["end_to_end"]
    per_layer = definitions["per_layer"]
    names = [m["name"] for m in workloads + e2e + per_layer]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(set(names)) == len(names)
    assert all(UNIT.fullmatch(m["unit"]) for m in e2e + per_layer)
    assert all(len(w["why"]) <= 200 for w in workloads)
    assert all(0 < m["bound"] <= 0.25 for m in e2e)
    assert 2 <= len(workloads) <= 8
    assert len(e2e) <= 16 and len(per_layer) <= 128
    assert {w["name"]: w["why"] for w in workloads} == {
        n: w.why for n, w in suite.WORKLOADS.items()}
    assert {m["name"]: (m["unit"], m["better"]) for m in per_layer} == \
        layers.layer_metric_units()
    setup = next(m for m in e2e if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in e2e)


def test_smoke_run_is_correct_and_complete(smoke, definitions):
    line, doc = smoke
    assert line["correct"] and line["failed"] == 0, doc
    assert line["attempted"] == 2 * len(suite.WORKLOADS)
    layer_names = sorted(m["name"] for m in definitions["per_layer"])
    e2e_names = sorted(m["name"] for m in definitions["end_to_end"])
    for name, entry in doc["workloads"].items():
        assert sorted(entry["layers"]) == layer_names
        assert set(e2e_names) <= set(entry["metrics"])
        assert set(f"{name}/{m}" for m in layer_names) <= set(line["metrics"])


def test_tracer_leaves_outputs_byte_identical(smoke):
    """run.py fails a traced point whose digest differs from the untraced
    rep's; the digests must also match the committed seed-0 goldens."""
    _, doc = smoke
    goldens = json.loads((HERE / "goldens.json").read_text())["seeds"]["0"]
    for name, entry in doc["workloads"].items():
        assert entry["correct"] and not entry["problems"]
        for label, digest in entry["digests"].items():
            assert goldens[name][label] == digest


def test_layer_split_covers_the_traced_wall(smoke):
    _, doc = smoke
    for entry in doc["workloads"].values():
        values = {m: v["value"] for m, v in entry["layers"].items()}
        shares = [values[f"{layer}.share"] for layer in layers.LAYERS]
        assert min(shares) >= 0.0
        assert sum(shares) + values["trace.other_share"] == \
            pytest.approx(1.0, abs=1e-9)
        assert values["trace.other_share"] <= 0.01


def test_self_times_plus_residual_equal_traced_wall():
    """Nested timed calls are charged self time only, so the layers plus
    the ``sim`` residual add up to the wall time, none negative; a
    process whose name matches no family lands in ``other``."""
    from repro.sim.core import Simulator

    def app(sim):
        for _ in range(50):
            yield sim.timeout(1.0)

    def mystery(sim):
        for _ in range(20):
            yield 0.5

    untimed = Simulator.process
    with layers.traced() as clock:
        sim = Simulator()
        sim.process(app(sim), name="app-j1-r0")
        sim.process(mystery(sim), name="mystery")
        start = perf_counter()  # simlint: ignore[SIM001] -- host time of the traced run
        sim.run()
        summary = clock.summary(perf_counter() - start)  # simlint: ignore[SIM001] -- host time of the traced run
    assert Simulator.process is untimed
    assert summary["calls"]["fm.lib"] == 51
    assert summary["calls"][layers.OTHER] == 21
    assert layers.layer_of_process("mystery") == layers.OTHER
    assert min(summary["self_s"].values()) >= 0.0
    assert sum(summary["self_s"].values()) == \
        pytest.approx(summary["wall_s"], rel=1e-9)


def test_untraced_children_never_import_the_tracer():
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", str(HERE / "child.py"),
         "--workload", "gang_bw", "--seed", "0", "--smoke"],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    imported = {line.rsplit("|", 1)[-1].strip()
                for line in proc.stderr.splitlines() if "|" in line}
    assert "suite" in imported and "layers" not in imported


def test_refuses_to_run_without_the_package(tmp_path):
    """A directory holding only the benchmark exits non-zero, no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "gang_bw",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("a, b, raw_b, expected", [
    (10.0, 10.5, [10.4, 10.5, 10.6], "same"),
    (10.0, 12.0, [11.9, 12.0, 12.1], "worse"),
    (10.0, 8.0, [7.9, 8.0, 8.1], "better"),
    (10.0, 12.0, [8.0, 12.0, 16.0], "unresolved"),
    (10.0, 10.5, [9.0, 10.5, 12.0], "unresolved"),
    (10.0, 14.0, [12.0, 14.0, 20.0], "worse"),
])
def test_compare_verdicts(a, b, raw_b, expected):
    raw_a = [a - 0.1, a, a + 0.1]
    assert run.verdict(a, b, raw_a, raw_b, 0.10, "lower") == expected
    assert run.verdict(a, a, raw_a, raw_a, 0.0, "lower") == "same"
    assert run.verdict(0.0, 0.1, [], [], 0.0, "lower") == "worse"
