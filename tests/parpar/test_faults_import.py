"""Runs without faults load no part of the faults layer, and untraced
runs no part of the telemetry layer.

``ParParCluster`` imports ``repro.faults`` only in the branches that
inject faults or load the reliability firmware, and ``repro.telemetry``
only when the run is traced.  A fresh interpreter runs a Figure 6 cell
and a burst workload under the Occamy policy and then checks which of
those modules got imported.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

SCRIPT = """
import sys

from repro.experiments.figure6 import run_figure6
from repro.fm.config import FMConfig
from repro.parpar.cluster import ClusterConfig, ParParCluster
from repro.parpar.job import JobSpec
from repro.workloads.synthetic import burst_benchmark

run_figure6(jobs=(2,), message_sizes=(1536,), quanta_per_job=1.0)
print(sorted(m for m in sys.modules if m.startswith("repro.telemetry")))

cluster = ParParCluster(ClusterConfig(
    num_nodes=4, time_slots=2, quantum=0.002, seed=3,
    fm=FMConfig(max_contexts=2, num_processors=4, buffer_policy="occamy")))
jobs = [cluster.submit(JobSpec("burst", 4, burst_benchmark(5, 1, 256)))]
cluster.run_until_finished(jobs)
assert all(job.is_finished for job in jobs)

print(sorted(m for m in sys.modules if m.startswith("repro.faults")))
"""


@pytest.fixture(scope="module")
def loaded_modules():
    """The script's two printed lines: telemetry modules after the Figure
    6 cell, then faults modules after both runs."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-2:]


def test_runs_without_faults_do_not_import_the_faults_layer(loaded_modules):
    assert loaded_modules[1] == "[]"


def test_untraced_figure6_cell_does_not_import_the_telemetry_layer(
        loaded_modules):
    assert loaded_modules[0] == "[]"
