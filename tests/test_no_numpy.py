"""The simulation path runs without importing numpy.

numpy is only needed for the two rare draws that ``repro.sim.rand``
delegates to it (SRAM-flip arrivals and fail-stop victims).  A fresh
interpreter runs one small point of each kind the end-to-end benchmark
times (a Figure 6 cell, a burst workload under the Occamy policy, a
lossy chaos point with the auditor on, an ``explain`` cell) and then
checks that numpy never got imported.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import sys

from repro.experiments.figure6 import run_figure6
from repro.faults.chaos import ChaosPoint, run_chaos_point
from repro.fm.config import FMConfig
from repro.parpar.cluster import ClusterConfig, ParParCluster
from repro.parpar.job import JobSpec
from repro.telemetry.explain import run_explain
from repro.workloads.synthetic import burst_benchmark, uniform_random_benchmark

run_figure6(jobs=(2,), message_sizes=(1536,), quanta_per_job=1.0)

cluster = ParParCluster(ClusterConfig(
    num_nodes=4, time_slots=2, quantum=0.002, seed=3,
    fm=FMConfig(max_contexts=2, num_processors=4, buffer_policy="occamy")))
jobs = [cluster.submit(JobSpec("burst", 4, burst_benchmark(5, 1, 256))),
        cluster.submit(JobSpec("random", 4, uniform_random_benchmark(5, 256)))]
cluster.run_until_finished(jobs)
assert all(job.is_finished for job in jobs)
assert cluster.masterd.switches_completed  # control-Ethernet skew draws

report = run_chaos_point(ChaosPoint(seed=1, drop=0.05, dup=0.02,
                                    jitter=0.1, rounds=4, audit=True))
assert report["error"] is None and report["audit"]["ok"], report
assert report["injected"]["drops"] and report["injected"]["jitters"]

(result,) = run_explain(jobs=(2,), message_sizes=(1536,), messages=4)
assert result["point"]["complete"]

loaded = sorted(m for m in sys.modules if m == "numpy" or m.startswith("numpy."))
print(loaded)
"""


def test_simulation_path_does_not_import_numpy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"
