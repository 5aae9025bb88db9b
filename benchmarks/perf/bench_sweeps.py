"""End-to-end sweep benchmark: wall-clock for the Figure 6 surface.

Times the full default Figure 6 sweep (48 hermetic cluster simulations)
serially and through the parallel executor, verifies the two produce
byte-identical results, and writes ``BENCH_sweeps.json`` at the repo
root with ratios against the seed tree's serial run.

The seed baseline is **re-measured in the same run**, mirroring
``bench_kernel.py``: the harness extracts the seed tree (``git
archive`` of the seed commit) into a temp directory and times its
serial sweep in a fresh subprocess, interleaved with the current
tree's, taking the best of the repetitions for each.  Container timing
noise on this box is large (clock speed swings 15-40% between windows),
so an interleaved same-window A/B with best-of reps is the only
comparison that holds up run to run; a recorded constant from an
earlier window does not.  If the seed commit is unavailable (shallow
clone), the harness falls back to the recorded same-box constant and
``seed_source`` in the JSON says so.

Both timing children warm up on a one-job sweep first and disable the
cyclic GC around the timed region (the workload allocates no cycles on
the hot path; both trees get the identical treatment).

The acceptance gate is the better of the serial and parallel speedups
reaching 2x.  The requested workers are capped at ``os.cpu_count()``
with :func:`repro.experiments.common.effective_workers`, exactly as the
CLI caps ``-j`` — on a single-core box the "parallel" run therefore
takes the serial in-process path instead of paying process-pool
overhead for nothing (the regression the earlier BENCH_sweeps.json
recorded: 42.41 s parallel vs 39.03 s serial at ``cpu_count: 1``).  The
JSON records both the requested and the effective worker count.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.experiments.common import effective_workers  # noqa: E402
from repro.experiments.figure6 import run_figure6  # noqa: E402

SEED_COMMIT = "369a02e"
#: Recorded same-box seed constant (fallback when the seed commit is
#: unavailable): best of the observed runs 85.9, 87.0, 98.2, 100.5 s.
SEED_RECORDED_SECONDS = 85.9
WORKERS = 4
#: Interleaved timing reps: (current, seed) pairs; best-of is kept for
#: both sides so a slow scheduler window hits them symmetrically.
CURRENT_REPS = 3
SEED_REPS = 2

#: Timing child: warm up on a one-job sweep, then time the default
#: sweep with the cyclic GC off.  The seed tree's ``run_figure6`` takes
#: no ``workers`` argument, so the child calls the zero-arg form both
#: trees share.
_CHILD = """\
import gc, sys, time
sys.path.insert(0, sys.argv[1])
from repro.experiments.figure6 import run_figure6
run_figure6(jobs=(1,))
gc.disable()
t0 = time.perf_counter()
run_figure6()
print(time.perf_counter() - t0)
"""


def _extract_seed() -> Path | None:
    """Materialise the seed tree's ``src`` via git archive; None if unavailable."""
    try:
        tmp = Path(tempfile.mkdtemp(prefix="seedsweep-"))
        archive = subprocess.run(
            ["git", "-C", str(REPO_ROOT), "archive", SEED_COMMIT],
            check=True, capture_output=True,
        )
        subprocess.run(["tar", "-x", "-C", str(tmp)],
                       input=archive.stdout, check=True)
        return tmp / "src"
    except (subprocess.CalledProcessError, OSError):
        return None


def _time_sweep(src: Path) -> float:
    out = subprocess.run([sys.executable, "-c", _CHILD, str(src)],
                         check=True, capture_output=True, text=True)
    return float(out.stdout.strip())


def main() -> int:
    seed_src = _extract_seed()
    seed_source = ("recorded" if seed_src is None
                   else f"measured({SEED_COMMIT})")
    print(f"seed baseline: {seed_source}")

    current_src = REPO_ROOT / "src"
    serial_s = float("inf")
    seed_s = SEED_RECORDED_SECONDS if seed_src is None else float("inf")
    for rep in range(max(CURRENT_REPS, SEED_REPS)):
        if rep < CURRENT_REPS:
            serial_s = min(serial_s, _time_sweep(current_src))
        if seed_src is not None and rep < SEED_REPS:
            seed_s = min(seed_s, _time_sweep(seed_src))
        print(f"  rep {rep}: current best {serial_s:6.1f} s, "
              f"seed best {seed_s:6.1f} s")

    # Identity + parallel timing run in-process: the executor needs the
    # results in hand to compare.  run_points honours the worker count it
    # is given, so the CPU cap is applied here, as the CLI applies it.
    effective = effective_workers(WORKERS)
    serial = run_figure6(workers=1)
    t0 = time.perf_counter()  # simlint: ignore[SIM001] -- benchmark measures host wall time by design
    parallel = run_figure6(workers=effective)
    parallel_s = time.perf_counter() - t0  # simlint: ignore[SIM001] -- benchmark measures host wall time by design

    identical = serial == parallel
    serial_speedup = seed_s / serial_s
    parallel_speedup = seed_s / parallel_s
    print(f"  serial        {serial_s:7.1f} s   "
          f"(seed {seed_s:.1f} s, x{serial_speedup:.2f})")
    print(f"  --jobs {WORKERS}      {parallel_s:7.1f} s   "
          f"(x{parallel_speedup:.2f} vs seed serial, "
          f"effective workers {effective})")
    print(f"  serial == parallel: {identical}")
    if effective == 1:
        print("  note: single-core box — the worker cap routes the "
              "parallel run through the serial in-process path")
    if seed_src is not None:
        shutil.rmtree(seed_src.parent, ignore_errors=True)

    payload = {
        "benchmark": "figure6-sweep-wallclock",
        "points": len(serial),
        "workers": WORKERS,
        "effective_workers": effective,
        "current_reps": CURRENT_REPS,
        "seed_reps": SEED_REPS,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "seed_commit": SEED_COMMIT,
        "seed_source": seed_source,
        "seed_serial_seconds": round(seed_s, 2),
        "serial_seconds": round(serial_s, 2),
        "parallel_seconds": round(parallel_s, 2),
        "serial_speedup_vs_seed": round(serial_speedup, 2),
        "parallel_speedup_vs_seed": round(parallel_speedup, 2),
        "parallel_identical_to_serial": identical,
    }
    out = REPO_ROOT / "BENCH_sweeps.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out}")

    if not identical:
        print("FAIL: parallel sweep results differ from serial")
        return 1
    if max(serial_speedup, parallel_speedup) < 2.0:
        print("FAIL: sweep is not 2x faster than the seed serial run")
        return 1
    print("sweep targets met")
    return 0


if __name__ == "__main__":
    sys.exit(main())
