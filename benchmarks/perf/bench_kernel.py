"""DES-kernel microbenchmarks: events/sec per dispatch pattern.

Measures the kernel hot paths (see :mod:`repro.sim.bench`) and writes
``BENCH_des_kernel.json`` at the repo root, including the ratio against
the pre-optimisation seed kernel.

Methodology: GC disabled, best of ``REPS`` runs of ``N`` iterations
each — DES microbenchmarks are allocation-dominated, so *best-of* (not
mean) is the right statistic against scheduler noise.  The seed kernel
is **re-measured in the same run**: the harness extracts the seed tree
(``git archive`` of the seed commit) into a temp directory and executes
the *identical* workload source from ``src/repro/sim/bench.py`` against
it, one fresh subprocess per (tree, pattern, rep), the seed and current
children run back-to-back per pattern so both sides of each ratio see
the same thermal/turbo window.  The
workloads use only the public simulator API, which is unchanged since
the seed, so the comparison is apples-to-apples even for patterns the
seed tree never shipped a benchmark for.  If the seed commit is
unreachable (shallow checkout), recorded same-box constants are used
and the JSON says so in ``seed_source``.

The ``sleep`` row is the headline: every hardware/firmware model sleeps
through the kernel this way, so it bounds full-simulation throughput.
``--quick`` runs a reduced matrix against recorded seed constants (for
the CI perf-smoke step); ``--compare OLD.json`` prints report-only
warnings for >``--tolerance`` events/s regressions without failing.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"
sys.path.insert(0, str(SRC))

SEED_COMMIT = "369a02e"
N = 300_000
REPS = 3
PROFILE_STRIDE = 32

#: Recorded same-box seed constants (fallback when the seed commit is
#: unreachable), interleaved best-of on the same shapes.
SEED_RECORDED = {
    "sleep": 626_000,
    "timeout": 590_000,
    "chain": 583_000,
    "churn": 667_000,
    "same_instant_burst": 383_000,
    "far_horizon": 222_000,
}

#: Child process: run every pattern once against the tree whose ``src``
#: is argv[1], loading the workload definitions from *this* repo's
#: bench module so seed and current execute byte-identical workloads.
#: One wrinkle: the seed kernel predates bare-number sleeps, so on
#: trees that reject ``yield 1.0`` the ``sleep`` row falls back to the
#: ``yield sim.timeout()`` idiom — the seed's own canonical sleep form,
#: and exactly what the original recorded baseline measured.
_CHILD_SRC = """\
import gc, importlib.util, json, sys
sys.path.insert(0, sys.argv[1])
spec = importlib.util.spec_from_file_location("_bench_defs", sys.argv[2])
mod = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mod)
import repro.sim as _rs
def _bare_sleep_ok():
    sim = _rs.Simulator()
    def g():
        yield 0.0
    try:
        sim.run_until_processed(sim.process(g()))
        return True
    except Exception:
        return False
gc.disable()
name = sys.argv[3]
n = int(sys.argv[4])
fn = mod.KERNEL_BENCHMARKS[name]
if name == "sleep" and not _bare_sleep_ok():
    fn = mod.bench_timeout
fn(max(n // 8, 2000))  # warm-up: allocator arenas, code paths
print(json.dumps(max(fn(n), fn(n))))
"""


def _measure_pattern(src_path: Path, name: str, n: int) -> float:
    """One pattern, one run, in a fresh interpreter against a tree."""
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD_SRC, str(src_path),
         str(SRC / "repro" / "sim" / "bench.py"), name, str(n)],
        capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


def _extract_seed() -> Path | None:
    """Materialise the seed tree's ``src`` via git archive; None if unavailable."""
    try:
        tmp = Path(tempfile.mkdtemp(prefix="seedtree-"))
        tar = subprocess.run(
            ["git", "-C", str(REPO_ROOT), "archive", SEED_COMMIT],
            capture_output=True, check=True,
        )
        subprocess.run(["tar", "-x", "-C", str(tmp)], input=tar.stdout, check=True)
        return tmp / "src" if (tmp / "src" / "repro").is_dir() else None
    except (subprocess.CalledProcessError, OSError):
        return None


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="reduced matrix vs recorded seed constants (CI smoke)")
    ap.add_argument("--out", type=Path, default=REPO_ROOT / "BENCH_des_kernel.json")
    ap.add_argument("--compare", type=Path, default=None,
                    help="previous BENCH JSON; report (not fail) regressions")
    ap.add_argument("--tolerance", type=float, default=0.30,
                    help="events/s regression fraction that triggers a warning")
    args = ap.parse_args(argv)

    n = 60_000 if args.quick else N
    reps = 2 if args.quick else REPS

    seed_src = None if args.quick else _extract_seed()
    seed_source = "recorded" if seed_src is None else f"measured({SEED_COMMIT})"
    print(f"seed baseline: {seed_source}")

    from repro.sim.bench import KERNEL_BENCHMARKS
    patterns = list(KERNEL_BENCHMARKS)
    best_cur: dict[str, float] = {}
    best_seed: dict[str, float] = dict(SEED_RECORDED)
    for rep in range(reps):
        # Seed and current children run back-to-back per pattern, so
        # each ratio's numerator and denominator share one thermal
        # window — per-rep interleaving is too coarse on a box whose
        # clock swings 2x between windows.
        for name in patterns:
            if seed_src is not None:
                rate = _measure_pattern(seed_src, name, n)
                if rep == 0 or rate > best_seed[name]:
                    best_seed[name] = rate
            best_cur[name] = max(best_cur.get(name, 0.0),
                                 _measure_pattern(SRC, name, n))
        print(f"  rep {rep + 1}/{reps} done")

    results = {}
    for name, best in best_cur.items():
        baseline = best_seed[name]
        results[name] = {
            "events_per_sec": round(best),
            "seed_events_per_sec": round(baseline),
            "speedup": round(best / baseline, 2),
        }
        print(f"  {name:<18} {best:>12,.0f} events/s   "
              f"seed {baseline:>9,.0f}   x{best / baseline:.2f}")

    # Telemetry overhead: the sleep pattern with the sampling profiler
    # attached at the stride the sweeps use.  The telemetry-off number
    # must be unaffected (zero-cost-when-off).
    from repro.sim.bench import bench_sleep_profiled
    gc.disable()
    profiled = max(bench_sleep_profiled(n, stride=PROFILE_STRIDE)
                   for _ in range(reps))
    gc.enable()
    overhead = best_cur["sleep"] / profiled
    results["sleep_profiled"] = {
        "events_per_sec": round(profiled),
        "stride": PROFILE_STRIDE,
        "overhead_ratio_vs_off": round(overhead, 2),
    }
    print(f"  {'profiled':<18} {profiled:>12,.0f} events/s   "
          f"telemetry overhead x{overhead:.2f} (stride={PROFILE_STRIDE})")

    payload = {
        "benchmark": "des-kernel-microbench",
        "iterations": n,
        "reps": reps,
        "statistic": "best-of",
        "python": platform.python_version(),
        "seed_commit": SEED_COMMIT,
        "seed_source": seed_source,
        "same_instant_width": 4096,
        "results": results,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")

    if args.compare is not None and args.compare.exists():
        old = json.loads(args.compare.read_text())["results"]
        for name, entry in results.items():
            prev = old.get(name, {}).get("events_per_sec")
            if not prev:
                continue
            drop = 1.0 - entry["events_per_sec"] / prev
            if drop > args.tolerance:
                print(f"::warning::perf-smoke: {name} dropped "
                      f"{drop:.0%} vs committed ({entry['events_per_sec']:,} "
                      f"vs {prev:,} events/s)")
        print("compare: report-only, not failing the run")
        return 0

    if args.quick:
        return 0

    failed = []
    if results["sleep"]["speedup"] < 2.0:
        failed.append(f"sleep x{results['sleep']['speedup']} < 2.0")
    for name in ("chain", "churn"):
        if results[name]["speedup"] < 3.0:
            failed.append(f"{name} x{results[name]['speedup']} < 3.0")
    if results["sleep_profiled"]["overhead_ratio_vs_off"] >= 2.0:
        failed.append(
            f"profiled overhead x{results['sleep_profiled']['overhead_ratio_vs_off']} >= 2.0")
    if failed:
        print("FAIL: " + "; ".join(failed))
        return 1
    print("all kernel perf targets met")
    return 0


if __name__ == "__main__":
    sys.exit(main())
