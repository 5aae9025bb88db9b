"""End-to-end benchmark: four layer-separating workloads, host time by layer.

Run::

    python benchmarks/e2e/run.py [--workload NAME ...] [--seed N]
                                 [--reps R | --seconds S] [--trace 0|1]
                                 [--smoke] [--out FILE]
    python benchmarks/e2e/run.py compare A.json B.json
    python benchmarks/e2e/run.py goldens

Each rep of a workload runs in a fresh child interpreter (``child.py``);
reps go round-robin across the chosen workloads, one child at a time.
The first five rounds also start one set-up-only child per workload, so
set-up time has at least five samples besides the rep children's own.
With ``--trace 1`` one extra traced rep per workload follows the timed
reps and gives the per-layer metrics (:mod:`layers`).

A run prints every metric by name with its unit, checks each point's
output (see README.md for what makes a point fail), optionally writes
the full result to ``--out``, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metrics are the end-to-end ones with ``--trace 0`` and the
per-layer ones with ``--trace 1``; with several workloads each name is
prefixed ``WORKLOAD/``.  ``compare`` applies each metric's bound to two
``--out`` files and exits 1 on any regression.  ``goldens`` rewrites
``goldens.json``, the committed per-point output digests for seeds 0
and 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CHILD = HERE / "child.py"
GOLDENS = HERE / "goldens.json"
BENCHMARK = ROOT / "BENCHMARK.json"

sys.path.insert(0, str(HERE))
import layers  # noqa: E402
import suite  # noqa: E402

SETUP_SPAWNS = 5
DEFAULT_REPS = 5
CHILD_TIMEOUT_S = 170.0
GOLDEN_SEEDS = (0, 1)
#: failed / attempted operations.  It is normally 0, so it is not in
#: BENCHMARK.json (whose bounds are shares of the parent's value); the
#: contract line carries it as ``failed`` and ``attempted``, and
#: ``compare`` treats any rise as a regression.
FAIL_FRAC = "fail_frac"


# ---------------------------------------------------------------- children
def _spawn(workload: str, seed: int, *flags: str) -> tuple:
    """Run one child; returns (report or None, error message or None)."""
    command = [sys.executable, str(CHILD), "--workload", workload,
               "--seed", str(seed), *flags]
    spawned = time.monotonic()  # simlint: ignore[SIM001] -- set-up time is host time from spawn to the child's ready stamp
    try:
        proc = subprocess.run(command, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return None, f"child {' '.join(flags)} timed out"
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return None, f"child exited {proc.returncode}: {tail[0]}"
    report = json.loads(lines[-1])
    report["setup_s"] = report["ready_at"] - spawned
    return report, None


class Tally:
    """Everything measured for one workload in a run."""

    def __init__(self, name: str, golden: dict):
        self.name = name
        self.golden = golden                 # label -> committed digest
        self.seconds: dict = {}              # label -> [host seconds]
        self.reference: dict = {}            # label -> (digest, data pkts)
        self.rep_totals: list = []
        self.setup_s: list = []
        self.peak_rss_mb: list = []
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.traced: dict = {}               # the traced rep's layer summary

    def fail(self, message: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.problems.append(message)

    def _check(self, entry: dict, traced: bool) -> bool:
        label = entry["label"]
        problems = []
        if "error" in entry:
            problems.append(entry["error"])
        else:
            problems.extend(entry["problems"])
            digest, pkts = self.reference.setdefault(
                label, (entry["digest"], entry["data_pkts"]))
            golden = self.golden.get(label)
            if golden is not None and entry["digest"] != golden:
                problems.append("digest differs from goldens.json")
            if entry["digest"] != digest:
                problems.append("traced digest differs from untraced"
                                if traced else "digest differs between reps")
            if entry["data_pkts"] != pkts:
                problems.append("data packet count differs between reps")
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{label}: {'; '.join(problems)}")
        return not problems

    def record(self, report: dict, traced: bool = False) -> None:
        ok = [self._check(entry, traced) for entry in report["points"]]
        if traced:
            summary = report["layers"]
            pkts = sum(e.get("data_pkts", 0) for e in report["points"])
            if summary["counts"]["delivered"] != pkts:
                self.fail(f"traced rep: clusters delivered "
                          f"{summary['counts']['delivered']} data packets, "
                          f"outputs say {pkts}")
            self.traced = summary
            return
        self.setup_s.append(report["setup_s"])
        self.peak_rss_mb.append(report["peak_rss_mb"])
        for entry, passed in zip(report["points"], ok):
            if passed:
                self.seconds.setdefault(entry["label"], []).append(
                    entry["seconds"])
        if all(ok):
            self.rep_totals.append(sum(e["seconds"]
                                       for e in report["points"]))

    # ------------------------------------------------------------ metrics
    def data_pkts(self) -> int:
        return sum(pkts for _, pkts in self.reference.values())

    def wall_s(self) -> float:
        """Sum over points of each point's best host seconds."""
        return sum(min(samples) for samples in self.seconds.values())

    def metrics(self) -> dict:
        wall = self.wall_s()
        return {
            "wall_s": wall,
            "pkts_per_s": self.data_pkts() / wall if wall else 0.0,
            "setup_s": statistics.median(self.setup_s) if self.setup_s
            else 0.0,
            "peak_rss_mb": max(self.peak_rss_mb, default=0.0),
            FAIL_FRAC: self.failed / self.attempted if self.attempted
            else 1.0,
        }

    def raw(self) -> dict:
        """Per-sample values of each metric, for the quartile rule."""
        pkts = self.data_pkts()
        return {
            "wall_s": self.rep_totals,
            "pkts_per_s": [pkts / t for t in self.rep_totals],
            "setup_s": self.setup_s,
            "peak_rss_mb": self.peak_rss_mb,
        }

    def layer_metrics(self) -> dict:
        if not self.traced or not self.rep_totals:
            return {}
        return layers.layer_metrics(self.traced,
                                    statistics.median(self.rep_totals))

    @property
    def correct(self) -> bool:
        return self.failed == 0 and bool(self.seconds)


def measure(names: list, seed: int, reps: dict, trace: bool, smoke: bool,
            goldens: dict) -> dict:
    """Run the reps round-robin, then the traced reps; returns Tallies."""
    tallies = {n: Tally(n, goldens.get(n, {})) for n in names}
    flags = ("--smoke",) if smoke else ()
    setup_spawns = 0 if smoke else SETUP_SPAWNS
    for rnd in range(max(max(reps.values()), setup_spawns)):
        for name in names:
            tally = tallies[name]
            if rnd < setup_spawns:
                report, error = _spawn(name, seed, "--setup-only")
                if error:
                    tally.fail(f"set-up child: {error}")
                else:
                    tally.attempted += 1
                    tally.setup_s.append(report["setup_s"])
            if rnd < reps[name]:
                report, error = _spawn(name, seed, *flags)
                if error:
                    tally.fail(f"rep {rnd}: {error}")
                else:
                    tally.record(report)
    if trace:
        for name in names:
            report, error = _spawn(name, seed, "--traced", *flags)
            if error:
                tallies[name].fail(f"traced rep: {error}")
            else:
                tallies[name].record(report, traced=True)
    return tallies


# ---------------------------------------------------------------- reporting
def load_json(path: Path) -> dict:
    with open(path) as f:
        return json.load(f)


def end_to_end_defs() -> dict:
    """name -> BENCHMARK.json entry, plus the absolute-bound fail_frac."""
    defs = {m["name"]: m for m in load_json(BENCHMARK)["end_to_end"]}
    defs[FAIL_FRAC] = {"name": FAIL_FRAC, "unit": "ratio",
                       "better": "lower", "bound": 0.0}
    return defs


def quartiles(values: list) -> dict:
    """Median, quartiles (``statistics.quantiles``, n=4) and count."""
    if len(values) < 2:
        mid = values[0] if values else 0.0
        return {"median": mid, "q1": mid, "q3": mid, "n": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def result_doc(tallies: dict, args, reps: dict) -> dict:
    defs = end_to_end_defs()
    unit_of = layers.layer_metric_units()
    workloads = {}
    for name, tally in tallies.items():
        raw = tally.raw()
        layer_values = tally.layer_metrics()
        workloads[name] = {
            "metrics": {m: {"value": v, "unit": defs[m]["unit"]}
                        for m, v in tally.metrics().items()},
            "layers": {m: {"value": v, "unit": unit_of[m][0]}
                       for m, v in layer_values.items()},
            "spread": {m: quartiles(v) for m, v in raw.items()},
            "raw": {**raw, "points": tally.seconds},
            "digests": {label: ref[0]
                        for label, ref in sorted(tally.reference.items())},
            "data_pkts": tally.data_pkts(),
            "correct": tally.correct,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "problems": tally.problems,
        }
    return {
        "schema": "repro-e2e/1",
        "manifest": {
            "seed": args.seed,
            "commit": _commit(),
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "machine": platform.machine(),
            "reps": reps,
            "setup_spawns": 0 if args.smoke else SETUP_SPAWNS,
            "smoke": args.smoke,
            "trace": bool(args.trace),
            "workers": 1,
        },
        "workloads": workloads,
    }


def print_report(doc: dict, trace: bool) -> dict:
    """Print every metric; returns the contract line's metrics."""
    names = list(doc["workloads"])
    benchmark_e2e = [m["name"] for m in load_json(BENCHMARK)["end_to_end"]]
    contract = {}
    for name in names:
        entry = doc["workloads"][name]
        rows = list(entry["metrics"].items()) + list(entry["layers"].items())
        for metric, value in rows:
            print(f"{name:<14} {metric:<26} {value['value']:>16.6g} "
                  f"{value['unit']}")
        for problem in entry["problems"]:
            print(f"{name:<14} FAILED {problem}")
        chosen = entry["layers"] if trace else {
            m: entry["metrics"][m] for m in benchmark_e2e}
        prefix = f"{name}/" if len(names) > 1 else ""
        contract.update({prefix + m: v for m, v in chosen.items()})
    return contract


# ---------------------------------------------------------------- compare
def verdict(a_value: float, b_value: float, a_raw: list, b_raw: list,
            bound: float, better: str) -> str:
    """better / same / worse / unresolved for one (metric, workload).

    The change is B's value relative to A's; inside the bound it is
    parity.  When either side's quartile spread (as a share of its
    median, unknown below two samples) exceeds the bound, the pair is
    unresolved, unless the change is beyond the bound and every B
    sample lies beyond every A sample in its direction.
    """
    sign = 1.0 if better == "lower" else -1.0
    if bound == 0.0:   # absolute bound: any worsening is a regression
        change = sign * (b_value - a_value)
        return "worse" if change > 0 else "better" if change < 0 else "same"
    change = sign * (b_value - a_value) / a_value if a_value else 0.0
    verdict = ("worse" if change > bound else "better" if change < -bound
               else "same")
    spreads = []
    for raw in (a_raw, b_raw):
        q = quartiles(raw)
        spreads.append((q["q3"] - q["q1"]) / q["median"]
                       if q["n"] >= 2 and q["median"] else float("inf"))
    if max(spreads) <= bound:
        return verdict
    direction = 1.0 if verdict == "worse" else -1.0
    if (verdict != "same" and min(len(a_raw), len(b_raw)) >= 2
            and all(direction * sign * (b - a) > 0
                    for b in b_raw for a in a_raw)):
        return verdict
    return "unresolved"


def compare(path_a: str, path_b: str) -> int:
    a_doc, b_doc = load_json(Path(path_a)), load_json(Path(path_b))
    defs = end_to_end_defs()
    worse = 0
    print(f"{'workload':<14} {'metric':<12} {'A':>12} {'B':>12} "
          f"{'change':>8}  verdict")
    for name, a in a_doc["workloads"].items():
        b = b_doc["workloads"].get(name)
        if b is None:
            print(f"{name:<14} missing from {path_b}")
            continue
        for metric, spec in defs.items():
            a_value = a["metrics"][metric]["value"]
            b_value = b["metrics"][metric]["value"]
            result = verdict(a_value, b_value, a["raw"].get(metric, []),
                             b["raw"].get(metric, []), spec["bound"],
                             spec["better"])
            worse += result == "worse"
            change = ((b_value - a_value) / a_value * 100 if a_value
                      else 0.0)
            print(f"{name:<14} {metric:<12} {a_value:>12.6g} "
                  f"{b_value:>12.6g} {change:>+7.1f}%  {result}")
    return 1 if worse else 0


# ---------------------------------------------------------------- entry
def _reps_for(names: list, args) -> dict:
    if args.smoke:
        return dict.fromkeys(names, 1)
    if args.reps is not None:
        return dict.fromkeys(names, args.reps)
    if args.seconds is not None:
        return {n: max(2, round(args.seconds / suite.WORKLOADS[n].rep_seconds))
                for n in names}
    return dict.fromkeys(names, DEFAULT_REPS)


def write_goldens() -> int:
    seeds = {}
    for seed in GOLDEN_SEEDS:
        tallies = measure(list(suite.WORKLOADS), seed,
                          dict.fromkeys(suite.WORKLOADS, 1), trace=False,
                          smoke=False, goldens={})
        for tally in tallies.values():
            if not tally.correct:
                print(f"seed {seed} {tally.name}: {tally.problems}",
                      file=sys.stderr)
                return 1
        seeds[str(seed)] = {name: {label: ref[0] for label, ref
                                   in sorted(t.reference.items())}
                            for name, t in tallies.items()}
    GOLDENS.write_text(json.dumps({"seeds": seeds}, indent=1,
                                  sort_keys=True) + "\n")
    print(f"wrote {GOLDENS}")
    return 0


def main(argv: list) -> int:
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare A.json B.json", file=sys.stderr)
            return 2
        return compare(argv[1], argv[2])
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if argv[:1] == ["goldens"]:
        return write_goldens()

    parser = argparse.ArgumentParser(
        description="End-to-end benchmark (see module docstring).")
    parser.add_argument("--workload", action="append",
                        choices=list(suite.WORKLOADS),
                        help="repeatable; default: all four")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--reps", type=int,
                        help=f"timed reps per workload (default "
                             f"{DEFAULT_REPS})")
    parser.add_argument("--seconds", type=float,
                        help="size the reps to about this many seconds "
                             "per workload; --reps wins")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="1: add the traced rep and report per-layer "
                             "metrics on the last line")
    parser.add_argument("--smoke", action="store_true",
                        help="smallest point per workload, 1 rep")
    parser.add_argument("--out", help="write the full result JSON here")
    args = parser.parse_args(argv)
    if args.reps is not None and args.reps < 1:
        parser.error("--reps must be at least 1")

    names = args.workload or list(suite.WORKLOADS)
    reps = _reps_for(names, args)
    goldens = load_json(GOLDENS)["seeds"].get(str(args.seed), {})
    tallies = measure(names, args.seed, reps, bool(args.trace), args.smoke,
                      goldens)
    doc = result_doc(tallies, args, reps)
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    contract = print_report(doc, bool(args.trace))
    attempted = sum(t.attempted for t in tallies.values())
    failed = sum(t.failed for t in tallies.values())
    correct = all(t.correct for t in tallies.values())
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": contract}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))  # simlint: ignore[SIM009] -- the entry point is the one place that reads argv
