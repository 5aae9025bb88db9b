"""One benchmark child: set up, optionally run one rep, report JSON.

The orchestrator (``run.py``) starts a fresh interpreter per rep so that
no rep inherits another's warm caches, and a few extra set-up-only
children to sample set-up time.  The child prints one JSON object on its
last stdout line:

- ``ready_at``: ``time.monotonic()`` once the workload's modules are
  imported and a first cluster is built (the parent subtracts its own
  reading taken just before the spawn; both read the system-wide
  monotonic clock);
- ``points``: per point, its host seconds, output digest, delivered data
  packets and failed checks (or the exception it raised);
- ``peak_rss_mb``: the child's peak resident set;
- ``layers``: with ``--traced``, the per-layer summary of
  :mod:`layers`, which only traced children import.

Usage: ``python child.py --workload NAME --seed N [--smoke] [--traced |
--setup-only]``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter  # simlint: ignore[SIM001] -- the benchmark measures host time by design

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

import suite  # noqa: E402


def run_point(workload: suite.Workload, point: suite.Point) -> dict:
    """Run and time one point; a point that raises is reported, not fatal."""
    entry = {"label": point.label}
    start = perf_counter()  # simlint: ignore[SIM001] -- the benchmark measures host time by design
    try:
        outcome = workload.run(point)
    except Exception as exc:  # the rep goes on; the parent counts the failure
        entry["seconds"] = perf_counter() - start  # simlint: ignore[SIM001] -- the benchmark measures host time by design
        entry["error"] = "".join(traceback.format_exception_only(exc)).strip()
        return entry
    entry["seconds"] = perf_counter() - start  # simlint: ignore[SIM001] -- the benchmark measures host time by design
    entry["digest"] = suite.digest(outcome.output)
    entry["data_pkts"] = outcome.data_pkts
    entry["problems"] = outcome.problems
    return entry


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(suite.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--smoke", action="store_true")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--traced", action="store_true")
    mode.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload = suite.WORKLOADS[args.workload]
    suite.setup(workload)
    report = {"ready_at": time.monotonic()}  # simlint: ignore[SIM001] -- set-up stamp, compared with the parent's spawn stamp
    if not args.setup_only:
        points = workload.points(args.seed)
        if args.smoke:
            points = [p for p in points if p.label == workload.smoke_label]
        if args.traced:
            import layers
            tracing = layers.traced()
        else:
            tracing = contextlib.nullcontext()
        with tracing as clock:
            report["points"] = []
            for point in points:
                report["points"].append(run_point(workload, point))
                if clock is not None:
                    clock.harvest()
            if clock is not None:
                wall = sum(p["seconds"] for p in report["points"])
                report["layers"] = clock.summary(wall)
    report["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
