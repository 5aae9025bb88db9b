"""Command-line experiment runner: ``python -m repro <figure> [options]``.

Regenerates any of the paper's figures from the shell without pytest:

    python -m repro figure5 --contexts 1 2 4 8 --sizes 1024 16384
    python -m repro figure7 --nodes 2 8 16
    python -m repro headline
    python -m repro list
"""

from __future__ import annotations

import argparse
import json
import sys
from operator import attrgetter
from typing import Callable, NamedTuple

#: Mirror of ``repro.faults.strategies.STRATEGY_NAMES`` — inlined so
#: building the parser stays import-free; a test pins the two in sync.
STRATEGY_CHOICES = ("per-packet", "cumulative", "nack", "adaptive")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--quantum", type=float, default=None,
                        help="gang quantum in seconds (scaled; see DESIGN.md)")


def _add_telemetry(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--telemetry", metavar="OUT.json", default=None,
                        help="enable the unified telemetry layer and write "
                             "the merged snapshot (all sweep points) here")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate figures from Etsion & Feitelson, IPPS 2001.",
    )
    parser.add_argument("-j", "--jobs", dest="workers", type=int, default=1,
                        metavar="N",
                        help="run sweep points on N worker processes "
                             "(before the subcommand; results are "
                             "bit-identical to a serial run)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    p5 = sub.add_parser("figure5", help="bandwidth collapse, static partition")
    p5.add_argument("--contexts", type=int, nargs="+",
                    default=list(range(1, 9)))
    p5.add_argument("--sizes", type=int, nargs="+", default=None)
    p5.add_argument("--packets", type=int, default=800,
                    help="target packets per data point")
    _add_telemetry(p5)

    p6 = sub.add_parser("figure6", help="total bandwidth, buffer switching")
    p6.add_argument("--jobs", type=int, nargs="+", default=[1, 2, 4, 8])
    p6.add_argument("--sizes", type=int, nargs="+", default=None)
    _add_common(p6)
    _add_telemetry(p6)

    pp = sub.add_parser("figure_policies",
                        help="buffer policy comparison: bandwidth vs jobs")
    pp.add_argument("--policies", nargs="+", default=None,
                    help="policy arms to sweep (default: all five)")
    pp.add_argument("--jobs", type=int, nargs="+", default=None,
                    help="competing job counts (default: 1 2 4 8)")
    pp.add_argument("--sizes", type=int, nargs="+", default=None,
                    help="message sizes in bytes (default: 1536)")
    pp.add_argument("--seed", type=int, default=0)
    pp.add_argument("--out", metavar="BENCH.json", default=None,
                    help="write the benchmark JSON document here")
    pp.add_argument("--smoke", action="store_true",
                    help="CI preset: small sweep, then re-run on a "
                         "2-worker pool and require byte-identical "
                         "results; exit non-zero otherwise")
    _add_common(pp)
    _add_telemetry(pp)

    pfr = sub.add_parser(
        "figure_reliability",
        help="reliability strategy comparison: goodput vs drop rate")
    pfr.add_argument("--strategies", nargs="+", default=None,
                     choices=STRATEGY_CHOICES,
                     help="strategy arms to sweep (default: all four)")
    pfr.add_argument("--drops", type=float, nargs="+", default=None,
                     help="packet drop rates (default: 0 0.02 0.05 0.1)")
    pfr.add_argument("--rounds", type=int, default=None,
                     help="all-to-all rounds per point (default: 20)")
    pfr.add_argument("--seed", type=int, default=0)
    pfr.add_argument("--out", metavar="BENCH.json", default=None,
                     help="write the benchmark JSON document here")
    pfr.add_argument("--smoke", action="store_true",
                     help="CI preset: small sweep over every arm, then "
                          "re-run on a 2-worker pool and require "
                          "byte-identical results; exit non-zero otherwise")
    _add_telemetry(pfr)

    for name, help_text in (("figure7", "switch stages, full copy"),
                            ("figure9", "switch stages, valid-only copy")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--nodes", type=int, nargs="+", default=[2, 4, 8, 16])
        p.add_argument("--switches", type=int, default=10)
        _add_telemetry(p)

    p8 = sub.add_parser("figure8", help="buffer occupancy at switch time")
    p8.add_argument("--nodes", type=int, nargs="+", default=[2, 4, 8, 16])
    p8.add_argument("--switches", type=int, default=10)
    _add_telemetry(p8)

    sub.add_parser("headline", help="Sec 4.2 headline overhead bounds")
    pn = sub.add_parser("nicmem", help="NIC memory sufficiency (Sec 4.1)")
    _add_telemetry(pn)
    sub.add_parser("perf", help="kernel performance smoke check")

    pt = sub.add_parser(
        "telemetry",
        help="traced gang-switch demo: Chrome trace + metrics snapshot")
    pt.add_argument("--out", metavar="TRACE.json", default=None,
                    help="Chrome trace_event output "
                         "(default: repro_trace.json)")
    pt.add_argument("--metrics", metavar="SNAP.json", default=None,
                    help="also write the unified snapshot JSON here")
    pt.add_argument("--nodes", type=int, default=4)
    pt.add_argument("--switches", type=int, default=4)
    pt.add_argument("--seed", type=int, default=0)
    pt.add_argument("--smoke", action="store_true",
                    help="CI preset: validate the snapshot against the "
                         "checked-in schema and require a complete "
                         "halt/swap/release switch; exit non-zero otherwise")

    px = sub.add_parser(
        "explain",
        help="causal latency attribution: where every microsecond went")
    px.add_argument("--jobs", type=int, nargs="+", default=[1, 2, 4],
                    help="competing gang-scheduled jobs per point")
    px.add_argument("--sizes", type=int, nargs="+", default=[1536],
                    help="message sizes in bytes")
    px.add_argument("--messages", type=int, default=None,
                    help="messages per job (default: sized to ~3 quanta)")
    px.add_argument("--policy", default=None,
                    help="buffer-sharing policy arm (adds reallocation "
                         "spans; see 'figure_policies')")
    px.add_argument("--seed", type=int, default=0)
    px.add_argument("--trace", metavar="TRACE.json", default=None,
                    help="analyze a saved repro-trace/1 document instead "
                         "of running the simulation")
    px.add_argument("--save-trace", dest="save_trace", metavar="OUT.json",
                    default=None,
                    help="write the normalized record streams here "
                         "(re-ingestable with --trace)")
    px.add_argument("--json", dest="json_out", metavar="OUT.json",
                    default=None,
                    help="write the repro-explain/1 attribution summary")
    px.add_argument("--chrome", metavar="OUT.json", default=None,
                    help="write a Chrome trace_event file with flow "
                         "arrows for the last point")
    px.add_argument("--top", type=int, default=5,
                    help="exemplar messages per point in the JSON summary")
    px.add_argument("--smoke", action="store_true",
                    help="CI preset: small sweep, serial vs -j2 must be "
                         "byte-identical and every cause partition must "
                         "sum exactly; exit non-zero otherwise")
    _add_common(px)

    pc = sub.add_parser("chaos", help="fault-injection campaign + safety audit")
    pc.add_argument("--seed", type=int, default=0)
    pc.add_argument("--runs", type=int, default=1,
                    help="independent seeded runs (fan out with -j)")
    pc.add_argument("--nodes", type=int, default=4)
    pc.add_argument("--slots", type=int, default=2)
    pc.add_argument("--chaos-jobs", type=int, default=2, dest="chaos_jobs",
                    help="gang-scheduled all-to-all jobs (<= slots)")
    pc.add_argument("--rounds", type=int, default=30)
    pc.add_argument("--size", type=int, default=1024,
                    help="all-to-all message size in bytes")
    pc.add_argument("--quantum", type=float, default=0.004)
    pc.add_argument("--drop", type=float, default=0.0)
    pc.add_argument("--dup", type=float, default=0.0)
    pc.add_argument("--corrupt", type=float, default=0.0)
    pc.add_argument("--jitter", type=float, default=0.0)
    pc.add_argument("--sram", type=float, default=0.0,
                    help="SRAM bit flips per second per node")
    pc.add_argument("--stall", type=float, default=0.0,
                    help="per-switch daemon stall probability")
    pc.add_argument("--crash", type=float, default=0.0,
                    help="per-switch daemon crash probability")
    pc.add_argument("--failstop", type=int, default=0, metavar="N",
                    help="kill N nodes fail-stop at seed-drawn times; jobs "
                         "shrink to nodes/2 ranks so some survive")
    pc.add_argument("--rejoin", action="store_true",
                    help="restart each killed node 5 quanta after its death "
                         "and reintegrate it")
    pc.add_argument("--requeue", action="store_true",
                    help="requeue jobs that lose a rank instead of killing "
                         "them (falls back to kill without capacity)")
    pc.add_argument("--strategy", choices=STRATEGY_CHOICES,
                    default="per-packet",
                    help="ACK/NACK reliability strategy on every NIC "
                         "(default: per-packet)")
    pc.add_argument("--no-audit", action="store_true",
                    help="inject faults without the invariant auditor")
    pc.add_argument("--smoke", action="store_true",
                    help="fast CI preset; exits non-zero on any violation "
                         "(combine with --failstop for the recovery preset)")
    _add_telemetry(pc)

    pl = sub.add_parser(
        "lint",
        help="simlint: determinism & protocol-safety static analysis")
    pl.add_argument("paths", nargs="*", default=None, metavar="PATH",
                    help="files or directories to lint "
                         "(default: the repro package)")
    pl.add_argument("--fail-on", choices=("error", "warning"),
                    default="error", dest="fail_on",
                    help="exit non-zero on any finding at or above this "
                         "severity")
    pl.add_argument("--out", metavar="REPORT.json", default=None,
                    help="also write the JSON report here (CI artifact)")

    pr = sub.add_parser(
        "racecheck",
        help="dynamic buffer-ownership race detector over fault presets")
    pr.add_argument("--preset", choices=("chaos", "failstop"),
                    default="chaos",
                    help="which fault campaign to monitor")
    pr.add_argument("--seed", type=int, default=0)
    pr.add_argument("--plant", action="store_true",
                    help="schedule a deliberate out-of-ownership-window "
                         "access (positive control; expects 1 race)")
    pr.add_argument("--plant-kind",
                    choices=("stored-access", "halted-send", "sram-stored"),
                    default="stored-access", dest="plant_kind",
                    help="which race class the planted probe commits "
                         "(with --plant)")
    pr.add_argument("--smoke", action="store_true",
                    help="CI gate: clean chaos+failstop presets must show "
                         "zero races, a planted access must be caught, "
                         "and monitoring must leave outputs bit-identical")
    pr.add_argument("--out", metavar="REPORT.json", default=None,
                    help="write the JSON report here (CI artifact)")
    return parser


EXPERIMENTS = {
    "figure5": "Fig. 5  bandwidth vs size x contexts, static FM division",
    "figure6": "Fig. 6  total bandwidth vs size x jobs, buffer switching",
    "figure_policies": "buffer policy comparison: bandwidth vs competing jobs",
    "figure_reliability": "reliability strategy comparison: goodput vs drop rate",
    "figure7": "Fig. 7  switch stage cycles vs nodes, full copy",
    "figure8": "Fig. 8  valid packets in buffers at switch time",
    "figure9": "Fig. 9  switch stage cycles vs nodes, valid-only copy",
    "headline": "Sec 4.2 headline overhead bounds",
    "nicmem": "Sec 4.1 NIC memory sufficiency",
    "perf": "DES kernel performance smoke check",
    "explain": "causal latency attribution + critical-path waterfalls",
    "chaos": "fault-injection campaign with no-loss/no-dup safety audit",
    "telemetry": "traced gang-switch demo (Chrome trace + metrics snapshot)",
    "lint": "simlint determinism & protocol-safety static analysis",
    "racecheck": "dynamic buffer-ownership race detector (gang-switch protocol)",
}


def _write_json(path: str, doc, **dump_kwargs) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, **dump_kwargs)
        fh.write("\n")


def _write_merged_telemetry(path: str, snapshots) -> None:
    """Merge per-point snapshots and write the aggregate (validated)."""
    from repro.telemetry.schema import validate_snapshot
    from repro.telemetry.session import merge_unified_snapshots

    merged = merge_unified_snapshots(s for s in snapshots if s is not None)
    problems = validate_snapshot(merged)
    if problems:  # pragma: no cover - contract drift is a bug
        raise RuntimeError("telemetry snapshot violates schema: "
                           + "; ".join(problems))
    _write_json(path, merged, indent=2, sort_keys=True)
    print(f"telemetry snapshot written to {path}")


class _Sweep(NamedTuple):
    """One sweep verb, as far as it differs from the others.

    ``run(workers)`` returns the results, the verb's ``--smoke`` preset
    applied; ``render(results)`` is the stdout report;
    ``documents(results)`` lists the JSON files the verb writes as
    ``(path or None, doc, indent, note printed after writing or None)``;
    ``checks(results)`` lists failures that exit 1.  ``smoke_line`` is
    printed when the gate passes ({n} = points), to stderr when
    ``json_stdout`` keeps stdout a pure JSON document.
    """

    run: Callable
    render: Callable
    documents: Callable = lambda results: ()
    checks: Callable = lambda results: []
    smoke_line: str = ""
    json_stdout: bool = False
    snapshot: Callable = attrgetter("telemetry")


def _digest(text: str, documents) -> str:
    """A sweep's report and documents, as one comparable string."""
    return json.dumps([text, [doc for _, doc, _, _ in documents]],
                      sort_keys=True)


def _sweep(args, spec: _Sweep) -> int:
    """Run one sweep verb: points, report, documents, ``--telemetry``.

    Under ``--smoke`` the reference run is serial and the same sweep
    reruns on a real 2-worker process pool, whatever the CPU count: the
    report and every document must come back byte-identical and the
    verb's checks must pass, or the command exits 1.
    """
    smoke = getattr(args, "smoke", False)
    results = spec.run(1 if smoke else args.workers)
    text, documents = spec.render(results), spec.documents(results)
    print(text)
    problems = spec.checks(results)
    if smoke:
        pooled = spec.run(2)
        if (_digest(spec.render(pooled), spec.documents(pooled))
                != _digest(text, documents)):
            problems.insert(0, "-j2 sweep diverged from the serial run")
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    if smoke and not problems:
        print(spec.smoke_line.format(n=len(results)),
              file=sys.stderr if spec.json_stdout else sys.stdout)
    for path, doc, indent, note in documents:
        if path:
            _write_json(path, doc, indent=indent, sort_keys=True)
            if note:
                print(note.format(path))
    if getattr(args, "telemetry", None):
        _write_merged_telemetry(args.telemetry, map(spec.snapshot, results))
    return 1 if problems else 0


def _sweeps(args) -> dict:
    """The sweep verbs' table, one :class:`_Sweep` each, bound to ``args``."""
    from functools import partial

    from repro.experiments import (figure5, figure6, figure7, figure8,
                                   figure9, figure_policies,
                                   figure_reliability, nic_memory, report)
    from repro.faults.chaos import (ChaosPoint, run_chaos_campaign,
                                    smoke_point)
    from repro.telemetry import explain

    smoke = getattr(args, "smoke", False)
    telemetry = getattr(args, "telemetry", None) is not None

    def given(**flags):
        """Runner kwargs for the flags the user set (lists as tuples);
        the rest fall back to the runner's or the smoke preset's defaults."""
        return {name: tuple(value) if isinstance(value, list) else value
                for name, value in flags.items() if value}

    def policies(workers):
        # --smoke: small, but every arm, a gang-switching point and the
        # zero-credit static cell.
        preset = (dict(jobs=(1, 2), message_sizes=(1536,),
                       quanta_per_job=1.5) if smoke else {})
        return figure_policies.run_figure_policies(
            **{**preset, **given(policies=args.policies, jobs=args.jobs,
                                 message_sizes=args.sizes,
                                 quantum=args.quantum)},
            root_seed=args.seed, workers=workers, telemetry=telemetry)

    def reliability(workers):
        # --smoke: every arm, a lossless anchor and a lossy cell, few rounds.
        preset = dict(drops=(0.0, 0.05), rounds=6) if smoke else {}
        return figure_reliability.run_figure_reliability(
            **{**preset, **given(strategies=args.strategies,
                                 drops=args.drops, rounds=args.rounds)},
            root_seed=args.seed, workers=workers, telemetry=telemetry)

    def reliability_checks(points):
        bad = [p for p in points if not p.audit_ok]
        return ([f"{len(bad)} points failed the invariant audit"]
                if smoke and bad else [])

    def switch_stages(runner):
        return lambda workers: runner(
            nodes=tuple(args.nodes), num_switches=args.switches,
            workers=workers, telemetry=telemetry)

    def nicmem_render(points):
        knee = nic_memory.knee_of(points)
        rows = [(p.send_buffer_kib, p.credits, f"{p.mbps:.1f}",
                 "<- knee" if p is knee else "") for p in points]
        supported = nic_memory.contexts_supported(432, knee.send_buffer_kib)
        return (report.format_table(["sendbuf[KiB]", "C0", "MB/s", ""], rows)
                + f"\nknee at {knee.send_buffer_kib} KiB; a 512 KiB card "
                f"supports ~{supported} contexts")

    def explain_run(workers):
        if args.trace and not smoke:
            with open(args.trace) as fh:
                return explain.load_trace(json.load(fh))
        preset = (dict(jobs=(1, 2), messages=60, keep_records=True)
                  if smoke else given(
                      jobs=args.jobs, message_sizes=args.sizes,
                      messages=args.messages, policy=args.policy,
                      quantum=args.quantum,
                      keep_records=args.save_trace is not None))
        return explain.run_explain(root_seed=args.seed, workers=workers,
                                   **preset)

    def explain_documents(results):
        top, chrome_top = (5, 20) if smoke else (args.top, 50)
        quiet = smoke   # the smoke gate's report ends with its verdict
        return [
            (args.json_out, explain.explain_payload(results, top=top), 2,
             None if quiet else "attribution summary written to {}"),
            (args.chrome, explain.explain_chrome_trace(results[-1],
                                                       top=chrome_top), 1,
             None if quiet else "Chrome trace written to {} -- load it in "
             "chrome://tracing or https://ui.perfetto.dev"),
            (args.save_trace,
             args.save_trace and explain.trace_payload(results), None,
             None if quiet else "record streams written to {}")]

    def explain_checks(results):
        problems = []
        for p in (result["point"] for result in results):
            if p["mismatches"]:
                problems.append(f"point jobs={p['jobs']}: {p['mismatches']} "
                                "attribution sum mismatches")
            if smoke and (p["incomplete"] or not p["complete"]):
                problems.append(f"point jobs={p['jobs']}: {p['complete']} "
                                f"complete, {p['incomplete']} incomplete "
                                "messages in an untruncated run")
        if smoke:
            # The run attributed each message as it completed; the offline
            # replay of its saved trace must say exactly the same.
            replayed = explain.load_trace(json.loads(json.dumps(
                explain.trace_payload(results))))
            if (_digest(explain.render_explain(replayed),
                        explain_documents(replayed))
                    != _digest(explain.render_explain(results),
                               explain_documents(results))):
                problems.append("streamed attribution differs from the "
                                "offline replay of its saved trace")
        return problems

    def chaos(workers):
        common = dict(seed=args.seed, audit=not args.no_audit,
                      strategy=args.strategy, telemetry=telemetry)
        if smoke:
            point = smoke_point(bool(args.failstop), **common)
        else:
            point = ChaosPoint(
                nodes=args.nodes, time_slots=args.slots, jobs=args.chaos_jobs,
                quantum=args.quantum, rounds=args.rounds,
                message_bytes=args.size, drop=args.drop, dup=args.dup,
                corrupt=args.corrupt, jitter=args.jitter, sram=args.sram,
                stall=args.stall, crash=args.crash, failstops=args.failstop,
                rejoin=args.rejoin, requeue=args.requeue, **common)
        return run_chaos_campaign(point, runs=args.runs, workers=workers)

    def chaos_checks(results):
        if args.no_audit:
            return []
        bad = [r for r in results if r.get("error") or not r["audit"]["ok"]]
        return [f"{len(bad)} runs failed the safety audit"] if bad else []

    return {
        "figure5": _Sweep(
            run=lambda workers: figure5.run_figure5(
                **given(contexts=args.contexts, message_sizes=args.sizes),
                target_packets=args.packets, workers=workers,
                telemetry=telemetry),
            render=report.render_figure5),
        "figure6": _Sweep(
            run=lambda workers: figure6.run_figure6(
                **given(jobs=args.jobs, message_sizes=args.sizes,
                        quantum=args.quantum),
                workers=workers, telemetry=telemetry),
            render=report.render_figure6),
        "figure7": _Sweep(
            run=switch_stages(figure7.run_figure7),
            render=partial(report.render_switch_overheads, figure="7")),
        "figure8": _Sweep(run=switch_stages(figure8.run_figure8),
                          render=report.render_figure8),
        "figure9": _Sweep(
            run=switch_stages(figure9.run_figure9),
            render=partial(report.render_switch_overheads, figure="9")),
        "nicmem": _Sweep(
            run=lambda workers: nic_memory.run_nic_memory_sweep(
                workers=workers, telemetry=telemetry),
            render=nicmem_render),
        "figure_policies": _Sweep(
            run=policies, render=report.render_policies,
            documents=lambda points: [
                (args.out, figure_policies.points_payload(points), 2,
                 "benchmark JSON written to {}")],
            smoke_line="smoke: serial and -j2 sweeps bit-identical "
                       "({n} points)"),
        "figure_reliability": _Sweep(
            run=reliability, render=report.render_reliability,
            documents=lambda points: [
                (args.out, figure_reliability.points_payload(points), 2,
                 "benchmark JSON written to {}")],
            checks=reliability_checks,
            smoke_line="smoke: serial and -j2 sweeps bit-identical, audits "
                       "green ({n} points)"),
        "explain": _Sweep(
            run=explain_run, render=explain.render_explain,
            documents=explain_documents, checks=explain_checks,
            smoke_line="\nsmoke: serial and -j2 byte-identical ({n} points), "
                       "all causes sum exactly"),
        "chaos": _Sweep(
            run=chaos,
            render=lambda results: json.dumps(
                results if len(results) > 1 else results[0], indent=2),
            checks=chaos_checks,
            smoke_line="chaos smoke: serial and -j2 campaigns bit-identical "
                       "(runs={n})",
            json_stdout=True,
            snapshot=lambda result: result.get("telemetry")),
    }


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "list":
        for name, desc in EXPERIMENTS.items():
            print(f"  {name:<9} {desc}")
        return 0

    if args.command == "headline":
        from repro.experiments.report import render_headline
        from repro.experiments.table_overhead import run_headline_overheads

        print(render_headline(run_headline_overheads()))
        return 0

    if args.command == "perf":
        from repro.sim.bench import run_smoke

        return run_smoke()

    if args.command == "lint":
        from pathlib import Path

        import repro
        from repro.analysis.simlint import lint_paths, render_json, render_text

        package_dir = Path(repro.__file__).resolve().parent
        result = lint_paths(args.paths or [package_dir],
                            root=package_dir.parent.parent)
        print(render_text(result))
        if args.out:
            Path(args.out).write_text(render_json(result))
        failing = result.errors or (args.fail_on == "warning"
                                    and result.warnings)
        return 1 if result.parse_errors or failing else 0

    if args.command == "racecheck":
        import json

        from repro.analysis.simlint.racecheck import (
            run_racecheck, run_racecheck_smoke)

        if args.smoke:
            summary = run_racecheck_smoke(seed=args.seed)
            if args.out:
                with open(args.out, "w") as fh:
                    json.dump(summary, fh, indent=2, sort_keys=True)
                    fh.write("\n")
            for check in summary["checks"]:
                verdict = "OK " if check["ok"] else "FAIL"
                detail = {k: v for k, v in check.items()
                          if k not in ("check", "ok")}
                print(f"racecheck {verdict} {check['check']} {detail}")
            print("racecheck smoke:", "PASS" if summary["ok"] else "FAIL")
            return 0 if summary["ok"] else 1

        result = run_racecheck(preset=args.preset, seed=args.seed,
                               plant=args.plant,
                               plant_kind=args.plant_kind)
        doc = result.to_dict()
        if args.out:
            with open(args.out, "w") as fh:
                json.dump(doc, fh, indent=2, sort_keys=True)
                fh.write("\n")
        print(json.dumps(doc["monitor"], indent=2, sort_keys=True))
        expected = 1 if args.plant else 0
        return 0 if result.race_count == expected else 1

    if args.command == "telemetry":
        import json

        from repro.telemetry.demo import run_telemetry_demo
        from repro.telemetry.export import render_summary

        demo = run_telemetry_demo(nodes=args.nodes,
                                  num_switches=args.switches,
                                  seed=args.seed)
        out = args.out if args.out else "repro_trace.json"
        with open(out, "w") as fh:
            json.dump(demo.trace, fh, indent=1)
            fh.write("\n")
        if args.metrics:
            with open(args.metrics, "w") as fh:
                json.dump(demo.snapshot, fh, indent=2, sort_keys=True)
                fh.write("\n")
        print(render_summary(demo.snapshot))
        print(f"\n{demo.switches} gang switches captured; Chrome trace "
              f"({len(demo.trace['traceEvents'])} events) written to {out} "
              "-- load it in chrome://tracing or https://ui.perfetto.dev")
        if demo.problems:
            for problem in demo.problems:
                print(f"telemetry check FAILED: {problem}", file=sys.stderr)
            return 1
        if args.smoke:
            print("telemetry smoke: snapshot schema OK, "
                  "halt/swap/release spans OK")
        return 0

    from repro.experiments.common import effective_workers

    args.workers = effective_workers(args.workers)
    return _sweep(args, _sweeps(args)[args.command])


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
