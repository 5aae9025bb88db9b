"""``repro explain`` — the critical-path latency analyzer.

Runs a figure-6-style contention point (two nodes, N gang-scheduled
bandwidth jobs) with causal tracing on, replays the record stream into
per-message lineage (:mod:`repro.telemetry.causal`), charges every
microsecond of every message's latency to a named cause
(:mod:`repro.telemetry.attribution`), and reports the result three ways:

- a text *waterfall* — per-cause totals, shares, and nearest-rank
  percentiles, plus an ASCII breakdown of the slowest message;
- a JSON summary (schema ``repro-explain/1``) with per-point cause
  statistics and top-K exemplar messages;
- a Chrome ``trace_event`` file where each exemplar message renders as
  send/NIC/receive slices on its nodes' tracks with a flow arrow for
  the wire hop, against scheduling-window and policy-reallocation
  context rows.

Determinism discipline: message ids and wire sequence numbers are
process-global counters in the simulator (cheap and collision-free),
so their raw values depend on how many simulations the worker process
ran before this one.  The analysis never lets them out: ids are only
compared for identity, raw ids grow monotonically within a simulation
(so lineage order does not depend on their offset), and every output
names a message by its lineage index.  That makes a ``-j2`` sweep
byte-identical to a serial one.  A saved trace (schema
``repro-trace/1``) does carry ids, so :func:`normalize_records`
rewrites them to dense per-stream indices — lineage order and first
appearance respectively — before the stream is kept, which makes
saved traces stable enough to diff.

The analysis is one pass per point: :func:`analyze_records` replays
the lineage and the scheduling windows once and hands both back, and
only a point whose records are kept pays for normalization.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.experiments.common import point_seed, run_points
from repro.experiments.figure6 import _messages_for_quanta
from repro.fm.config import FMConfig
from repro.gluefm.switch import ValidOnlyCopy
from repro.parpar.cluster import ClusterConfig, ParParCluster
from repro.parpar.job import JobSpec
from repro.sim.trace import TraceRecord
from repro.telemetry.attribution import (CAUSES, WindowIndex,
                                         attribute_message,
                                         summarize_attribution,
                                         summarize_stalls)
from repro.telemetry.causal import (MessageTrace, build_lineage,
                                    build_windows)
from repro.telemetry.spans import Span
from repro.workloads.bandwidth import bandwidth_benchmark

EXPLAIN_SCHEMA = "repro-explain/1"
TRACE_SCHEMA = "repro-trace/1"

#: relative tolerance for the "causes must sum to latency" invariant
_SUM_TOLERANCE = 1e-6


# ---------------------------------------------------------------- running
def _run_point(jobs: int, message_bytes: int, messages: int, quantum: float,
               num_processors: int, policy: str, seed: int):
    """One traced contention point; returns (records, truncated, end_time)."""
    fm = FMConfig(max_contexts=max(jobs, 1), num_processors=num_processors,
                  buffer_policy=policy or "")
    cluster = ParParCluster(ClusterConfig(
        num_nodes=2, time_slots=max(jobs, 1), quantum=quantum,
        buffer_switching=True, switch_algorithm=ValidOnlyCopy(), fm=fm,
        seed=seed, telemetry=True,
    ))
    # Explain reads only the trace stream: detach the bundle's every-event
    # kernel profiler, whose profile nobody reads (results are identical
    # with or without it).
    cluster.sim.profiler = None
    workload = bandwidth_benchmark(messages, message_bytes)
    submitted = [cluster.submit(JobSpec(f"bw{i}", 2, workload))
                 for i in range(jobs)]
    cluster.run_until_finished(submitted, max_events=500_000_000)
    tracer = cluster.telemetry.tracer
    return list(tracer.records), tracer.truncated, cluster.sim.now


# ---------------------------------------------------------------- normalize
_MSG_BY_NODE = frozenset(("msg-start", "pkt-enq", "pkt-tx", "stall"))
_MSG_BY_SRC = frozenset(("pkt-deliver", "msg-recv"))


def normalize_records(records: Iterable[TraceRecord],
                      lineage: Optional[Sequence[MessageTrace]] = None
                      ) -> List[TraceRecord]:
    """Rewrite process-global ids to dense, stream-local indices.

    Message ids become the message's index in lineage order (the order
    :func:`~repro.telemetry.causal.build_lineage` returns, which is
    start-time order); wire seqs become first-appearance indices.
    Control-packet sentinels (``msg < 0``) pass through untouched.  The
    rewritten stream replays to the *same* lineage — ids are only ever
    compared for identity — but no longer leaks how many simulations
    the hosting process ran before this one.  ``lineage`` is the
    stream's :func:`build_lineage` result, if the caller already has it.
    """
    records = list(records)
    if lineage is None:
        lineage = build_lineage(records)
    msg_map = {trace.key: index for index, trace in enumerate(lineage)}
    seq_map: Dict[int, int] = {}
    out: List[TraceRecord] = []
    for rec in records:
        f = rec.fields
        kind = rec.kind
        new = dict(f)
        msg = f.get("msg")
        if msg is not None and msg >= 0:
            if kind in _MSG_BY_NODE:
                key = (f["node"], f["job"], msg)
            elif kind in _MSG_BY_SRC and f.get("src") is not None:
                key = (f["src"], f["job"], msg)
            else:
                key = None
            if key is not None and key in msg_map:
                new["msg"] = msg_map[key]
        if kind == "msg-send":
            msg_id = f.get("msg_id", f.get("msg"))
            key = (f["node"], f["job"], msg_id)
            if msg_id is not None and key in msg_map:
                new["msg_id" if "msg_id" in f else "msg"] = msg_map[key]
        seq = f.get("seq")
        if seq is not None:
            new["seq"] = seq_map.setdefault(seq, len(seq_map))
        out.append(TraceRecord(rec.time, kind, new))
    return out


# ---------------------------------------------------------------- analysis
#: :func:`analyze_records` keys that are not per-point statistics
DETAIL_KEYS = ("per_message", "windows", "lineage")


def analyze_records(records: Sequence[TraceRecord], truncated: bool = False,
                    end_time: Optional[float] = None) -> dict:
    """Lineage -> windows -> per-message attribution -> summary.

    The returned dict carries the aggregate statistics plus, under
    :data:`DETAIL_KEYS`, a ``per_message`` list (index, endpoints, chain
    timestamps, latency, causes) for exemplar selection and chrome
    rendering, the serialized scheduling ``windows``, and the
    ``lineage`` itself, so callers need not replay the stream again.
    ``mismatches`` counts messages whose cause partition failed to sum
    to the measured latency within float tolerance — always 0 unless
    the attribution logic regresses.

    Ids are compared only for identity and outputs name messages by
    lineage index, so a raw stream and its :func:`normalize_records`
    rewrite give the same result (``lineage`` aside, which keeps ids).
    """
    traces = build_lineage(records)
    windows = build_windows(records, end_time=end_time)
    indexed = WindowIndex(windows)
    per_message: List[dict] = []
    incomplete = 0
    mismatches = 0
    for index, trace in enumerate(traces):
        att = attribute_message(trace, indexed)
        if att is None:
            incomplete += 1
            continue
        total = sum(att["causes"].values())
        if abs(total - att["latency"]) > _SUM_TOLERANCE * max(
                1.0, att["latency"]):
            mismatches += 1
        frag = trace.completing_fragment()
        per_message.append({
            "index": index,
            "job": trace.job,
            "src": trace.src_node,
            "dst": trace.dst_node,
            "nbytes": trace.nbytes,
            "frags": trace.frag_count,
            "retransmits": trace.retransmits,
            "latency": att["latency"],
            "causes": att["causes"],
            "chain": {
                "started": trace.started,
                "enqueued": frag.enqueued,
                "first_tx": frag.first_tx,
                "delivered": frag.delivered,
                "completed": trace.completed,
            },
        })
    summary = summarize_attribution(per_message)
    return {
        "messages": len(traces),
        "complete": len(per_message),
        "incomplete": incomplete,
        "mismatches": mismatches,
        "truncated": truncated,
        "latency": summary["latency"],
        "causes": summary["causes"],
        "stalls": summarize_stalls(records),
        "per_message": per_message,
        "windows": _serialize_windows(windows),
        "lineage": traces,
    }


def _derive_reallocs(records: Iterable[TraceRecord]) -> List[dict]:
    """Policy reallocation intervals (plan -> last apply) for chrome."""
    plan_open: Dict[int, TraceRecord] = {}
    plan_last: Dict[int, float] = {}
    for rec in records:
        seq = rec.fields.get("sequence")
        if rec.kind == "realloc-plan":
            plan_open.setdefault(seq, rec)
            plan_last[seq] = rec.time
        elif rec.kind == "realloc-apply" and seq in plan_open:
            plan_last[seq] = rec.time
    return [{"node": plan_open[s].fields.get("node"), "sequence": s,
             "jobs": plan_open[s].fields.get("jobs"),
             "start": plan_open[s].time, "end": plan_last[s]}
            for s in sorted(plan_open,
                            key=lambda s: (plan_open[s].time, str(s)))]


def _serialize_windows(windows) -> dict:
    """SchedulingWindows -> JSON-able dict (tuple keys joined)."""
    return {
        "halted": {str(n): ivs for n, ivs in sorted(windows.halted.items())},
        "swapping": {str(n): ivs
                     for n, ivs in sorted(windows.swapping.items())},
        "stored": {f"{n},{j}": ivs
                   for (n, j), ivs in sorted(windows.stored.items())},
        "stopped": {f"{n},{j}": ivs
                    for (n, j), ivs in sorted(windows.stopped.items())},
    }


def _result(analysis: dict, config: dict, end_time: Optional[float],
            reallocs: List[dict], records: Optional[list]) -> dict:
    """One explain result from an :func:`analyze_records` analysis."""
    point = {k: v for k, v in analysis.items() if k not in DETAIL_KEYS}
    point.update(config, end_time=end_time)
    return {
        "point": point,
        "per_message": analysis["per_message"],
        "windows": analysis["windows"],
        "reallocs": reallocs,
        "records": records,
    }


def _explain_worker(args: tuple) -> dict:
    """Picklable sweep worker: run and analyze one point, and normalize
    its records when they are kept."""
    (jobs, message_bytes, messages, quantum, num_processors, policy, seed,
     keep_records) = args
    raw, truncated, end_time = _run_point(
        jobs, message_bytes, messages, quantum, num_processors, policy, seed)
    analysis = analyze_records(raw, truncated=truncated, end_time=end_time)
    kept = None
    if keep_records:
        kept = [[r.time, r.kind, r.fields]
                for r in normalize_records(raw, analysis["lineage"])]
    config = dict(jobs=jobs, message_bytes=message_bytes,
                  messages_per_job=messages, quantum=quantum,
                  policy=policy or None, seed=seed)
    return _result(analysis, config, end_time, _derive_reallocs(raw), kept)


def run_explain(jobs: Sequence[int] = (1, 2, 4),
                message_sizes: Sequence[int] = (1536,),
                messages: Optional[int] = None,
                quantum: float = 0.004,
                num_processors: int = 16,
                policy: Optional[str] = None,
                root_seed: int = 0,
                workers: int = 1,
                keep_records: bool = False) -> List[dict]:
    """The sweep: one traced, attributed point per (jobs, size) cell."""
    items = []
    for njobs in jobs:
        fm = FMConfig(max_contexts=max(njobs, 1),
                      num_processors=num_processors)
        for size in message_sizes:
            count = (messages if messages else
                     _messages_for_quanta(fm, size, quantum, 3.0))
            seed = point_seed(root_seed,
                              f"explain:jobs={njobs}:size={size}")
            items.append((njobs, size, count, quantum, num_processors,
                          policy or "", seed, keep_records))
    return run_points(_explain_worker, items, workers=workers)


# ---------------------------------------------------------------- trace I/O
def trace_payload(results: List[dict]) -> dict:
    """Saved-trace document from results run with ``keep_records=True``."""
    points = []
    for result in results:
        if result["records"] is None:
            raise ValueError("trace_payload needs keep_records=True results")
        p = result["point"]
        points.append({
            "config": {k: p[k] for k in ("jobs", "message_bytes",
                                         "messages_per_job", "quantum",
                                         "policy", "seed")},
            "truncated": p["truncated"],
            "end_time": p["end_time"],
            "records": result["records"],
        })
    return {"schema": TRACE_SCHEMA, "points": points}


def load_trace(doc: dict) -> List[dict]:
    """Re-analyze a saved trace document into explain results."""
    if doc.get("schema") != TRACE_SCHEMA:
        raise ValueError(f"not a {TRACE_SCHEMA} document: "
                         f"schema={doc.get('schema')!r}")
    results = []
    for point in doc["points"]:
        records = [TraceRecord(t, kind, fields)
                   for t, kind, fields in point["records"]]
        end_time = point.get("end_time")
        analysis = analyze_records(records,
                                   truncated=point.get("truncated", False),
                                   end_time=end_time)
        results.append(_result(analysis, point["config"], end_time,
                               _derive_reallocs(records), point["records"]))
    return results


def explain_payload(results: List[dict], top: int = 5) -> dict:
    """The ``repro-explain/1`` JSON document (no raw records)."""
    points = []
    for result in results:
        point = dict(result["point"])
        point["top"] = top_messages(result["per_message"], top)
        points.append(point)
    return {"schema": EXPLAIN_SCHEMA, "points": points}


def top_messages(per_message: List[dict], top: int) -> List[dict]:
    """The ``top`` slowest messages, deterministically tie-broken."""
    ranked = sorted(per_message,
                    key=lambda m: (-m["latency"], m["index"]))
    return ranked[:max(0, top)]


# ---------------------------------------------------------------- rendering
def _us(seconds: float) -> str:
    return f"{seconds * 1e6:10.2f}"


def _bar(value: float, peak: float, width: int = 28) -> str:
    if peak <= 0:
        return ""
    return "#" * max(0, round(width * value / peak))


def render_point(result: dict) -> str:
    """Text waterfall for one explain point."""
    p = result["point"]
    lines = []
    policy = p.get("policy") or "none"
    lines.append(f"point: jobs={p['jobs']} size={p['message_bytes']}B "
                 f"messages={p['messages_per_job']}/job "
                 f"quantum={p['quantum'] * 1e3:g}ms policy={policy}")
    lines.append(f"  messages: {p['complete']} complete, "
                 f"{p['incomplete']} incomplete"
                 + (", TRUNCATED STREAM" if p["truncated"] else ""))
    if p["mismatches"]:
        lines.append(f"  WARNING: {p['mismatches']} messages whose causes "
                     "do not sum to their latency")
    if not p["complete"]:
        return "\n".join(lines)
    lat = p["latency"]
    lines.append(f"  latency (us): mean {lat['mean'] * 1e6:.2f}  "
                 f"p50 {lat['p50'] * 1e6:.2f}  p90 {lat['p90'] * 1e6:.2f}  "
                 f"p99 {lat['p99'] * 1e6:.2f}  max {lat['max'] * 1e6:.2f}")
    lines.append("")
    lines.append(f"  {'cause':<19} {'total(ms)':>10} {'share':>7} "
                 f"{'mean(us)':>10} {'p50(us)':>10} {'p99(us)':>10}")
    grand = lat["total"]
    peak = max(p["causes"][c]["total"] for c in CAUSES)
    for cause in CAUSES:
        stats = p["causes"][cause]
        if stats["total"] <= 0.0:
            continue
        share = 100.0 * stats["total"] / grand if grand else 0.0
        lines.append(f"  {cause:<19} {stats['total'] * 1e3:>10.3f} "
                     f"{share:>6.1f}% {stats['mean'] * 1e6:>10.2f} "
                     f"{stats['p50'] * 1e6:>10.2f} "
                     f"{stats['p99'] * 1e6:>10.2f}  "
                     f"{_bar(stats['total'], peak)}")
    slowest = top_messages(result["per_message"], 1)
    if slowest:
        m = slowest[0]
        lines.append("")
        lines.append(f"  slowest message: index {m['index']} job {m['job']} "
                     f"node {m['src']}->{m['dst']} {m['nbytes']}B "
                     f"{m['frags']} frag(s), {m['latency'] * 1e6:.2f} us")
        m_peak = max(m["causes"].values())
        for cause in CAUSES:
            value = m["causes"][cause]
            if value <= 0.0:
                continue
            lines.append(f"    {cause:<19} {_us(value)} us  "
                         f"{_bar(value, m_peak)}")
    return "\n".join(lines)


def render_explain(results: List[dict]) -> str:
    lines = ["repro explain -- latency attribution", "=" * 37]
    for result in results:
        lines.append("")
        lines.append(render_point(result))
    return "\n".join(lines)


# ---------------------------------------------------------------- chrome
def explain_chrome_trace(result: dict, top: int = 50) -> dict:
    """Chrome trace for one point: exemplar messages + context rows.

    Each exemplar renders as three slices — ``send`` on the source
    host track, ``nic`` on the source NIC track, ``recv`` on the
    destination host track — with a flow arrow for the wire hop.
    Scheduling windows (halted NIC, buffer swap, stored context,
    descheduled job) and policy reallocations render as context rows,
    so a message parked behind a gang switch is visibly *under* the
    window that parked it.
    """
    from repro.telemetry.export import to_chrome_trace

    spans: List[Span] = []
    flows: List[dict] = []
    sid = 0

    def add(name, cat, start, end, **args):
        nonlocal sid
        spans.append(Span(span_id=sid, parent_id=None, name=name,
                          category=cat, start=start, end=end, args=args))
        sid += 1

    for m in top_messages(result["per_message"], top):
        chain = m["chain"]
        name = f"msg {m['index']}"
        common = {"job": m["job"], "nbytes": m["nbytes"],
                  "latency_us": m["latency"] * 1e6}
        add(f"send {name}", "host", chain["started"], chain["enqueued"],
            node=m["src"], **common)
        add(f"nic {name}", "nic", chain["enqueued"], chain["first_tx"],
            node=m["src"], **common)
        add(f"recv {name}", "host", chain["delivered"], chain["completed"],
            node=m["dst"], **common)
        flows.append({
            "id": m["index"], "name": "wire", "cat": "causal",
            "start": {"node": m["src"], "track": "nic",
                      "ts": chain["first_tx"]},
            "end": {"node": m["dst"], "track": "host",
                    "ts": chain["delivered"]},
        })
    windows = result["windows"]
    for node, ivs in windows["halted"].items():
        for start, end in ivs:
            add("nic-halted", "sched", start, end, node=int(node))
    for node, ivs in windows["swapping"].items():
        for start, end in ivs:
            add("buffer-swap", "sched", start, end, node=int(node))
    for key, ivs in windows["stored"].items():
        node, job = key.split(",")
        for start, end in ivs:
            add(f"stored job{job}", "sched", start, end,
                node=int(node), job=int(job))
    for key, ivs in windows["stopped"].items():
        node, job = key.split(",")
        for start, end in ivs:
            add(f"stopped job{job}", "sched", start, end,
                node=int(node), job=int(job))
    for realloc in result["reallocs"]:
        add(f"realloc #{realloc['sequence']}", "policy",
            realloc["start"], realloc["end"],
            node=realloc["node"], jobs=realloc["jobs"])
    spans.sort(key=lambda s: (s.start, s.span_id))
    p = result["point"]
    return to_chrome_trace(
        spans, flows=flows,
        metadata={"schema": EXPLAIN_SCHEMA,
                  "point": {k: p[k] for k in ("jobs", "message_bytes",
                                              "quantum", "policy", "seed")}})
