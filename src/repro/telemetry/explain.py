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

A live point keeps no trace.  The tracer hands every record to an
:class:`ExplainStream` as it is made: it holds the lineage of open
messages only, builds the scheduling windows as it goes, and attributes
each message the moment its ``msg-recv`` completes it, keeping just the
message's output row.  :func:`analyze_records` is the offline replay of
a kept stream (``--trace`` re-ingest, and the oracle the streamed
analysis must match byte for byte); a point keeps its records only for
``--save-trace`` or ``--smoke``, and only then pays for normalization.
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
                                         attribute_message, charge_nic,
                                         summarize_attribution,
                                         summarize_stalls)
from repro.telemetry.causal import (FragmentTrace, MessageTrace,
                                    WindowBuilder, _frag_by_seq,
                                    build_lineage, build_windows)
from repro.telemetry.spans import Span
from repro.workloads.bandwidth import bandwidth_benchmark

EXPLAIN_SCHEMA = "repro-explain/1"
TRACE_SCHEMA = "repro-trace/1"

#: relative tolerance for the "causes must sum to latency" invariant
_SUM_TOLERANCE = 1e-6


# ---------------------------------------------------------------- running
def _run_point(jobs: int, message_bytes: int, messages: int, quantum: float,
               num_processors: int, policy: str, seed: int,
               keep_records: bool = False):
    """One traced contention point, attributed while it runs.

    Returns ``(analysis, reallocs, records, end_time)``: the
    :meth:`ExplainStream.finish` analysis, the policy reallocations, and
    the raw record list if ``keep_records`` (else ``None``).
    """
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
    stream = ExplainStream()
    tracer = cluster.telemetry.tracer
    tracer.stream(stream.feed, keep_records=keep_records)
    workload = bandwidth_benchmark(messages, message_bytes)
    submitted = [cluster.submit(JobSpec(f"bw{i}", 2, workload))
                 for i in range(jobs)]
    cluster.run_until_finished(submitted, max_events=500_000_000)
    end_time = cluster.sim.now
    reallocs = stream.reallocs()
    return (stream.finish(tracer.truncated, end_time), reallocs,
            tracer.records if keep_records else None, end_time)


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
    This offline replay is the oracle :class:`ExplainStream` matches.
    """
    traces = build_lineage(records)
    windows = build_windows(records, end_time=end_time)
    indexed = WindowIndex(windows)
    per_message: List[dict] = []
    incomplete = 0
    for index, trace in enumerate(traces):
        att = attribute_message(trace, indexed)
        if att is None:
            incomplete += 1
            continue
        per_message.append(_row(index, trace, att,
                                trace.completing_fragment()))
    mismatches = sum(map(_mismatched, per_message))
    return _analysis(len(traces), per_message, incomplete, mismatches,
                     truncated, summarize_stalls(records), windows,
                     lineage=traces)


def _row(index: Optional[int], trace: MessageTrace, att: dict,
         frag: FragmentTrace) -> dict:
    """One ``per_message`` row; ``frag`` is the completing fragment."""
    return {
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
    }


def _mismatched(row: dict) -> bool:
    """Do ``row``'s causes fail to sum to its latency?"""
    latency = row["latency"]
    return (abs(sum(row["causes"].values()) - latency)
            > _SUM_TOLERANCE * max(1.0, latency))


def _analysis(messages: int, per_message: List[dict], incomplete: int,
              mismatches: int, truncated: bool, stalls: dict, windows,
              **extra) -> dict:
    summary = summarize_attribution(per_message)
    return {
        "messages": messages,
        "complete": len(per_message),
        "incomplete": incomplete,
        "mismatches": mismatches,
        "truncated": truncated,
        "latency": summary["latency"],
        "causes": summary["causes"],
        "stalls": stalls,
        "per_message": per_message,
        "windows": _serialize_windows(windows),
        **extra,
    }


class ExplainStream:
    """:func:`analyze_records` run online, one record at a time.

    :meth:`feed` is a tracer sink.  Open messages keep their lineage as
    :func:`~repro.telemetry.causal.build_lineage` would build it, and the
    scheduling windows grow in a
    :class:`~repro.telemetry.causal.WindowBuilder`.  When a ``msg-recv``
    completes a message, everything its attribution reads is known —
    the completing fragment's chain, the sender's stalls, and the windows
    up to its completion — so it is attributed at once and its fragments
    are dropped.  What is kept of it is its output row and, through the
    ``(src, seq)`` owner map, the way back to that row for records that
    arrive late:

    - ``rto-retransmit`` counts into the row's ``retransmits``;
    - a ``pkt-tx`` copy of one of its fragments is a no-op, unless it is
      stamped at the completing fragment's delivery time (then it is the
      delivering copy, and the wire causes are recharged);
    - a duplicate ``pkt-deliver``, ``msg-send``, ``pkt-drop``,
      ``pkt-dup-discard`` and ``rto-give-up`` change no output;
    - a ``buffer-switch`` whose swap reaches back into a closed
      message's NIC-queue segment recharges that segment.

    Any other record about a completed message (a new fragment, a second
    ``msg-start``/``msg-recv``, a stall) would need the fragments that
    were dropped, and raises ``ValueError``; the simulator emits none.
    :meth:`finish` attributes what is still open against the final
    windows, numbers every message in lineage order, and returns the
    analysis :func:`analyze_records` would return, minus ``lineage``.
    """

    def __init__(self):
        self.windows = WindowBuilder()
        self.open: Dict[tuple, MessageTrace] = {}
        self.first_seen: Dict[tuple, float] = {}
        # key -> [row, completing fragment index, its delivering tx]
        self.closed: Dict[tuple, list] = {}
        self.completions: List[list] = []   # closed entries, in order
        self.seq_owner: Dict[tuple, tuple] = {}   # (src, seq) -> (key, frag)
        self.stalls: Dict[str, list] = {}          # cause -> [waits, seconds]
        self.realloc_records: List[TraceRecord] = []   # a few per switch
        self.mismatches = 0
        self.last_time = 0.0

    def feed(self, time: float, kind: str, fields: dict) -> None:
        self.last_time = time
        handler = self._HANDLERS.get(kind)
        if handler is not None:
            handler(self, time, kind, fields)

    # -- lineage of open messages (build_lineage, one record at a time) --
    def _trace(self, key: tuple, time: float, kind: str) -> MessageTrace:
        trace = self.open.get(key)
        if trace is None:
            if key in self.closed:
                raise ValueError(f"{kind} record at t={time!r} for message "
                                 f"{key}, which already completed")
            trace = self.open[key] = MessageTrace(*key)
            self.first_seen[key] = time
        return trace

    def _msg_start(self, time, kind, f):
        trace = self._trace((f["node"], f["job"], f["msg"]), time, kind)
        trace.started = time
        trace.dst_node = f.get("dst")
        trace.dst_rank = f.get("dst_rank")
        trace.nbytes = f.get("nbytes")
        trace.frag_count = f.get("frags")

    def _pkt_enq(self, time, kind, f):
        key = (f["node"], f["job"], f["msg"])
        frag = _fragment(self._trace(key, time, kind), f["frag"])
        frag.seq = f.get("seq")
        frag.enqueued = time
        if frag.seq is not None:
            self.seq_owner[(key[0], frag.seq)] = (key, f["frag"])

    def _pkt_tx(self, time, kind, f):
        msg = f.get("msg", -1)
        if msg is None or msg < 0:
            return    # control packet (refill/halt/ready/ack)
        key = (f["node"], f["job"], msg)
        index = f.get("frag", 0)
        closed = self.closed.get(key)
        if closed is not None:
            self._late_tx(time, key, index, f.get("seq"), closed)
            return
        frag = _fragment(self._trace(key, time, kind), index)
        if frag.seq is None and f.get("seq") is not None:
            frag.seq = f["seq"]
            self.seq_owner[(key[0], frag.seq)] = (key, index)
        frag.tx_times.append(time)

    def _pkt_deliver(self, time, kind, f):
        msg = f.get("msg", -1)
        if msg is None or msg < 0:
            return
        key = (f["src"], f["job"], msg)
        if key in self.closed:
            seq = f.get("seq")
            owner = (None if seq is None
                     else self.seq_owner.get((key[0], seq)))
            if owner is None or owner[0] != key:
                raise ValueError(f"pkt-deliver record at t={time!r} for an "
                                 f"unknown fragment of message {key}, "
                                 "which already completed")
            return    # a duplicate of a delivered fragment
        trace = self._trace(key, time, kind)
        frag = _frag_by_seq(trace, self.seq_owner, key, f)
        if frag.delivered is None:
            frag.delivered = time
        else:
            frag.extra_deliveries += 1

    def _msg_recv(self, time, kind, f):
        msg = f.get("msg")
        src = f.get("src")
        if msg is None or src is None:
            return    # pre-causal record shape
        key = (src, f["job"], msg)
        trace = self._trace(key, time, kind)
        trace.completed = time
        att = attribute_message(trace, self.windows)
        if att is None:
            return    # not complete (yet): finish() tries again
        frag = trace.completing_fragment()
        row = _row(None, trace, att, frag)
        self.mismatches += _mismatched(row)
        closed = self.closed[key] = [row, frag.frag, frag.delivering_tx]
        self.completions.append(closed)
        del self.open[key]
        del self.first_seen[key]

    def _msg_send(self, time, kind, f):
        key = (f["node"], f["job"], f.get("msg_id", f.get("msg")))
        if key[2] is not None and key not in self.closed:
            self._trace(key, time, kind).sent = time

    def _stall(self, time, kind, f):
        cell = self.stalls.setdefault(f["cause"], [0, 0.0])
        cell[0] += 1
        cell[1] += f["dur"]
        msg = f.get("msg", -1)
        if msg is None or msg < 0:
            return    # anonymous stall (refill path)
        trace = self._trace((f["node"], f["job"], msg), time, kind)
        trace.stalls.append((f["cause"], time - f["dur"], time))

    def _rto_retransmit(self, time, kind, f):
        owner = self.seq_owner.get((f["node"], f.get("seq")))
        if owner is None:
            return
        key, index = owner
        trace = self.open.get(key)
        if trace is not None:
            trace.frags[index].retransmits += 1
        else:
            self.closed[key][0]["retransmits"] += 1

    # -- windows, and late records that reach back into closed rows -------
    def _window(self, time, kind, f):
        self.windows.feed(time, kind, f)

    def _buffer_switch(self, time, kind, f):
        self.windows.feed(time, kind, f)
        start = time - f.get("duration", 0.0)
        node = f["node"]
        for closed in reversed(self.completions):
            row = closed[0]
            if row["chain"]["completed"] <= start:
                break    # completion order: every earlier one ends sooner
            if row["src"] == node and row["chain"]["first_tx"] > start:
                self._recharge(closed)

    def _late_tx(self, time, key, index, seq, closed):
        if seq is None or self.seq_owner.get((key[0], seq)) != (key, index):
            raise ValueError(f"pkt-tx record at t={time!r} for an unknown "
                             f"fragment of message {key}, which already "
                             "completed")
        if index == closed[1] and time <= closed[0]["chain"]["delivered"]:
            closed[2] = time    # the last copy out before the delivery
            self._recharge(closed)

    def _recharge(self, closed: list) -> None:
        """Recharge a closed row's NIC causes against the windows and
        delivering copy known now."""
        row, _, tx = closed
        chain = row["chain"]
        was = _mismatched(row)
        charge_nic(row["causes"], self.windows, row["src"], row["job"],
                   chain["enqueued"], chain["first_tx"], tx,
                   chain["delivered"])
        self.mismatches += _mismatched(row) - was

    def _realloc(self, time, kind, f):
        self.realloc_records.append(TraceRecord(time, kind, f))

    _HANDLERS = {
        "msg-start": _msg_start, "pkt-enq": _pkt_enq, "pkt-tx": _pkt_tx,
        "pkt-deliver": _pkt_deliver, "msg-recv": _msg_recv,
        "msg-send": _msg_send, "stall": _stall,
        "rto-retransmit": _rto_retransmit, "buffer-switch": _buffer_switch,
        "realloc-plan": _realloc, "realloc-apply": _realloc,
        **dict.fromkeys(("nic-halt", "nic-release", "ctx-remove",
                         "ctx-install", "init-job", "job-stop", "job-go"),
                        _window),
    }

    # -- the end of the stream --------------------------------------------
    def reallocs(self) -> List[dict]:
        """The policy reallocations of the stream so far."""
        return _derive_reallocs(self.realloc_records)

    def finish(self, truncated: bool = False,
               end_time: Optional[float] = None) -> dict:
        """The analysis of the whole stream, without ``lineage``.

        ``end_time`` (default: the last record's time) clips windows
        still open; it may not precede the last record.  This ends the
        stream: the lineage state is released as the rows are numbered.
        """
        if end_time is not None and end_time < self.last_time:
            raise ValueError(f"end_time {end_time!r} precedes the last "
                             f"record at {self.last_time!r}")
        windows = self.windows.windows(
            end_time if end_time is not None else self.last_time)
        order = [(row["chain"]["started"], *key, row)
                 for key, (row, _, _) in self.closed.items()]
        order += [(self.first_seen[key] if trace.started is None
                   else trace.started, *key, trace)
                  for key, trace in self.open.items()]
        for state in (self.open, self.first_seen, self.closed,
                      self.completions, self.seq_owner):
            state.clear()
        order.sort(key=lambda item: item[:4])
        indexed = WindowIndex(windows)
        per_message: List[dict] = []
        incomplete = 0
        mismatches = self.mismatches
        for index, (*_, entry) in enumerate(order):
            if isinstance(entry, dict):
                entry["index"] = index
                per_message.append(entry)
                continue
            att = attribute_message(entry, indexed)
            if att is None:
                incomplete += 1
                continue
            row = _row(index, entry, att, entry.completing_fragment())
            mismatches += _mismatched(row)
            per_message.append(row)
        stalls = {cause: {"waits": cell[0], "seconds": cell[1]}
                  for cause, cell in sorted(self.stalls.items())}
        return _analysis(len(order), per_message, incomplete, mismatches,
                         truncated, stalls, windows)


def _fragment(trace: MessageTrace, index: int) -> FragmentTrace:
    frag = trace.frags.get(index)
    if frag is None:
        frag = trace.frags[index] = FragmentTrace(frag=index)
    return frag


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
    """Picklable sweep worker: run and attribute one point, and normalize
    its records when they are kept."""
    (jobs, message_bytes, messages, quantum, num_processors, policy, seed,
     keep_records) = args
    analysis, reallocs, raw, end_time = _run_point(
        jobs, message_bytes, messages, quantum, num_processors, policy, seed,
        keep_records)
    kept = None
    if raw is not None:
        kept = [[r.time, r.kind, r.fields] for r in normalize_records(raw)]
    config = dict(jobs=jobs, message_bytes=message_bytes,
                  messages_per_job=messages, quantum=quantum,
                  policy=policy or None, seed=seed)
    return _result(analysis, config, end_time, reallocs, kept)


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
