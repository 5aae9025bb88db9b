"""``repro explain`` — the critical-path latency analyzer.

Runs a figure-6-style contention point (two nodes, N gang-scheduled
bandwidth jobs) with causal tracing on, builds per-message lineage from
the record stream as it runs (:mod:`repro.telemetry.causal`), charges every
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

Determinism discipline: each run numbers its messages and wire packets
from 0 (:attr:`~repro.sim.core.Simulator.next_msg_id`,
:attr:`~repro.sim.core.Simulator.next_seq`), so a point's raw record
stream is a function of its config and seed alone — the same in a
fresh process, after other points, and in a pool worker.  A saved trace
(schema ``repro-trace/1``) keeps those raw ids.  The analysis still
compares ids only for identity and names every message in its outputs
by lineage index, so a saved trace whose ids were renumbered or offset
(as older ones were) re-ingests to the same result.

A live point keeps no trace.  The tracer hands its records to an
:class:`ExplainStream` in order, in batches of
:data:`~repro.sim.trace.STREAM_BATCH` and by
:meth:`~repro.sim.trace.Tracer.flush` at the latest, which the point
calls before it reads the analysis.  The stream holds the lineage of
open messages only, builds the scheduling windows as it goes, and
attributes each message as soon as it reads the ``msg-recv`` that
completes it, keeping just its chain timestamps until
:meth:`~ExplainStream.finish` builds its output row.  A point keeps its
records only for ``--save-trace`` or ``--smoke``; a saved trace
re-ingests through the same stream, in the same batches
(:func:`load_trace`, :func:`analyze_records`).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Union

from repro.experiments.common import point_seed, run_points
from repro.experiments.figure6 import _messages_for_quanta
from repro.fm.config import FMConfig
from repro.gluefm.switch import ValidOnlyCopy
from repro.parpar.cluster import ClusterConfig, ParParCluster
from repro.parpar.job import JobSpec
from repro.sim.trace import STREAM_BATCH, TraceRecord
from repro.telemetry.attribution import (CAUSES, WindowIndex,
                                         attribute_message, charge_nic,
                                         general_causes, message_chain,
                                         plain_causes, summarize_attribution)
from repro.telemetry.causal import (FragmentTrace, MessageTrace,
                                    WindowBuilder, _fragment)
# benchmarks/e2e/layers.py times this here; ROADMAP item 11 retires that
from repro.telemetry.causal import build_windows
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
    """One traced contention point, attributed while it runs (a batch of
    records at a time, the last batch at the end of the run).

    Returns ``(analysis, reallocs, records, end_time)``: the
    :meth:`ExplainStream.finish` analysis, the policy reallocations, and
    the raw record list if ``keep_records`` (else ``None``).
    """
    fm = FMConfig(max_contexts=max(jobs, 1), num_processors=num_processors,
                  buffer_policy=policy or "")
    cluster = ParParCluster(ClusterConfig(
        num_nodes=2, time_slots=max(jobs, 1), quantum=quantum,
        buffer_switching=True, switch_algorithm=ValidOnlyCopy(), fm=fm,
        seed=seed, trace=True,
    ))
    stream = ExplainStream()
    tracer = cluster.tracer
    tracer.stream(stream.feed, keep_records=keep_records)
    workload = bandwidth_benchmark(messages, message_bytes)
    submitted = [cluster.submit(JobSpec(f"bw{i}", 2, workload))
                 for i in range(jobs)]
    cluster.run_until_finished(submitted, max_events=500_000_000)
    end_time = cluster.sim.now
    tracer.flush()
    truncated = tracer.truncated
    records = tracer.records if keep_records else None
    reallocs = stream.reallocs()
    # The rows are built next: let the run go first (a run cluster is
    # freed at its last reference).
    del cluster, tracer, submitted
    return stream.finish(truncated, end_time), reallocs, records, end_time


# ---------------------------------------------------------------- normalize
def normalize_records(records: Iterable[TraceRecord]) -> List[list]:
    """Kept records as the ``[time, kind, fields]`` rows of a saved trace
    (schema ``repro-trace/1``), raw ids and all."""
    return [[r.time, r.kind, r.fields] for r in records]


# ---------------------------------------------------------------- analysis
#: the analysis keys that are not per-point statistics
DETAIL_KEYS = ("per_message", "windows")


def analyze_records(records: Sequence[TraceRecord], truncated: bool = False,
                    end_time: Optional[float] = None) -> dict:
    """The analysis of a kept record stream: the records fed to an
    :class:`ExplainStream` in the tracer's batches, then finished.

    The returned dict carries the aggregate statistics plus, under
    :data:`DETAIL_KEYS`, a ``per_message`` list (index, endpoints, chain
    timestamps, latency, causes) for exemplar selection and chrome
    rendering, and the serialized scheduling ``windows``.
    ``mismatches`` counts messages whose cause partition failed to sum
    to the measured latency within float tolerance — always 0 unless
    the attribution logic regresses.
    """
    stream = _fed([(r.time, r.kind, r.fields) for r in records])
    return stream.finish(truncated, end_time)


def _fed(rows: list) -> "ExplainStream":
    """An :class:`ExplainStream` fed ``rows`` of ``(time, kind, fields)``
    in lists of :data:`~repro.sim.trace.STREAM_BATCH`, as a tracer would
    hand them over."""
    stream = ExplainStream()
    for start in range(0, len(rows), STREAM_BATCH):
        stream.feed(rows[start:start + STREAM_BATCH])
    return stream


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
              mismatches: int, truncated: bool, stalls: dict,
              windows) -> dict:
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
    }


#: the record kinds that grow the scheduling windows
_WINDOW_KINDS = frozenset((
    "nic-halt", "nic-release", "buffer-switch", "ctx-remove", "ctx-install",
    "init-job", "job-stop", "job-go"))


class _Closed:
    """A completed message, as :class:`ExplainStream` keeps it until
    :meth:`~ExplainStream.finish` numbers it and builds its row: the
    :func:`~repro.telemetry.attribution.message_chain` timestamps, the
    completing fragment's index, the retransmit count, and ``causes`` only
    when the general partition made them (``None`` stands for
    :func:`~repro.telemetry.attribution.plain_causes` of the chain)."""

    __slots__ = ("dst", "nbytes", "frags", "retransmits", "frag", "started",
                 "enqueued", "first_tx", "tx", "delivered", "completed",
                 "causes")

    def __init__(self, trace: MessageTrace, frag: int, chain: tuple,
                 causes: Optional[dict]):
        self.dst = trace.dst_node
        self.nbytes = trace.nbytes
        self.frags = trace.frag_count
        self.retransmits = trace.retransmits
        self.frag = frag
        (self.started, self.enqueued, self.first_tx, self.tx,
         self.delivered, self.completed) = chain
        self.causes = causes

    def explicit_causes(self) -> dict:
        """The cause dict, built from the chain first if it is plain."""
        if self.causes is None:
            self.causes = plain_causes(self.started, self.enqueued,
                                       self.first_tx, self.tx,
                                       self.delivered, self.completed)
        return self.causes

    def row(self, index: int, key: tuple) -> dict:
        """The ``per_message`` row :func:`_row` builds for this message."""
        return {
            "index": index,
            "job": key[1],
            "src": key[0],
            "dst": self.dst,
            "nbytes": self.nbytes,
            "frags": self.frags,
            "retransmits": self.retransmits,
            "latency": self.completed - self.started,
            "causes": self.explicit_causes(),
            "chain": {
                "started": self.started,
                "enqueued": self.enqueued,
                "first_tx": self.first_tx,
                "delivered": self.delivered,
                "completed": self.completed,
            },
        }


class ExplainStream:
    """Per-message lineage and latency attribution over the tracer's
    batches.

    :meth:`feed` is a tracer sink: it takes the records in order, a
    batch at a time, and a record reaches it by the tracer's
    :meth:`~repro.sim.trace.Tracer.flush` at the latest, so flush the
    tracer before :meth:`reallocs` or :meth:`finish`.  Each open message
    keeps its lineage, a :class:`~repro.telemetry.causal.MessageTrace`
    with one :class:`~repro.telemetry.causal.FragmentTrace` per
    fragment, and the scheduling windows grow in a
    :class:`~repro.telemetry.causal.WindowBuilder`.  When a ``msg-recv``
    completes a message, everything its attribution reads is known —
    the completing fragment's chain, the sender's stalls, and the windows
    up to its completion — so it is attributed at once and its fragments
    are dropped.  What is kept of it is one compact entry: its chain
    timestamps and delivering copy, its completing fragment and
    retransmit count, and a cause dict only when a stall or a window made
    the general partition (most messages meet neither, and their causes
    are rebuilt from the chain).  The ``(src, seq)`` owner map then
    points each of its fragments' seqs at that entry, and records that
    arrive late find it there:

    - ``rto-retransmit`` counts into its ``retransmits``;
    - a ``pkt-tx`` copy of one of its fragments is a no-op, unless it is
      stamped at the completing fragment's delivery time (then it is the
      delivering copy, and the wire causes are recharged);
    - a duplicate ``pkt-deliver``, ``msg-send``, ``pkt-drop``,
      ``pkt-dup-discard`` and ``rto-give-up`` change no output;
    - a ``buffer-switch`` whose swap reaches back into a closed
      message's NIC-queue segment recharges that segment.

    A recharge first makes a plain entry's causes explicit.  Any other
    record about a completed message (a new fragment, a second
    ``msg-start``/``msg-recv``, a stall) would need the fragments that
    were dropped, and raises ``ValueError``; the simulator emits none.
    :meth:`finish` attributes what is still open against the final
    windows, numbers every message in lineage order, and builds each
    row, dropping each entry as its row is made, so the output rows
    never sit beside a second copy of the run's messages.
    """

    def __init__(self):
        self.windows = WindowBuilder()
        self.open: Dict[tuple, MessageTrace] = {}
        self.first_seen: Dict[tuple, float] = {}
        # key -> entry, in completion order
        self.closed: Dict[tuple, _Closed] = {}
        # (src, seq) -> (key, frag) while the message is open, its entry
        # once it has closed
        self.seq_owner: Dict[tuple, Union[tuple, _Closed]] = {}
        self.stalls: Dict[str, list] = {}          # cause -> [waits, seconds]
        self.realloc_records: List[TraceRecord] = []   # a few per switch
        self.last_time = 0.0

    def feed(self, batch: list) -> None:
        """Take a tracer batch of ``(time, kind, fields)`` records, in
        order.  One loop over
        one chain of kinds, most frequent first, with the state it touches
        bound to locals, so a batch costs this one call.  A record finds
        its open message with ``get_open(key) or new_trace(...)`` (a
        MessageTrace is always true), so only a record that opens one
        pays a second."""
        open_ = self.open
        get_open = open_.get
        closed = self.closed
        seq_owner = self.seq_owner
        windows = self.windows
        new_trace = self._new_trace
        for time, kind, f in batch:
            if kind == "pkt-tx":
                msg = f.get("msg", -1)
                if msg is None or msg < 0:
                    continue    # control packet (refill/halt/ready/ack)
                key = (f["node"], f["job"], msg)
                index = f.get("frag", 0)
                done = closed.get(key)
                if done is not None:
                    self._late_tx(time, key, index, f.get("seq"), done)
                    continue
                trace = get_open(key) or new_trace(key, time, kind)
                frag = trace.frags.get(index) or _fragment(trace, index)
                if frag.seq is None and f.get("seq") is not None:
                    frag.seq = f["seq"]
                    seq_owner[(key[0], frag.seq)] = (key, index)
                frag.tx_times.append(time)
            elif kind == "pkt-enq":
                key = (f["node"], f["job"], f["msg"])
                trace = get_open(key) or new_trace(key, time, kind)
                frag = _fragment(trace, f["frag"])
                frag.seq = f.get("seq")
                frag.enqueued = time
                if frag.seq is not None:
                    seq_owner[(key[0], frag.seq)] = (key, f["frag"])
            elif kind == "pkt-deliver":
                msg = f.get("msg", -1)
                if msg is None or msg < 0:
                    continue
                key = (f["src"], f["job"], msg)
                if key in closed:
                    if not self._owns(closed[key], key[0], f.get("seq")):
                        raise ValueError(f"pkt-deliver record at t={time!r} "
                                         "for an unknown fragment of "
                                         f"message {key}, which already "
                                         "completed")
                    continue    # a duplicate of a delivered fragment
                trace = get_open(key) or new_trace(key, time, kind)
                frag = self._frag_by_seq(trace, key, f.get("seq"))
                if frag.delivered is None:
                    frag.delivered = time
            elif kind == "msg-start":
                key = (f["node"], f["job"], f["msg"])
                trace = get_open(key) or new_trace(key, time, kind)
                trace.started = time
                trace.dst_node = f.get("dst")
                trace.nbytes = f.get("nbytes")
                trace.frag_count = f.get("frags")
            elif kind == "msg-send":
                key = (f["node"], f["job"], f.get("msg_id", f.get("msg")))
                if (key[2] is not None and key not in open_
                        and key not in closed):
                    new_trace(key, time, kind)
            elif kind == "msg-recv":
                msg = f.get("msg")
                src = f.get("src")
                if msg is None or src is None:
                    continue    # pre-causal record shape
                key = (src, f["job"], msg)
                trace = get_open(key) or new_trace(key, time, kind)
                trace.completed = time
                frag = trace.completing_fragment()
                chain = message_chain(trace, frag)
                if chain is None:
                    continue    # not complete (yet): finish() tries again
                del open_[key]
                del self.first_seen[key]
                done = closed[key] = _Closed(
                    trace, frag.frag, chain,
                    general_causes(trace, windows, chain))
                frags = trace.frags
                for index in frags:
                    seq_key = (key[0], frags[index].seq)
                    owner = seq_owner.get(seq_key)
                    if owner.__class__ is tuple and owner[0] == key:
                        seq_owner[seq_key] = done
            elif kind in _WINDOW_KINDS:
                windows.feed(time, kind, f)
                if kind == "buffer-switch":
                    self._swapped(f["node"], time - f.get("duration", 0.0))
            elif kind == "stall":
                cell = self.stalls.setdefault(f["cause"], [0, 0.0])
                cell[0] += 1
                cell[1] += f["dur"]
                msg = f.get("msg", -1)
                if msg is None or msg < 0:
                    continue    # anonymous stall (refill path)
                key = (f["node"], f["job"], msg)
                trace = get_open(key) or new_trace(key, time, kind)
                trace.stalls.append((f["cause"], time - f["dur"], time))
            elif kind == "rto-retransmit":
                owner = seq_owner.get((f["node"], f.get("seq")))
                if owner.__class__ is tuple:
                    open_[owner[0]].frags[owner[1]].retransmits += 1
                elif owner is not None:
                    owner.retransmits += 1
            elif kind == "realloc-plan" or kind == "realloc-apply":
                self.realloc_records.append(TraceRecord(time, kind, f))
        if batch:
            self.last_time = batch[-1][0]

    # -- lineage of open messages, and late records about closed ones -----
    def _new_trace(self, key: tuple, time: float, kind: str) -> MessageTrace:
        if key in self.closed:
            raise ValueError(f"{kind} record at t={time!r} for message "
                             f"{key}, which already completed")
        trace = self.open[key] = MessageTrace(*key)
        self.first_seen[key] = time
        return trace

    def _swapped(self, node: int, start: float) -> None:
        """Recharge the closed messages of ``node`` whose NIC-queue
        segment a swap starting at ``start`` reaches back into."""
        for key, done in reversed(self.closed.items()):
            if done.completed <= start:
                break    # completion order: every earlier one ends sooner
            if key[0] == node and done.first_tx > start:
                self._recharge(key, done)

    def _owns(self, done: _Closed, src: int, seq) -> bool:
        """Is ``seq`` a fragment of the closed message entry ``done``?"""
        return seq is not None and self.seq_owner.get((src, seq)) is done

    def _frag_by_seq(self, trace: MessageTrace, key: tuple,
                     seq) -> FragmentTrace:
        """The fragment of open message ``key`` that a ``pkt-deliver`` of
        ``seq`` names: the one that owns the seq, else fragment 0 (a
        single-fragment message, or an incomplete seq map)."""
        owner = None if seq is None else self.seq_owner.get((key[0], seq))
        if owner.__class__ is tuple and owner[0] == key:
            return _fragment(trace, owner[1])
        frag = _fragment(trace, 0)
        if frag.seq is None and seq is not None:
            frag.seq = seq
        return frag

    def _late_tx(self, time, key, index, seq, done: _Closed) -> None:
        if not self._owns(done, key[0], seq):
            raise ValueError(f"pkt-tx record at t={time!r} for an unknown "
                             f"fragment of message {key}, which already "
                             "completed")
        if index == done.frag and time <= done.delivered:
            done.tx = time    # the last copy out before the delivery
            self._recharge(key, done)

    def _recharge(self, key: tuple, done: _Closed) -> None:
        """Recharge a closed message's NIC causes against the windows and
        delivering copy known now."""
        charge_nic(done.explicit_causes(), self.windows, key[0], key[1],
                   done.enqueued, done.first_tx, done.tx, done.delivered)

    # -- the end of the stream --------------------------------------------
    def reallocs(self) -> List[dict]:
        """The policy reallocations of the stream so far."""
        return _derive_reallocs(self.realloc_records)

    def finish(self, truncated: bool = False,
               end_time: Optional[float] = None) -> dict:
        """The analysis of the whole stream.

        ``end_time`` (default: the last record's time) clips windows
        still open; it may not precede the last record.  This ends the
        stream: the lineage state is released as the rows are built.
        """
        if end_time is not None and end_time < self.last_time:
            raise ValueError(f"end_time {end_time!r} precedes the last "
                             f"record at {self.last_time!r}")
        windows = self.windows.windows(
            end_time if end_time is not None else self.last_time)
        closed, open_, first_seen = self.closed, self.open, self.first_seen
        self.seq_owner.clear()
        # lineage order: (started, key), or first seen for the unstarted
        order = [key for _, key in sorted(
            [(done.started, key) for key, done in closed.items()]
            + [(first_seen[key] if trace.started is None
                else trace.started, key) for key, trace in open_.items()])]
        first_seen.clear()
        indexed = WindowIndex(windows)
        per_message: List[dict] = []
        incomplete = 0
        for index, key in enumerate(order):
            done = closed.pop(key, None)
            if done is not None:
                per_message.append(done.row(index, key))
                continue
            trace = open_.pop(key)
            frag = trace.completing_fragment()
            att = attribute_message(trace, indexed, frag)
            if att is None:
                incomplete += 1
                continue
            per_message.append(_row(index, trace, att, frag))
        closed.clear()    # frees the emptied tables
        open_.clear()
        stalls = {cause: {"waits": cell[0], "seconds": cell[1]}
                  for cause, cell in sorted(self.stalls.items())}
        return _analysis(len(order), per_message, incomplete,
                         sum(map(_mismatched, per_message)), truncated,
                         stalls, windows)


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
    """One explain result from an :meth:`ExplainStream.finish` analysis."""
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
    """Picklable sweep worker: run and attribute one point, and turn its
    records into saved-trace rows when they are kept."""
    (jobs, message_bytes, messages, quantum, num_processors, policy, seed,
     keep_records) = args
    analysis, reallocs, raw, end_time = _run_point(
        jobs, message_bytes, messages, quantum, num_processors, policy, seed,
        keep_records)
    kept = None if raw is None else normalize_records(raw)
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
        stream = _fed(point["records"])
        reallocs = stream.reallocs()
        end_time = point.get("end_time")
        analysis = stream.finish(point.get("truncated", False), end_time)
        results.append(_result(analysis, point["config"], end_time,
                               reallocs, point["records"]))
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
