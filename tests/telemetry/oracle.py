"""Offline replays of a kept record stream: the oracles of the live sinks.

The package builds its telemetry spans
(:class:`~repro.telemetry.spans.SpanSink`) and its ``repro explain``
analysis (:class:`~repro.telemetry.explain.ExplainStream`) one tracer
batch at a time.  The straightforward way to build them is to
keep the whole stream and replay it after the run, and that is what this
module does: it pairs ``span-begin``/``span-end`` records into spans,
derives packet, retransmit and causal spans, rebuilds the per-message
lineage and attributes every message.  The tests compare each streamed
result with these replays byte for byte, so they live here, apart from
the code they check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from repro.sim.trace import TraceRecord
from repro.telemetry.attribution import WindowIndex, attribute_message
from repro.telemetry.causal import (FragmentTrace, MessageTrace,
                                    build_windows)
from repro.telemetry.explain import _analysis, _mismatched, _row
from repro.telemetry.spans import SPAN_BEGIN, SPAN_END, Span

_SPAN_META = frozenset(("span", "parent", "name", "cat"))


# ---------------------------------------------------------------- spans
def build_spans(records: Iterable[TraceRecord],
                truncated: bool = False) -> list[Span]:
    """Pair begin/end records into :class:`Span` objects.

    Spans never closed (the run ended mid-protocol) are clipped to the
    last record's timestamp.  With ``truncated=True`` (the tracer hit its
    record cap) each clipped span is additionally marked with a
    ``truncated`` arg — its end record may have been lost to the cap, so
    the clipped duration is a lower bound, not a measurement.  Output is
    ordered by start time, then id.
    """
    open_spans: dict[int, TraceRecord] = {}
    closed: list[Span] = []
    last_time = 0.0
    for rec in records:
        last_time = rec.time
        kind = rec.kind
        if kind == SPAN_BEGIN:
            open_spans[rec.fields["span"]] = rec
        elif kind == SPAN_END:
            begin = open_spans.pop(rec.fields["span"], None)
            if begin is None:
                continue    # end without begin: the begin is not in this stream
            closed.append(_make_span(begin, rec.time, rec.fields))
    clip_fields = {"truncated": True} if truncated else {}
    for span_id in sorted(open_spans):
        closed.append(_make_span(open_spans[span_id], last_time, clip_fields))
    closed.sort(key=lambda s: (s.start, s.span_id))
    return closed


def _make_span(begin: TraceRecord, end_time: float, end_fields: dict) -> Span:
    f = begin.fields
    args = {k: v for k, v in f.items() if k not in _SPAN_META}
    for k, v in end_fields.items():
        if k != "span":
            args[k] = v
    return Span(span_id=f["span"], parent_id=f.get("parent"),
                name=f["name"], category=f.get("cat", ""),
                start=begin.time, end=end_time, args=args)


def derive_packet_spans(records: Iterable[TraceRecord],
                        next_id: int = 1_000_000,
                        truncated: bool = False) -> list[Span]:
    """Packet lifecycles from per-packet records: tx -> delivery.

    Pairs each ``pkt-tx`` carrying a seq with the next ``pkt-deliver`` of
    the same seq (per-pair FIFO makes first-match correct; a retransmitted
    seq yields one span per wire copy that arrived).  When the stream was
    ``truncated``, each unmatched tx becomes an open span clipped to the
    last record time and flagged ``truncated=True``.
    """
    pending: dict[tuple, list] = {}
    spans: list[Span] = []
    last_time = 0.0
    for rec in records:
        last_time = rec.time
        kind = rec.kind
        f = rec.fields
        if kind == "pkt-tx" and "seq" in f:
            pending.setdefault((f["node"], f["dst"], f["seq"]),
                               []).append(rec)
        elif kind == "pkt-deliver":
            key = (f.get("src"), f.get("node"), f.get("seq"))
            queue = pending.get(key)
            if not queue:
                continue
            tx = queue.pop(0)
            spans.append(Span(
                span_id=next_id, parent_id=None, name="pkt-flight",
                category="packet", start=tx.time, end=rec.time,
                args={"src": tx.fields["node"], "dst": tx.fields["dst"],
                      "seq": f.get("seq"), "job": tx.fields.get("job")},
            ))
            next_id += 1
    if truncated:
        leftovers = [tx for key in pending for tx in pending[key]]
        leftovers.sort(key=lambda r: (r.time, r.fields.get("seq", -1)))
        for tx in leftovers:
            f = tx.fields
            spans.append(Span(
                span_id=next_id, parent_id=None, name="pkt-flight",
                category="packet", start=tx.time, end=max(last_time, tx.time),
                args={"src": f["node"], "dst": f["dst"], "seq": f["seq"],
                      "job": f.get("job"), "truncated": True},
            ))
            next_id += 1
    return spans


def derive_retransmit_spans(records: Iterable[TraceRecord],
                            next_id: int = 2_000_000,
                            truncated: bool = False) -> list[Span]:
    """Retransmit epochs: first retransmission of a seq to its delivery,
    or to its last retry when it was never delivered.  Epochs of a
    non-default strategy are named ``retransmit-epoch-<strategy>``."""
    first_rto: dict = {}
    last_seen: dict = {}
    retries: dict = {}
    recovered: dict = {}
    strategy_of: dict = {}
    for rec in records:
        kind = rec.kind
        seq = rec.fields.get("seq")
        if seq is None:
            continue
        if kind == "rto-retransmit":
            first_rto.setdefault(seq, rec.time)
            last_seen[seq] = rec.time
            retries[seq] = retries.get(seq, 0) + 1
            tag = rec.fields.get("strategy")
            if tag is not None:
                strategy_of.setdefault(seq, tag)
        elif kind == "rto-give-up":
            last_seen[seq] = rec.time
            recovered.setdefault(seq, False)
        elif kind == "pkt-deliver" and seq in first_rto:
            last_seen[seq] = rec.time
            recovered[seq] = True
    spans = []
    for seq in sorted(first_rto):
        args = {"seq": seq, "retries": retries.get(seq, 0),
                "recovered": recovered.get(seq, False)}
        if truncated and seq not in recovered:
            args["truncated"] = True
        strategy = strategy_of.get(seq)
        name = "retransmit-epoch"
        if strategy is not None:
            name = f"retransmit-epoch-{strategy}"
            args["strategy"] = strategy
        spans.append(Span(
            span_id=next_id, parent_id=None, name=name,
            category="reliability", start=first_rto[seq],
            end=last_seen[seq], args=args,
        ))
        next_id += 1
    return spans


def summarize_spans(spans: Iterable[Span]) -> dict:
    """Per-name count and total duration, summed in list order."""
    by_name: dict[str, list] = {}
    total = 0
    for span in spans:
        total += 1
        cell = by_name.setdefault(span.name, [0, 0.0])
        cell[0] += 1
        cell[1] += span.duration
    return {
        "count": total,
        "by_name": {
            name: {"count": cell[0], "total_seconds": cell[1]}
            for name, cell in sorted(by_name.items())
        },
    }


def all_spans(records: Sequence[TraceRecord],
              truncated: bool = False) -> list[Span]:
    """Explicit spans plus the packet, retransmit and causal ones, in the
    order the snapshot used to sum them."""
    spans = build_spans(records, truncated=truncated)
    base = max((s.span_id for s in spans), default=-1) + 1
    spans += derive_packet_spans(records, next_id=max(base, 1_000_000),
                                 truncated=truncated)
    spans += derive_retransmit_spans(records,
                                     next_id=max(base, 1_000_000) + 1_000_000,
                                     truncated=truncated)
    spans += derive_causal_spans(records,
                                 next_id=max(base, 1_000_000) + 2_000_000,
                                 truncated=truncated)
    return spans


def span_summary(records: Sequence[TraceRecord],
                 truncated: bool = False) -> dict:
    """A telemetry snapshot's ``spans`` entry, replayed from ``records``."""
    summary = summarize_spans(all_spans(records, truncated))
    if truncated:
        summary["truncated"] = True
    return summary


def summarize_stalls(records: Iterable[TraceRecord]) -> dict:
    """Per-cause stall counters from raw ``stall`` records:
    ``{cause: {"waits": n, "seconds": s}}``."""
    stalls: Dict[str, list] = {}
    for rec in records:
        if rec.kind != "stall":
            continue
        cell = stalls.setdefault(rec.fields["cause"], [0, 0.0])
        cell[0] += 1
        cell[1] += rec.fields["dur"]
    return {cause: {"waits": cell[0], "seconds": cell[1]}
            for cause, cell in sorted(stalls.items())}


# ---------------------------------------------------------------- lineage
@dataclass(slots=True)
class Fragment(FragmentTrace):
    """A fragment's trace plus the fault history only the replay counts."""

    extra_deliveries: int = 0              # duplicate arrivals past the first
    dup_discards: int = 0
    drops: int = 0
    gave_up: bool = False


@dataclass(slots=True)
class Message(MessageTrace):
    """A message's trace plus what only the replay reports."""

    dst_rank: Optional[int] = None

    @property
    def key(self) -> tuple:
        return (self.src_node, self.job, self.msg_id)

    @property
    def latency(self) -> Optional[float]:
        if self.started is None or self.completed is None:
            return None
        return self.completed - self.started

    @property
    def drops(self) -> int:
        return sum(f.drops for f in self.frags.values())


def _fragment(trace: Message, index: int) -> Fragment:
    frag = trace.frags.get(index)
    if frag is None:
        frag = trace.frags[index] = Fragment(frag=index)
    return frag


def build_lineage(records: Iterable[TraceRecord]) -> List[Message]:
    """Replay a record stream into per-message causal traces.

    Returns messages ordered by ``(started, src_node, job, msg_id)``
    (unstarted messages — possible only in a clipped stream — sort
    first by the earliest record that mentioned them).
    """
    messages: Dict[tuple, Message] = {}
    seq_owner: Dict[tuple, tuple] = {}     # (src, seq) -> (key, frag)
    seq_first: Dict[int, tuple] = {}       # seq -> first (src, seq) owned
    first_seen: Dict[tuple, float] = {}

    def trace_of(key: tuple, when: float) -> Message:
        trace = messages.get(key)
        if trace is None:
            trace = Message(src_node=key[0], job=key[1], msg_id=key[2])
            messages[key] = trace
            first_seen[key] = when
        return trace

    for rec in records:
        kind = rec.kind
        f = rec.fields
        if kind == "msg-start":
            key = (f["node"], f["job"], f["msg"])
            trace = trace_of(key, rec.time)
            trace.started = rec.time
            trace.dst_node = f.get("dst")
            trace.dst_rank = f.get("dst_rank")
            trace.nbytes = f.get("nbytes")
            trace.frag_count = f.get("frags")
        elif kind == "pkt-enq":
            key = (f["node"], f["job"], f["msg"])
            trace = trace_of(key, rec.time)
            frag = _fragment(trace, f["frag"])
            frag.seq = f.get("seq")
            frag.enqueued = rec.time
            if frag.seq is not None:
                seq_owner[(key[0], frag.seq)] = (key, f["frag"])
                seq_first.setdefault(frag.seq, (key[0], frag.seq))
        elif kind == "pkt-tx":
            msg = f.get("msg", -1)
            if msg is None or msg < 0:
                continue    # control packet (refill/halt/ready/ack)
            key = (f["node"], f["job"], msg)
            trace = trace_of(key, rec.time)
            index = f.get("frag", 0)
            frag = _fragment(trace, index)
            if frag.seq is None and f.get("seq") is not None:
                frag.seq = f["seq"]
                seq_owner[(key[0], frag.seq)] = (key, index)
                seq_first.setdefault(frag.seq, (key[0], frag.seq))
            frag.tx_times.append(rec.time)
        elif kind == "pkt-deliver":
            msg = f.get("msg", -1)
            if msg is None or msg < 0:
                continue
            key = (f["src"], f["job"], msg)
            trace = messages.get(key)
            if trace is None:
                trace = trace_of(key, rec.time)
            frag = _frag_by_seq(trace, seq_owner, key, f)
            if frag.delivered is None:
                frag.delivered = rec.time
            else:
                frag.extra_deliveries += 1
        elif kind == "msg-recv":
            msg = f.get("msg")
            src = f.get("src")
            if msg is None or src is None:
                continue    # pre-causal record shape
            trace = trace_of((src, f["job"], msg), rec.time)
            trace.completed = rec.time
        elif kind == "msg-send":
            key = (f["node"], f["job"], f.get("msg_id", f.get("msg")))
            if key[2] is not None:
                trace_of(key, rec.time)
        elif kind == "stall":
            msg = f.get("msg", -1)
            if msg is None or msg < 0:
                continue    # anonymous stall (refill path)
            trace = trace_of((f["node"], f["job"], msg), rec.time)
            trace.stalls.append((f["cause"], rec.time - f["dur"], rec.time))
        elif kind == "rto-retransmit":
            owner = seq_owner.get((f["node"], f.get("seq")))
            if owner is not None:
                messages[owner[0]].frags[owner[1]].retransmits += 1
        elif kind == "rto-give-up":
            owner = seq_owner.get((f["node"], f.get("seq")))
            if owner is not None:
                messages[owner[0]].frags[owner[1]].gave_up = True
        elif kind == "pkt-dup-discard":
            owner = _dup_owner(seq_owner, seq_first, f)
            if owner is not None:
                messages[owner[0]].frags[owner[1]].dup_discards += 1
        elif kind == "pkt-drop":
            owner = _dup_owner(seq_owner, seq_first, f)
            if owner is not None:
                messages[owner[0]].frags[owner[1]].drops += 1

    return sorted(
        messages.values(),
        key=lambda t: (t.started if t.started is not None
                       else first_seen[t.key],
                       t.src_node, t.job, t.msg_id))


def _frag_by_seq(trace: Message, seq_owner: dict, key: tuple,
                 f: dict) -> Fragment:
    seq = f.get("seq")
    owner = seq_owner.get((key[0], seq)) if seq is not None else None
    if owner is not None and owner[0] == key:
        return _fragment(trace, owner[1])
    # Fallback: single-fragment message or seq map incomplete.
    frag = _fragment(trace, 0)
    if frag.seq is None and seq is not None:
        frag.seq = seq
    return frag


def _dup_owner(seq_owner: dict, seq_first: dict,
               f: dict) -> Optional[tuple]:
    """Drops/dup-discards happen at the *receiver*; the seq map is keyed
    by sender node.  Try the record's explicit src first, then the first
    sender that owned the seq (``seq_first``, filled alongside
    ``seq_owner``) — the run numbers every wire packet once, so at most
    one sender matches."""
    seq = f.get("seq")
    if seq is None:
        return None
    src = f.get("src")
    if src is not None:
        return seq_owner.get((src, seq))
    first = seq_first.get(seq)
    return None if first is None else seq_owner[first]


def derive_causal_spans(records: Iterable[TraceRecord],
                        next_id: int = 3_000_000,
                        truncated: bool = False) -> List[Span]:
    """One ``message`` span per started message, one ``stall-<cause>``
    span per stall and one ``realloc`` span per reallocation plan, sorted
    by start time, then id.  Incomplete messages appear only when the
    stream was ``truncated``, clipped to the last record time."""
    records = list(records)
    messages = build_lineage(records)
    last_time = records[-1].time if records else 0.0
    spans: List[Span] = []
    for trace in messages:
        if trace.started is None:
            continue
        for cause, start, end in trace.stalls:
            spans.append(Span(
                span_id=next_id, parent_id=None, name=f"stall-{cause}",
                category="stall", start=start, end=end,
                args={"node": trace.src_node, "job": trace.job}))
            next_id += 1
        if trace.completed is not None:
            spans.append(Span(
                span_id=next_id, parent_id=None, name="message",
                category="causal", start=trace.started, end=trace.completed,
                args={"node": trace.src_node, "dst": trace.dst_node,
                      "job": trace.job, "nbytes": trace.nbytes,
                      "frags": trace.frag_count,
                      "retransmits": trace.retransmits}))
            next_id += 1
        elif truncated:
            spans.append(Span(
                span_id=next_id, parent_id=None, name="message",
                category="causal", start=trace.started,
                end=max(last_time, trace.started),
                args={"node": trace.src_node, "dst": trace.dst_node,
                      "job": trace.job, "nbytes": trace.nbytes,
                      "frags": trace.frag_count,
                      "retransmits": trace.retransmits,
                      "truncated": True}))
            next_id += 1
    plan_open: Dict[int, TraceRecord] = {}
    plan_last: Dict[int, float] = {}
    for rec in records:
        if rec.kind == "realloc-plan":
            seq = rec.fields.get("sequence")
            plan_open.setdefault(seq, rec)
            plan_last[seq] = rec.time
        elif rec.kind == "realloc-apply":
            seq = rec.fields.get("sequence")
            if seq in plan_open:
                plan_last[seq] = rec.time
        elif rec.kind == "stall" and rec.fields.get("msg", 0) < 0:
            f = rec.fields
            spans.append(Span(
                span_id=next_id, parent_id=None,
                name=f"stall-{f['cause']}", category="stall",
                start=rec.time - f["dur"], end=rec.time,
                args={"node": f["node"], "job": f["job"]}))
            next_id += 1
    for seq in sorted(plan_open, key=lambda s: (plan_open[s].time, str(s))):
        rec = plan_open[seq]
        spans.append(Span(
            span_id=next_id, parent_id=None, name="realloc",
            category="policy", start=rec.time, end=plan_last[seq],
            args={"node": rec.fields.get("node"), "sequence": seq,
                  "jobs": rec.fields.get("jobs")}))
        next_id += 1
    spans.sort(key=lambda s: (s.start, s.span_id))
    return spans


# ---------------------------------------------------------------- explain
def analyze_records(records: Sequence[TraceRecord], truncated: bool = False,
                    end_time: Optional[float] = None) -> dict:
    """Lineage -> windows -> per-message attribution -> summary: the
    analysis ``ExplainStream.finish`` must return for the same stream."""
    traces = build_lineage(records)
    windows = build_windows(records, end_time=end_time)
    indexed = WindowIndex(windows)
    per_message: List[dict] = []
    incomplete = 0
    for index, trace in enumerate(traces):
        frag = trace.completing_fragment()
        att = attribute_message(trace, indexed, frag)
        if att is None:
            incomplete += 1
            continue
        per_message.append(_row(index, trace, att, frag))
    mismatches = sum(map(_mismatched, per_message))
    return _analysis(len(traces), per_message, incomplete, mismatches,
                     truncated, summarize_stalls(records), windows)
