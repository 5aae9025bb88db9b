"""Causal lineage over the trace-record stream.

The instrumented hot paths emit flat per-event records (``msg-start``,
``pkt-enq``, ``pkt-tx``, ``pkt-deliver``, ``msg-recv``, ``stall``,
``rto-*`` …) precisely because flat records are cheap: one dict per
event, no cross-references, zero cost when tracing is off.  This module
is the offline half of the bargain — it replays a record stream and
reconstructs the *causal DAG* the records imply:

- a :class:`MessageTrace` per application message, keyed by
  ``(src_node, job, msg_id)`` (the run numbers its messages from 0, so
  the triple is unique within one simulation), holding one
  :class:`FragmentTrace` per wire fragment with its enqueue / first-tx /
  last-tx / delivery timestamps, retransmit history, and drop counts —
  the cross-node edge (tx on the source NIC → deliver on the destination
  NIC) is exactly a Dapper-style *follows-from* link;
- per-node and per-(node, job) *scheduling windows* — halted-NIC
  intervals, buffer-swap intervals, stored-context intervals, and
  SIGSTOP/descheduled intervals — against which
  :mod:`repro.telemetry.attribution` charges the parts of a message's
  latency that overlap them.

Everything here is pure replay: deterministic, order-preserving, and
safe to run on a truncated stream (open intervals clip to the last
record time; incomplete messages are reported as such, never guessed).
The windows are built one record at a time (:class:`WindowBuilder`), so
the same code serves the offline replay and a live
:class:`~repro.telemetry.explain.ExplainStream`.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.sim.trace import TraceRecord
from repro.telemetry.spans import Span

#: record kinds the lineage builder consumes
CAUSAL_KINDS = frozenset((
    "msg-start", "pkt-enq", "pkt-tx", "pkt-deliver", "pkt-drop",
    "msg-recv", "stall", "rto-retransmit", "rto-give-up",
    "pkt-dup-discard", "nic-halt", "nic-release", "buffer-switch",
    "ctx-install", "ctx-remove", "init-job", "job-stop", "job-go",
    "realloc-plan", "realloc-apply", "window-set",
))


@dataclass(slots=True)
class FragmentTrace:
    """One wire fragment's life, summarised from its per-packet records."""

    frag: int
    seq: Optional[int] = None
    enqueued: Optional[float] = None       # pkt-enq: host PIO into send queue
    tx_times: List[float] = field(default_factory=list)   # every wire copy
    delivered: Optional[float] = None      # first pkt-deliver
    extra_deliveries: int = 0              # duplicate arrivals past the first
    retransmits: int = 0
    dup_discards: int = 0
    drops: int = 0
    gave_up: bool = False

    @property
    def first_tx(self) -> Optional[float]:
        return self.tx_times[0] if self.tx_times else None

    @property
    def delivering_tx(self) -> Optional[float]:
        """The wire copy that plausibly delivered: last tx at or before
        the delivery (a spurious retransmit after a lost ack can fire
        *later* than the delivery and must not be mistaken for it)."""
        delivered = self.delivered
        if delivered is None or not self.tx_times:
            return None
        for t in reversed(self.tx_times):
            if t <= delivered:
                return t
        return self.tx_times[0]


@dataclass(slots=True)
class MessageTrace:
    """One application message's causal trace."""

    src_node: int
    job: int
    msg_id: int
    dst_node: Optional[int] = None
    dst_rank: Optional[int] = None
    nbytes: Optional[int] = None
    frag_count: Optional[int] = None
    started: Optional[float] = None        # msg-start: FM_send entry
    completed: Optional[float] = None      # msg-recv: reassembly finished
    frags: Dict[int, FragmentTrace] = field(default_factory=dict)
    stalls: List[Tuple[str, float, float]] = field(default_factory=list)

    @property
    def key(self) -> tuple:
        return (self.src_node, self.job, self.msg_id)

    @property
    def latency(self) -> Optional[float]:
        if self.started is None or self.completed is None:
            return None
        return self.completed - self.started

    @property
    def complete(self) -> bool:
        """True when the full send-to-reassembly chain was observed."""
        if self.started is None or self.completed is None:
            return False
        if self.frag_count is None or len(self.frags) < self.frag_count:
            return False
        for f in self.frags.values():
            if f.enqueued is None or not f.tx_times or f.delivered is None:
                return False
        return True

    def completing_fragment(self) -> Optional[FragmentTrace]:
        """The fragment whose delivery finished the message (latest
        delivery, then highest index; per-pair FIFO makes it the last one
        extracted)."""
        last = None
        for f in self.frags.values():
            if f.delivered is not None and (
                    last is None
                    or (f.delivered, f.frag) > (last.delivered, last.frag)):
                last = f
        return last

    @property
    def retransmits(self) -> int:
        total = 0
        for f in self.frags.values():
            total += f.retransmits
        return total

    @property
    def drops(self) -> int:
        return sum(f.drops for f in self.frags.values())


def build_lineage(records: Iterable[TraceRecord]) -> List[MessageTrace]:
    """Replay a record stream into per-message causal traces.

    Returns messages ordered by ``(started, src_node, job, msg_id)``
    (unstarted messages — possible only in a clipped stream — sort
    first by the earliest record that mentioned them).  Records are
    consumed in stream order; the builder never reorders, so the same
    stream always yields the same lineage.
    """
    messages: Dict[tuple, MessageTrace] = {}
    seq_owner: Dict[tuple, tuple] = {}     # (src, seq) -> (key, frag)
    seq_first: Dict[int, tuple] = {}       # seq -> first (src, seq) owned
    first_seen: Dict[tuple, float] = {}

    def trace_of(key: tuple, when: float) -> MessageTrace:
        trace = messages.get(key)
        if trace is None:
            trace = MessageTrace(src_node=key[0], job=key[1], msg_id=key[2])
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

    ordered = sorted(
        messages.values(),
        key=lambda t: (t.started if t.started is not None
                       else first_seen[t.key],
                       t.src_node, t.job, t.msg_id))
    return ordered


def _fragment(trace: MessageTrace, index: int) -> FragmentTrace:
    """``trace``'s fragment ``index``, created only when it is missing."""
    frag = trace.frags.get(index)
    if frag is None:
        frag = trace.frags[index] = FragmentTrace(frag=index)
    return frag


def _frag_by_seq(trace: MessageTrace, seq_owner: dict, key: tuple,
                 f: dict) -> FragmentTrace:
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


# ---------------------------------------------------------------- windows
Interval = Tuple[float, float]


def _clip(intervals: Sequence[Interval], lo: float, hi: float,
          first: int = 0, stop: Optional[int] = None) -> List[Interval]:
    """The non-empty pieces of ``intervals[first:stop]`` inside
    ``[lo, hi]``, in order, without copying the slice.  A piece is
    ``(max(start, lo), min(end, hi))``; the conditional expressions pick
    the same operand those builtins pick, ties included."""
    out = []
    for i in range(first, len(intervals) if stop is None else stop):
        start, end = intervals[i]
        s = lo if lo > start else start
        e = hi if hi < end else end
        if e > s:
            out.append((s, e))
    return out


@dataclass(frozen=True)
class SchedulingWindows:
    """Interval sets the attribution pass charges overlap against."""

    halted: Dict[int, List[Interval]]           # node -> intervals
    swapping: Dict[int, List[Interval]]         # node -> intervals
    stored: Dict[tuple, List[Interval]]         # (node, job) -> ...
    stopped: Dict[tuple, List[Interval]]        # (node, job) -> ...


class LiveIntervals:
    """One key's windows while the stream is still running: the closed
    intervals in the order their closing records came, their ends (which
    therefore never decrease), and the open edge, if any."""

    __slots__ = ("closed", "ends", "open")

    def __init__(self):
        self.closed: List[Interval] = []
        self.ends: List[float] = []
        self.open: Optional[float] = None

    def add(self, start: float, end: float) -> None:
        self.closed.append((start, end))
        self.ends.append(end)

    def clip(self, lo: float, hi: float) -> List[Interval]:
        """The pieces inside ``[lo, hi]``, for ``hi`` no later than the
        last record fed.  An open window closes at or after that record,
        so it clips exactly as its final interval will."""
        pieces = _clip(self.closed, lo, hi, bisect_right(self.ends, lo))
        if self.open is not None:
            start = max(self.open, lo)
            if hi > start:
                pieces.append((start, hi))
        return pieces

    def misses(self, lo: float, hi: float) -> bool:
        """O(1): is :meth:`clip` sure to return no piece?  True when every
        closed interval ends at or before ``lo`` (``ends[-1]`` is the
        latest end) and no window is open before ``hi``."""
        ends = self.ends
        return ((not ends or ends[-1] <= lo)
                and (self.open is None or self.open >= hi))


class WindowBuilder:
    """:class:`SchedulingWindows` built one record at a time.

    ``halted``, ``swapping``, ``stored`` and ``stopped`` map each key to
    its :class:`LiveIntervals`, so the builder can stand in for a
    :class:`~repro.telemetry.attribution.WindowIndex` while the stream
    runs (for a message that completed no later than the last record).
    Repeated opens (a fail-stop SIGSTOPping an already-parked process)
    keep the earliest open edge; a close with no open edge is ignored.
    """

    __slots__ = ("halted", "swapping", "stored", "stopped")

    def __init__(self):
        self.halted: Dict[int, LiveIntervals] = {}
        self.swapping: Dict[int, LiveIntervals] = {}
        self.stored: Dict[tuple, LiveIntervals] = {}
        self.stopped: Dict[tuple, LiveIntervals] = {}

    def feed(self, time: float, kind: str, f: dict) -> None:
        if kind == "nic-halt":
            _open(self.halted, f["node"], time)
        elif kind == "nic-release":
            _close(self.halted, f["node"], time)
        elif kind == "buffer-switch":
            live = self.swapping.get(f["node"])
            if live is None:
                live = self.swapping[f["node"]] = LiveIntervals()
            live.add(time - f.get("duration", 0.0), time)
        elif kind == "ctx-remove":
            _open(self.stored, (f["node"], f["job"]), time)
        elif kind == "ctx-install":
            _close(self.stored, (f["node"], f["job"]), time)
        elif kind == "init-job" and not f.get("installed", True):
            _open(self.stored, (f["node"], f["job"]), time)
        elif kind == "job-stop":
            _open(self.stopped, (f["node"], f["job"]), time)
        elif kind == "job-go":
            _close(self.stopped, (f["node"], f["job"]), time)

    def windows(self, clip: float) -> SchedulingWindows:
        """The final windows, open intervals clipped to ``clip``."""
        def final(table):
            return {key: live.closed if live.open is None
                    else [*live.closed, (live.open, max(clip, live.open))]
                    for key, live in table.items()}
        return SchedulingWindows(halted=final(self.halted),
                                 swapping=final(self.swapping),
                                 stored=final(self.stored),
                                 stopped=final(self.stopped))


def _open(table: dict, key, time: float) -> None:
    live = table.get(key)
    if live is None:
        live = table[key] = LiveIntervals()
    if live.open is None:
        live.open = time


def _close(table: dict, key, time: float) -> None:
    live = table.get(key)
    if live is not None and live.open is not None:
        live.add(live.open, time)
        live.open = None


def build_windows(records: Iterable[TraceRecord],
                  end_time: Optional[float] = None) -> SchedulingWindows:
    """Derive halted / swapping / stored / descheduled intervals.

    Open intervals (a halt with no release before the stream ended) are
    clipped to ``end_time`` (default: the last record's timestamp).
    """
    builder = WindowBuilder()
    last_time = 0.0
    for rec in records:
        last_time = rec.time
        builder.feed(rec.time, rec.kind, rec.fields)
    return builder.windows(end_time if end_time is not None else last_time)


# ---------------------------------------------------------------- spans
def derive_causal_spans(records: Iterable[TraceRecord],
                        next_id: int = 3_000_000,
                        truncated: bool = False) -> List[Span]:
    """Span view of the causal layer for exporters and snapshots.

    Emits one ``message`` span per message (category ``causal``), one
    ``stall-<cause>`` span per recorded stall (category ``stall``), and
    one ``realloc`` span per policy-engine reallocation plan (category
    ``policy``, spanning from the plan computation to the last node's
    apply).  Incomplete messages appear only when the stream was
    ``truncated`` — flagged, clipped to the last record time.
    """
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
    # Reallocation spans: plan record opens, last apply of the same
    # sequence closes.  Also emits anonymous stalls (refill path) so the
    # snapshot's stall totals match the stall-record totals.
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
