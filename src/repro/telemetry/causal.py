"""Causal lineage over the trace-record stream.

The instrumented hot paths emit flat per-event records (``msg-start``,
``pkt-enq``, ``pkt-tx``, ``pkt-deliver``, ``msg-recv``, ``stall``,
``rto-*`` …) precisely because flat records are cheap: one dict per
event, no cross-references, zero cost when tracing is off.  This module
holds what the records imply once they are put together:

- a :class:`MessageTrace` per application message, keyed by
  ``(src_node, job, msg_id)`` (the run numbers its messages from 0, so
  the triple is unique within one simulation), holding one
  :class:`FragmentTrace` per wire fragment with its enqueue / first-tx /
  last-tx / delivery timestamps and retransmit count — the cross-node
  edge (tx on the source NIC → deliver on the destination NIC) is
  exactly a Dapper-style *follows-from* link;
- per-node and per-(node, job) *scheduling windows* — halted-NIC
  intervals, buffer-swap intervals, stored-context intervals, and
  SIGSTOP/descheduled intervals — against which
  :mod:`repro.telemetry.attribution` charges the parts of a message's
  latency that overlap them.

:class:`~repro.telemetry.explain.ExplainStream` builds the lineage of
each open message as its records arrive.  The windows are built one
record at a time too (:class:`WindowBuilder`), deterministic and safe
on a truncated stream: open intervals clip to the last record time.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.sim.trace import TraceRecord


@dataclass(slots=True)
class FragmentTrace:
    """One wire fragment's life, summarised from its per-packet records."""

    frag: int
    seq: Optional[int] = None
    enqueued: Optional[float] = None       # pkt-enq: host PIO into send queue
    tx_times: List[float] = field(default_factory=list)   # every wire copy
    delivered: Optional[float] = None      # first pkt-deliver
    retransmits: int = 0

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
    nbytes: Optional[int] = None
    frag_count: Optional[int] = None
    started: Optional[float] = None        # msg-start: FM_send entry
    completed: Optional[float] = None      # msg-recv: reassembly finished
    frags: Dict[int, FragmentTrace] = field(default_factory=dict)
    stalls: List[Tuple[str, float, float]] = field(default_factory=list)

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


def _fragment(trace: MessageTrace, index: int) -> FragmentTrace:
    """``trace``'s fragment ``index``, created only when it is missing."""
    frag = trace.frags.get(index)
    if frag is None:
        frag = trace.frags[index] = FragmentTrace(frag=index)
    return frag


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
