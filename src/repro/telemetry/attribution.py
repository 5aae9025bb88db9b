"""Stall-clock attribution: where did each message's latency go?

Given a :class:`~repro.telemetry.causal.MessageTrace` and the
:class:`~repro.telemetry.causal.SchedulingWindows` derived from the same
record stream, :func:`attribute_message` partitions the message's
end-to-end latency — FM_send entry to reassembly completion — into named
causes.  The partition is *exact by construction*: the critical path
through the causal DAG is the chain

    msg-start → pkt-enq(f) → first-tx(f) → delivering-tx(f)
              → pkt-deliver(f) → msg-recv

where ``f`` is the completing fragment (the one delivered last — per-pair
FIFO makes it the one whose extraction finishes reassembly).  Each chain
segment is then split against recorded stalls and scheduling windows:

=================  ======================================================
host-send          sender CPU: fragmentation, PIO, overheads
credit-stall       sender blocked on a zero credit window
buffer-full        sender blocked on a full send queue
stored-context     fragment parked in a paged-out context (backing store)
buffer-swap        fragment frozen during the buffer-copy stage
gang-barrier       fragment gated by the halted NIC (flush/release wait)
nic-queue          fragment queued behind other traffic on a live NIC
retransmit-backoff lost wire copies: first tx to the delivering tx
wire               injection + flight of the copy that arrived
descheduled        delivered, but the receiving process was SIGSTOPped
host-pickup        receiver CPU: extraction, copy, reassembly
=================  ======================================================

Overlap priority within a segment is fixed (stored-context, then
buffer-swap, then gang-barrier; the remainder is nic-queue), so causes
never double-count and always sum to the measured latency to float
round-off.  This is the accounting the paper does by argument — credits,
halted NICs, and swap copies each tax user-level communication — made
measurable per message.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import accumulate
from typing import Any, Dict, Iterable, List, Optional, Union

from repro.sim.trace import TraceRecord
from repro.telemetry.causal import (Interval, LiveIntervals, MessageTrace,
                                    SchedulingWindows, WindowBuilder, _clip)

#: every cause, in waterfall (chain) order
CAUSES = (
    "host-send", "credit-stall", "buffer-full", "stored-context",
    "buffer-swap", "gang-barrier", "nic-queue", "retransmit-backoff",
    "wire", "descheduled", "host-pickup",
)

_STALL_CAUSE = {"credit": "credit-stall", "buffer-full": "buffer-full"}

#: the causes of chain segments B (NIC queue) and C (the wire)
NIC_CAUSES = ("stored-context", "buffer-swap", "gang-barrier", "nic-queue",
              "retransmit-backoff", "wire")


class IntervalIndex:
    """One interval list, indexed so :meth:`clip` skips what cannot overlap.

    ``ends[i]`` is the largest end among intervals ``0..i`` and
    ``starts[i]`` the smallest start among ``i..n-1``; both are
    non-decreasing whatever order the intervals are in.  Intervals before
    the first ``ends[i] > lo`` all end at or before ``lo``, and intervals
    from the first ``starts[j] >= hi`` on all start at or after ``hi``,
    so neither can clip to a non-empty piece.  :meth:`clip` therefore
    returns exactly ``_clip(intervals, lo, hi)``, in the same order.
    """

    __slots__ = ("intervals", "ends", "starts")

    def __init__(self, intervals: Iterable[Interval]):
        self.intervals = list(intervals)
        self.ends = list(accumulate((e for _, e in self.intervals), max))
        self.starts = list(accumulate(
            (s for s, _ in reversed(self.intervals)), min))[::-1]

    def clip(self, lo: float, hi: float) -> List[Interval]:
        first = bisect_right(self.ends, lo)
        stop = bisect_left(self.starts, hi, first)
        return _clip(self.intervals[first:stop], lo, hi)


class WindowIndex:
    """:class:`SchedulingWindows` with every interval list indexed.

    Build one per record stream and pass it to :func:`attribute_message`
    for every message, instead of rescanning whole window lists.  (A
    :class:`~repro.telemetry.causal.WindowBuilder` serves the same
    lookups while the stream is still running.)
    """

    __slots__ = ("halted", "swapping", "stored", "stopped")

    def __init__(self, windows: SchedulingWindows):
        for name in self.__slots__:
            setattr(self, name, {key: IntervalIndex(ivs) for key, ivs
                                 in getattr(windows, name).items()})


def _clip_in(table: Dict[Any, Union[IntervalIndex, LiveIntervals]], key,
             lo: float, hi: float) -> List[Interval]:
    """``table[key]``'s intervals clipped to ``[lo, hi]`` (none if absent)."""
    intervals = table.get(key)
    return [] if intervals is None else intervals.clip(lo, hi)


def _total(intervals: Iterable[Interval]) -> float:
    return sum(e - s for s, e in intervals)


def _subtract(base: List[Interval],
              cut: List[Interval]) -> List[Interval]:
    """``base`` minus ``cut`` (both interval lists; result is disjoint)."""
    result = base
    for cs, ce in cut:
        nxt: List[Interval] = []
        for s, e in result:
            if ce <= s or cs >= e:
                nxt.append((s, e))
                continue
            if s < cs:
                nxt.append((s, cs))
            if ce < e:
                nxt.append((ce, e))
        result = nxt
    return result


Windows = Union[SchedulingWindows, WindowIndex, WindowBuilder]


def attribute_message(trace: MessageTrace,
                      windows: Windows) -> Optional[dict]:
    """Exact latency partition for one complete message.

    Returns ``{"latency": s, "causes": {cause: seconds}}`` (every cause
    key present, zero-filled) or ``None`` when the trace is incomplete —
    a truncated stream, a kinds-filtered tracer, or a message still in
    flight when the run ended.  Pass a :class:`WindowIndex` when
    attributing many messages against the same windows, or the live
    :class:`~repro.telemetry.causal.WindowBuilder` of a stream that has
    just completed ``trace``.
    """
    if not trace.complete:
        return None
    if isinstance(windows, SchedulingWindows):
        windows = WindowIndex(windows)
    frag = trace.completing_fragment()
    if frag is None or frag.enqueued is None:
        return None
    t_start = trace.started
    t_end = trace.completed
    enq = frag.enqueued
    first_tx = frag.first_tx
    tx = frag.delivering_tx
    deliver = frag.delivered
    # Chain sanity: the stream is event-ordered, so these hold unless the
    # trace was stitched from mismatched streams.
    if not (t_start <= enq <= first_tx <= deliver <= t_end):
        return None
    causes = dict.fromkeys(CAUSES, 0.0)

    # -- segment A: sender host, [t_start, enq] -------------------------
    # Recorded stalls are sequential sender waits; clip to the segment
    # (stalls of later fragments fall outside it).  Of what remains,
    # time the *sender* spent SIGSTOPped is descheduled, not CPU work —
    # without this split a send interrupted by a gang switch would book
    # whole quanta as host-send.  (Each "if" below skips only work whose
    # result would be an exact no-op: subtracting nothing, adding 0.0.)
    remaining_a = [(t_start, enq)]
    if trace.stalls:
        stall_ivs: List[Interval] = []
        for stall_cause, s, e in trace.stalls:
            clipped = _clip([(s, e)], t_start, enq)
            causes[_STALL_CAUSE.get(stall_cause, stall_cause)] += _total(
                clipped)
            stall_ivs.extend(clipped)
        remaining_a = _subtract(remaining_a, _merge(stall_ivs))
    src_stopped = _clip_in(windows.stopped, (trace.src_node, trace.job),
                           t_start, enq)
    before_a = _total(remaining_a)
    if src_stopped:
        remaining_a = _subtract(remaining_a, _merge(src_stopped))
        causes["descheduled"] += before_a - _total(remaining_a)
        before_a = _total(remaining_a)
    causes["host-send"] = before_a

    charge_nic(causes, windows, trace.src_node, trace.job, enq, first_tx,
               tx, deliver)

    # -- segment D: receiver host, [deliver, t_end] ---------------------
    desched = _clip_in(windows.stopped, (trace.dst_node, trace.job),
                       deliver, t_end)
    if desched:
        desched_total = _total(_merge(desched))
        causes["descheduled"] += desched_total
        causes["host-pickup"] += (t_end - deliver) - desched_total
    else:
        causes["host-pickup"] += t_end - deliver

    return {"latency": t_end - t_start, "causes": causes}


def charge_nic(causes: Dict[str, float], windows: Windows, src: int,
               job: int, enq: float, first_tx: float, tx: float,
               deliver: float) -> None:
    """(Re)charge :data:`NIC_CAUSES`, segments B and C of the chain.

    Nothing else writes these causes, so a partition whose swap windows
    or delivering copy became known only after it was made can be
    brought up to date by calling this again.
    """
    for cause in NIC_CAUSES:
        causes[cause] = 0.0
    # -- segment B: NIC queue, [enq, first_tx] --------------------------
    # Priority: stored-context ⊃ buffer-swap ⊃ gang-barrier; remainder is
    # honest queueing behind other traffic.
    remaining = [(enq, first_tx)]
    for cause, table, key in (
            ("stored-context", windows.stored, (src, job)),
            ("buffer-swap", windows.swapping, src),
            ("gang-barrier", windows.halted, src)):
        overlap = _clip_in(table, key, enq, first_tx)
        if overlap:
            before = _total(remaining)
            remaining = _subtract(remaining, _merge(overlap))
            causes[cause] += before - _total(remaining)
    causes["nic-queue"] += _total(remaining)

    # -- segment C: the wire, [first_tx, deliver] -----------------------
    causes["retransmit-backoff"] += tx - first_tx
    causes["wire"] += deliver - tx


def _merge(intervals: List[Interval]) -> List[Interval]:
    if not intervals:
        return []
    intervals = sorted(intervals)
    merged = [intervals[0]]
    for s, e in intervals[1:]:
        ls, le = merged[-1]
        if s <= le:
            merged[-1] = (ls, max(le, e))
        else:
            merged.append((s, e))
    return merged


# ---------------------------------------------------------------- aggregates
def percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation)."""
    if not sorted_values:
        return 0.0
    exact = q * len(sorted_values)
    rank = int(exact)
    if exact > rank:
        rank += 1          # ceil without importing math
    rank = min(len(sorted_values), max(1, rank))
    return sorted_values[rank - 1]


def summarize_attribution(attributions: List[dict]) -> dict:
    """Aggregate per-message partitions into a waterfall summary.

    Returns totals, means, and nearest-rank p50/p90/p99 of both latency
    and each cause's share — everything in seconds, deterministic.
    """
    n = len(attributions)
    summary = {
        "messages": n,
        "latency": _stats([a["latency"] for a in attributions]),
        "causes": {},
    }
    for cause in CAUSES:
        summary["causes"][cause] = _stats(
            [a["causes"][cause] for a in attributions])
    return summary


def _stats(values: List[float]) -> dict:
    if not values:
        return {"total": 0.0, "mean": 0.0, "p50": 0.0, "p90": 0.0,
                "p99": 0.0, "max": 0.0}
    ordered = sorted(values)
    total = sum(ordered)
    return {
        "total": total,
        "mean": total / len(ordered),
        "p50": percentile(ordered, 0.50),
        "p90": percentile(ordered, 0.90),
        "p99": percentile(ordered, 0.99),
        "max": ordered[-1],
    }


def summarize_stalls(records: Iterable[TraceRecord]) -> dict:
    """Per-cause stall counters from raw ``stall`` records.

    ``{cause: {"waits": n, "seconds": s}}`` — the registry harvest and
    the snapshot schema's ``stall.*`` metrics come from exactly this.
    """
    stalls: Dict[str, list] = {}
    for rec in records:
        if rec.kind != "stall":
            continue
        cell = stalls.setdefault(rec.fields["cause"], [0, 0.0])
        cell[0] += 1
        cell[1] += rec.fields["dur"]
    return {cause: {"waits": cell[0], "seconds": cell[1]}
            for cause, cell in sorted(stalls.items())}
