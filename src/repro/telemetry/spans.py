"""Span-based tracing for multi-stage protocols.

A *span* is a named interval of simulated time with a parent/child
relationship — the natural shape of the protocols this system runs:

- a gang context switch is a ``gang-switch`` span with ``halt`` /
  ``swap`` / ``release`` children (the paper's three stages);
- a packet's life is a ``pkt-flight`` span from wire injection to
  delivery into the destination receive queue;
- a retransmit epoch spans from a sequence number's first retransmission
  to its eventual delivery (or its last retry);
- a message spans from its ``FM_send`` entry to its reassembly, a stall
  from the start to the end of the wait, and a policy reallocation from
  its plan to the last node's apply.

Spans ride the existing :class:`~repro.sim.trace.TraceRecord` stream as
paired ``span-begin`` / ``span-end`` records carrying a span id and an
optional parent id, emitted by a :class:`SpanEmitter` (one per cluster,
so ids are globally unique and deterministic).  The other spans are
implied by the ordinary per-packet and per-message records, so the hot
paths never pay for explicit span bookkeeping.

A :class:`SpanSink` on :meth:`~repro.sim.trace.Tracer.stream` pairs
the records as they are made and keeps only what the telemetry
snapshot reports: each span's name and duration, the open ends still
waiting for their close, and per-cause stall totals.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter
from typing import Optional

from repro.sim.trace import Tracer

SPAN_BEGIN = "span-begin"
SPAN_END = "span-end"


@dataclass(frozen=True)
class Span:
    """One interval, as the Chrome exporter renders it."""

    span_id: int
    parent_id: Optional[int]
    name: str
    category: str
    start: float
    end: float
    args: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanEmitter:
    """Emits span-begin/span-end records onto a tracer.

    Only traced runs build one, so call sites guard with
    ``if spans is not None:``.  Ids increase monotonically in emission
    order, which is simulation event order — deterministic.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._next_id = 0

    def begin(self, name: str, category: str = "",
              parent: Optional[int] = None, **args) -> int:
        span_id = self._next_id
        self._next_id += 1
        self.tracer.record(SPAN_BEGIN, span=span_id, parent=parent,
                           name=name, cat=category, **args)
        return span_id

    def end(self, span_id: int, **args) -> None:
        self.tracer.record(SPAN_END, span=span_id, **args)




class SpanSink:
    """Each span name's count and durations, built on the tracer stream.

    :meth:`feed` is a :meth:`~repro.sim.trace.Tracer.stream` sink.  It
    pairs ``span-begin``/``span-end`` records, each ``pkt-tx`` with the
    next ``pkt-deliver`` of the same ``(src, dst, seq)`` (per-pair FIFO),
    a seq's first ``rto-retransmit`` with its delivery or last retry, a
    message's ``msg-start`` with its ``msg-recv``, and a
    ``realloc-plan`` with the last ``realloc-apply`` of its sequence.
    A packet's tx and delivery records carry its message id, so a control
    packet (message id -1), which is never delivered, pairs with nothing
    and is kept as a bare tx time.  The sink keeps no record and no
    fragment: a start time per open span, a duration per closed one (a
    running sum for packet flights; a start and a completion time per
    message, which sorts by its start), and the per-cause ``stall``
    totals.

    :meth:`summary` adds each name's durations in a fixed order, so a
    snapshot does not depend on the order in which spans close: explicit
    spans by ``(start, span id)``; packet flights in delivery order;
    retransmit epochs by seq; and messages, stalls and reallocations by
    start time, ties broken by message lineage order ``(started, src,
    job, msg)`` — a message's stalls before it, and refill-path stalls,
    then reallocations, last.
    """

    def __init__(self):
        self.last_time = 0.0
        self.begun: dict = {}        # span id -> (name, start)
        self.ended: list = []        # (start, span id, name, duration)
        self.in_flight: dict = {}    # (src, dst, seq) -> tx times, FIFO
        self.control_tx = array("d")  # tx times of control packets
        self.flights = [0, 0.0]      # delivered: count, duration sum
        self.epochs: dict = {}       # seq -> [first, last, strategy]
        self.recovered: dict = {}    # seq -> delivered after a retry?
        self.messages: dict = {}     # (src, job, msg) -> [started, completed]
        self.stalled: list = []      # (message key or None, name, start, end)
        self.plans: dict = {}        # realloc sequence -> [plan, last]
        self.stalls: dict = {}       # cause -> [waits, seconds]

    def feed(self, batch: list) -> None:
        """Take a tracer batch of ``(time, kind, fields)`` records."""
        in_flight = self.in_flight
        epochs = self.epochs
        messages = self.messages
        for time, kind, f in batch:
            if kind == "pkt-tx":
                if "seq" not in f:
                    continue
                msg = f.get("msg")
                if msg is None or msg < 0:
                    # A control packet (refill, halt, ready, ack) has no
                    # delivery record to pair with: only a truncated
                    # stream reports it, clipped.
                    self.control_tx.append(time)
                else:
                    in_flight.setdefault((f["node"], f["dst"], f["seq"]),
                                         []).append(time)
            elif kind == "pkt-deliver":
                seq = f.get("seq")
                key = (f.get("src"), f.get("node"), seq)
                sent = in_flight.get(key)
                if sent:
                    tx = sent.pop(0)
                    if not sent:
                        del in_flight[key]
                    flights = self.flights
                    flights[0] += 1
                    flights[1] += time - tx
                if seq is not None and seq in epochs:
                    epochs[seq][1] = time
                    self.recovered[seq] = True
            elif kind == "msg-start":
                key = (f["node"], f["job"], f["msg"])
                messages.setdefault(key, [None, None])[0] = time
            elif kind == "msg-recv":
                msg = f.get("msg")
                src = f.get("src")
                if msg is not None and src is not None:
                    key = (src, f["job"], msg)
                    messages.setdefault(key, [None, None])[1] = time
            elif kind == "stall":
                cell = self.stalls.setdefault(f["cause"], [0, 0.0])
                cell[0] += 1
                cell[1] += f["dur"]
                msg = f.get("msg")
                if msg is not None:
                    # msg -1: the refill path stalls for no message
                    key = None if msg < 0 else (f["node"], f["job"], msg)
                    self.stalled.append((key, f"stall-{f['cause']}",
                                         time - f["dur"], time))
            elif kind == SPAN_BEGIN:
                self.begun[f["span"]] = (f["name"], time)
            elif kind == SPAN_END:
                begun = self.begun.pop(f["span"], None)
                if begun is not None:
                    name, start = begun
                    self.ended.append((start, f["span"], name, time - start))
            elif kind == "rto-retransmit":
                seq = f.get("seq")
                if seq is not None:
                    epoch = epochs.setdefault(seq, [time, time, None])
                    epoch[1] = time
                    if epoch[2] is None:
                        epoch[2] = f.get("strategy")
            elif kind == "rto-give-up":
                seq = f.get("seq")
                if seq is not None:
                    if seq in epochs:
                        epochs[seq][1] = time
                    self.recovered.setdefault(seq, False)
            elif kind == "realloc-plan":
                plan = self.plans.setdefault(f.get("sequence"), [time, 0.0])
                plan[1] = time
            elif kind == "realloc-apply":
                plan = self.plans.get(f.get("sequence"))
                if plan is not None:
                    plan[1] = time
        if batch:
            self.last_time = batch[-1][0]

    def summary(self, truncated: bool = False) -> dict:
        """The snapshot's ``spans`` entry: span count, and count and
        total seconds per name.  Spans still open at the end are clipped
        to the last record.  A ``truncated`` stream (the tracer hit its
        record cap) is flagged, and also reports the packet flights and
        messages it cut off."""
        last = self.last_time
        by_name: dict = {}
        if self.flights[0]:
            by_name["pkt-flight"] = list(self.flights)

        def add(spans):
            for name, duration in spans:
                cell = by_name.get(name)
                if cell is None:
                    cell = by_name[name] = [0, 0.0]
                cell[0] += 1
                cell[1] += duration

        explicit = self.ended + [(start, span, name, last - start)
                                 for span, (name, start)
                                 in sorted(self.begun.items())]
        explicit.sort(key=itemgetter(0, 1))
        add((name, duration) for _, _, name, duration in explicit)
        if truncated:
            cut = sorted(chain(self.control_tx, *self.in_flight.values()))
            add(("pkt-flight", max(last, tx) - tx) for tx in cut)
        add(("retransmit-epoch" if strategy is None
             else f"retransmit-epoch-{strategy}", end - start)
            for start, end, strategy in (self.epochs[seq]
                                         for seq in sorted(self.epochs)))
        add((name, end - start)
            for start, name, end in self._causal(truncated))
        summary = {
            "count": sum(cell[0] for cell in by_name.values()),
            "by_name": {name: {"count": cell[0], "total_seconds": cell[1]}
                        for name, cell in sorted(by_name.items())},
        }
        if truncated:
            summary["truncated"] = True
        return summary

    def _causal(self, truncated: bool) -> list:
        """``(start, name, end)`` of each message, stall and reallocation
        span, in start order, ties in lineage order."""
        stalls_of: dict = {}
        for key, name, start, end in self.stalled:
            stalls_of.setdefault(key, []).append((start, name, end))
        spans = []
        for started, key in sorted((entry[0], key) for key, entry
                                   in self.messages.items()
                                   if entry[0] is not None):
            spans += stalls_of.get(key, ())
            completed = self.messages[key][1]
            if completed is not None:
                spans.append((started, "message", completed))
            elif truncated:
                spans.append((started, "message",
                              max(self.last_time, started)))
        spans += stalls_of.get(None, ())
        plans = self.plans
        spans += [(plans[seq][0], "realloc", plans[seq][1]) for seq in
                  sorted(plans, key=lambda seq: (plans[seq][0], str(seq)))]
        spans.sort(key=itemgetter(0))
        return spans
