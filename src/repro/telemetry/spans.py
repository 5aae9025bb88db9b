"""Span-based tracing for multi-stage protocols.

A *span* is a named interval of simulated time with a parent/child
relationship — the natural shape of the protocols this system runs:

- a gang context switch is a ``gang-switch`` span with ``halt`` /
  ``swap`` / ``release`` children (the paper's three stages);
- a packet's life is a ``pkt-flight`` span from wire injection to
  delivery into the destination receive queue;
- a retransmit epoch spans from a sequence number's first retransmission
  to its eventual delivery (or its last retry).

Spans ride the existing :class:`~repro.sim.trace.TraceRecord` stream as
paired ``span-begin`` / ``span-end`` records carrying a span id and an
optional parent id, emitted by a :class:`SpanEmitter` (one per cluster,
so ids are globally unique and deterministic).  :func:`build_spans`
reconstructs interval objects from a record stream; the ``derive_*``
helpers synthesize packet-lifecycle and retransmit-epoch spans from the
ordinary per-packet records, so the hot paths never pay for explicit
span bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.sim.trace import TraceRecord, Tracer

SPAN_BEGIN = "span-begin"
SPAN_END = "span-end"


@dataclass(frozen=True)
class Span:
    """One reconstructed interval."""

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


_SPAN_META = frozenset(("span", "parent", "name", "cat"))


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


# ---------------------------------------------------------------- derivations
def derive_packet_spans(records: Iterable[TraceRecord],
                        next_id: int = 1_000_000,
                        truncated: bool = False) -> list[Span]:
    """Packet lifecycles from per-packet records: tx -> delivery.

    Pairs each ``pkt-tx`` carrying a seq with the next ``pkt-deliver`` of
    the same seq (per-pair FIFO makes first-match correct; a retransmitted
    seq yields one span per wire copy that arrived).

    A tx with no matching delivery is normally a genuinely lost wire copy
    (dropped, corrupted, or superseded) and yields no span.  But when the
    record stream was ``truncated`` (the tracer hit its cap mid-run) the
    delivery record may simply be missing, so each unmatched tx becomes
    an *open* span clipped to the last record time and flagged
    ``truncated=True`` — visible in the waterfall instead of silently
    dropped.
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
    """Retransmit epochs: first retransmission of a seq to its delivery.

    A seq never delivered (gave up) spans to its last retry instead; the
    span args carry the retry count and whether it was recovered.  When
    the record stream was ``truncated``, an epoch with no terminal record
    (neither delivery nor give-up reached the trace before the cap) is
    flagged ``truncated=True`` — its ``recovered=False`` is unknown, not
    a verdict.

    Records from a non-default reliability strategy carry a ``strategy``
    field; their epochs are named ``retransmit-epoch-<strategy>`` (and
    tagged in args) so strategy sweeps separate in the span summary.
    Default-strategy records carry no tag and keep the plain name — the
    pre-strategy snapshot contract is unchanged.
    """
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
    """Deterministic per-name aggregates for the unified snapshot."""
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
