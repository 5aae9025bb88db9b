"""Structured tracing of simulation events.

Protocol models emit trace records (packet sent, halt broadcast, buffer
switch stage, ...) so tests can assert on *sequences* of behaviour and the
experiment harness can post-process timings without instrumenting the
models further.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Optional


class TraceRecord:
    """One trace entry: a timestamped, typed, tagged observation.

    A plain ``__slots__`` class rather than a dataclass: traced runs
    build one per record, hundreds of thousands per run.  Treat it as
    immutable.  Unknown attributes forward to ``fields``
    (``rec.node is rec.fields["node"]``).
    """

    __slots__ = ("time", "kind", "fields")

    def __init__(self, time: float, kind: str,
                 fields: Optional[dict] = None):
        self.time = time
        self.kind = kind
        self.fields = {} if fields is None else fields

    def __getattr__(self, name: str) -> Any:
        try:
            return self.fields[name]
        except KeyError:
            raise AttributeError(name) from None

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.time, self.kind, self.fields)
                == (other.time, other.kind, other.fields))

    def __repr__(self) -> str:
        return (f"TraceRecord(time={self.time!r}, kind={self.kind!r}, "
                f"fields={self.fields!r})")

    def __reduce__(self):
        return (TraceRecord, (self.time, self.kind, self.fields))


class Tracer:
    """Collects :class:`TraceRecord` objects; can be disabled for speed.

    ``kinds`` restricts recording to an allow-list, which keeps hot-path
    tracing (per-packet events) out of long experiment runs.

    Truthiness is the O(1) hot-path guard: models write
    ``if tracer: tracer.record(...)`` so that when no recorder is attached
    (the :class:`NullTracer` default, which is always falsy) a per-packet
    trace point costs a single boolean check — no call, no kwargs dict.
    When the tracer *is* on but a ``kinds`` filter is active, the kwargs
    dict for ``record(kind, **fields)`` is still built by the interpreter
    at the call site; per-packet sites therefore guard with
    ``if tracer and tracer.wants("pkt-tx"):`` so a filtered-out kind costs
    one membership test instead of a dict build plus a discarded call.

    ``limit`` caps the record stream so an unbounded run cannot silently
    exhaust memory: once ``limit`` records have been made the tracer
    disables itself (all ``if tracer:`` guards go cold) and sets
    ``truncated`` so consumers can tell a complete stream from a clipped
    one.

    :meth:`stream` hands each record to a sink as it is made, and may
    stop the tracer keeping them: an online consumer then never holds the
    whole stream.  ``records`` stays an (empty) list on such a tracer;
    :meth:`kept_records` and every query over it raise instead of
    reporting an empty stream.
    """

    def __init__(self, clock: Callable[[], float], enabled: bool = True,
                 kinds: Optional[set[str]] = None,
                 limit: Optional[int] = None):
        self._clock = clock
        self.enabled = enabled
        self.kinds = kinds
        self.limit = limit
        self.truncated = False
        self.records: list[TraceRecord] = []
        self.keep_records = True
        self.sink: Optional[Callable[[float, str, dict], None]] = None
        self.count = 0       # records made since the last clear()

    def __bool__(self) -> bool:
        return self.enabled

    def wants(self, kind: str) -> bool:
        """Would a record of ``kind`` be kept?  (Hot-path pre-check: lets
        callers skip building the kwargs dict for filtered-out kinds.)"""
        if not self.enabled:
            return False
        kinds = self.kinds
        return kinds is None or kind in kinds

    def record(self, kind: str, **fields: Any) -> None:
        if not self.enabled:
            return
        kinds = self.kinds
        if kinds is not None and kind not in kinds:
            # Filtered out: return before constructing the TraceRecord
            # (and before touching the clock or the record list).
            return
        limit = self.limit
        if limit is not None and self.count >= limit:
            self.enabled = False   # guards go cold; no silent unbounded growth
            self.truncated = True
            return
        self.count += 1
        time = self._clock()
        if self.keep_records:
            self.records.append(TraceRecord(time, kind, fields))
        if self.sink is not None:
            self.sink(time, kind, fields)

    def stream(self, sink: Callable[[float, str, dict], None],
               keep_records: bool = False) -> None:
        """Call ``sink(time, kind, fields)`` for every record from now on.

        Records already kept are replayed into ``sink`` first, so it sees
        the whole stream.  Unless ``keep_records``, the tracer then keeps
        nothing: the records go only to ``sink``.
        """
        for rec in self.records:
            sink(rec.time, rec.kind, rec.fields)
        self.sink = sink
        self.keep_records = keep_records
        if not keep_records:
            self.records.clear()

    def kept_records(self) -> list[TraceRecord]:
        """The kept record list; raises if records went only to a sink."""
        if not self.keep_records:
            raise RuntimeError("this tracer streams its records to a sink "
                               "and keeps none; there is no record list "
                               "to read")
        return self.records

    def clear(self) -> None:
        self.records.clear()
        self.count = 0
        if self.truncated:
            # Freeing the buffer re-arms a tracer that hit its cap.
            self.truncated = False
            self.enabled = True

    def __len__(self) -> int:
        return len(self.kept_records())

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.kept_records())

    def of_kind(self, kind: str) -> list[TraceRecord]:
        return [r for r in self.kept_records() if r.kind == kind]

    def between(self, start: float, end: float) -> list[TraceRecord]:
        return [r for r in self.kept_records() if start <= r.time <= end]

    def last(self, kind: str) -> Optional[TraceRecord]:
        for rec in reversed(self.kept_records()):
            if rec.kind == kind:
                return rec
        return None


class NullTracer(Tracer):
    """A tracer that drops everything (used as a default).

    Always falsy, so ``if tracer:`` guards skip record() calls entirely.
    """

    def __init__(self):
        super().__init__(clock=lambda: 0.0, enabled=False)

    def __bool__(self) -> bool:
        return False

    def record(self, kind: str, **fields: Any) -> None:  # pragma: no cover
        return
