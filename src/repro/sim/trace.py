"""Structured tracing of simulation events.

Protocol models emit trace records (packet sent, halt broadcast, buffer
switch stage, ...) so tests can assert on *sequences* of behaviour and the
experiment harness can post-process timings without instrumenting the
models further.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Optional

#: Record cap of every traced run: roomy for experiment runs, finite for
#: streaming workloads (the tracer self-disables and flags ``truncated``
#: at the cap).
DEFAULT_TRACE_LIMIT = 2_000_000

#: Records a streaming tracer buffers before it hands them to its sink.
#: Analysing a few hundred records in one go, instead of each one the
#: moment it is made, lets the simulator and the sink each run on warm
#: caches (EXPERIMENTS.md, "Batched live analysis"); the buffer stays a
#: fraction of a megabyte.
STREAM_BATCH = 256


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
    """Collects :class:`TraceRecord` objects; off costs one attribute test.

    ``enabled`` is the O(1) hot-path guard: models write
    ``if tracer.enabled: tracer.record(...)`` (or ``if tracer:``) so that
    when no recorder is attached (the :class:`NullTracer` default, which
    is always off) a per-packet trace point costs a single attribute
    test: no call, no kwargs dict.

    ``limit`` caps the record stream so an unbounded run cannot silently
    exhaust memory: once ``limit`` records have been made the tracer
    disables itself (all guards go cold) and sets ``truncated`` so
    consumers can tell a complete stream from a clipped one.

    :meth:`stream` hands the records to a sink in order, in batches of
    :data:`STREAM_BATCH`, and may stop the tracer keeping them: an online
    consumer then never holds the whole stream.  A record reaches the
    sink by :meth:`flush` at the latest, which the record cap and
    :meth:`clear` also call.  ``records`` stays an (empty) list on such a
    tracer; :meth:`kept_records` and every query over it raise instead of
    reporting an empty stream.
    """

    def __init__(self, clock: Callable[[], float],
                 limit: Optional[int] = None):
        self._clock = clock
        self.enabled = True
        self.limit = limit
        self.truncated = False
        self.records: list[TraceRecord] = []
        self.keep_records = True
        self.sink: Optional[Callable[[list], None]] = None
        # (time, kind, fields) records not yet handed to the sink; None
        # unless streaming
        self._pending: Optional[list] = None
        self.count = 0       # records made since the last clear()

    def __bool__(self) -> bool:
        return self.enabled

    def record(self, kind: str, **fields: Any) -> None:
        if not self.enabled:
            return
        limit = self.limit
        if limit is not None and self.count >= limit:
            self.enabled = False   # guards go cold; no silent unbounded growth
            self.truncated = True
            self.flush()
            return
        self.count += 1
        time = self._clock()
        if self.keep_records:
            self.records.append(TraceRecord(time, kind, fields))
        pending = self._pending
        if pending is not None:
            pending.append((time, kind, fields))
            if len(pending) >= STREAM_BATCH:
                self.flush()

    def stream(self, sink: Callable[[list], None],
               keep_records: bool = False) -> None:
        """Call ``sink(batch)`` with every record from now on, in order.

        ``batch`` is a list of ``(time, kind, fields)`` tuples: the next
        :data:`STREAM_BATCH` records, or fewer at a :meth:`flush`.
        Records already kept go to ``sink`` first, so it sees the whole
        stream.  Unless ``keep_records``, the tracer then keeps nothing:
        the records go only to ``sink``.
        """
        self.flush()
        if self.records:
            sink([(rec.time, rec.kind, rec.fields) for rec in self.records])
        self.sink = sink
        self._pending = []
        self.keep_records = keep_records
        if not keep_records:
            self.records.clear()

    def flush(self) -> None:
        """Hand the records made since the last batch to the sink now.

        A consumer calls this before it reads what its sink built: until
        then the last records of the stream may still be buffered here.
        """
        pending = self._pending
        if pending:
            self._pending = []
            self.sink(pending)

    def kept_records(self) -> list[TraceRecord]:
        """The kept record list; raises if records went only to a sink."""
        if not self.keep_records:
            raise RuntimeError("this tracer streams its records to a sink "
                               "and keeps none; there is no record list "
                               "to read")
        return self.records

    def clear(self) -> None:
        self.flush()
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

    Always off, so ``if tracer.enabled:`` guards skip record() calls
    entirely.
    """

    def __init__(self):
        super().__init__(clock=lambda: 0.0)
        self.enabled = False
