"""Simulation clock, indexed event calendar, and event types.

The kernel is deterministic: events scheduled for the same instant are
processed in scheduling order (FIFO), using a monotonically increasing
sequence number as the tie-breaker.  The total dispatch order is always
``(time, seq)``; everything below is an optimisation of that contract,
with :meth:`Simulator.step` kept as the hand-written reference
implementation the fast loops are generated to mirror (and the
step-vs-run oracle in ``tests/property/test_kernel_oracle.py`` pins).

Event-set layout — a three-tier indexed calendar replacing the old
single binary heap:

- **Tier 0, the instant bucket** (``_bucket``/``_bucket_time``/
  ``_bucket_pos``): while the kernel dispatches the batch of events at
  instant *T*, any event scheduled *for T* is appended to a plain list
  and drained by index in the same batch — no heap push, no heap pop,
  no re-comparison.  Same-instant cascades (zero-delay hand-offs,
  immediate-fire events, interrupt pokes) are the dominant pattern in
  the firmware models, and a bucket append+scan is ~4x cheaper than a
  heap round trip.  FIFO within the bucket is free: the global ``_seq``
  counter is monotonic, so append order *is* seq order, and every heap
  entry at *T* predates the bucket (lower seq) and is drained first.
  Because order is positional, bucket entries are stored *bare* — no
  ``(seq, event)`` tuple per entry — except exact-``Process`` entries,
  which keep their push seq for sleep-token/termination matching (see
  :meth:`Simulator._push`).
- **Tier 1, the head slot** (``_head_when``/``_head_seq``/``_head_ev``):
  a one-entry cache holding an entry no later than everything in the
  heap.  A push into an empty calendar — the steady state of the
  single-process benchmarks and of ping-pong protocol phases — fills
  three slots instead of allocating a tuple and sifting a heap; the
  matching pop is three loads.  The invariant (slot ≤ heap minimum in
  ``(when, seq)`` order) is maintained by routing in :meth:`_push`.
- **Tier 2, the overflow heap** (``_queue``): classic ``(when, seq,
  event)`` binary heap for everything scheduled past the head slot.
  Far-future events land here and cost O(log n), exactly as before.

The buckets are plain Python lists, so the calendar "self-resizes" by
construction; there is no bucket-width parameter to tune and therefore
no resize policy that could perturb event order (the determinism
argument is spelled out in EXPERIMENTS.md, "Performance & scaling").

Dispatch machinery:

- The run-loop body used to be hand-copied four times (``run``,
  ``run_until_processed``, and their profiled variants) and kept in
  sync by comment discipline.  It is now a single code template,
  exec-compiled at first use into four specialised loops
  (:func:`_compile_loops`): watch/no-watch x profiled/plain.  A change
  to the dispatch semantics lands once, in the template.
- The overwhelmingly common waiter — a single simulated process parked
  on the event — is stored in a dedicated ``_waiter`` slot and its
  generator is resumed *inline* by the run loop.  Dispatch order is
  preserved: the waiter slot is only used when the callback list is
  empty at wait time, so "waiter first, then list" equals registration
  order.
- Profiled runs use the same generated fast loop with a stride-sampled
  :class:`~repro.telemetry.profiler.KernelProfiler` hook compiled in,
  instead of falling back to per-event generic dispatch; exact event
  counts and wall clock are accounted at loop boundaries.  Profiled and
  unprofiled runs stay bit-identical (the telemetry determinism tests
  pin this).
- A process that yields :data:`~repro.sim.process.PARK` has no calendar
  entry at all until :meth:`~repro.sim.process.Process.wake` pushes it
  at the current instant, routed like a zero-second sleep; the generated
  loops test for the sentinel after the number and Event arms.
- :class:`Timeout` *and* plain :class:`Event` objects are recycled
  through free lists: an object that nothing else references once its
  callbacks have run is reset and reused by the next
  :meth:`Simulator.timeout` / :meth:`Simulator.event` call, cutting
  allocation churn on per-packet paths.  Recycling is guarded by
  CPython's reference counts, so an object is only ever reused when no
  caller can observe it.

The run loops are not re-entrant: a callback must not call
:meth:`Simulator.run`/:meth:`Simulator.step` on the same simulator (the
old kernel shared the restriction — its cached ``processed`` counter
and popped-entry locals went stale across nested loops the same way).
"""

from __future__ import annotations

import platform
import sys
import textwrap
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

from repro.errors import SimulationError

_UNSET = object()
_INF = float("inf")

# Timeout/Event recycling needs exact reference counts; only CPython has them.
_IS_CPYTHON = platform.python_implementation() == "CPython"
_getrefcount = sys.getrefcount if _IS_CPYTHON else None
# Sized so bursts of a few thousand in-flight transient events (the
# 1000-node gang-scheduling scale) recycle fully; worst case both free
# lists pin ~8k small objects (~2 MB) — bounded, never scanned.
_FREE_LIST_CAP = 8192

# Consumed bucket entries are overwritten with None and reclaimed in
# bulk; compact the dead prefix past this length so a long-lived instant
# (a watch-return mid-drain, a months-long t=0 cascade) stays bounded.
_BUCKET_COMPACT = 65536


class _SleepWake:
    """Stand-in 'event' delivered to a process woken from a bare-number
    sleep (``yield delay``): always successful, carries no value.  Lets the
    suspend/defer/resume machinery treat sleep wake-ups like event
    wake-ups without materialising a real Event."""

    __slots__ = ()
    _ok = True
    _value = None


_SLEEP_WAKE = _SleepWake()

# Bound to the Process class by repro.sim.process at import time (the
# import is circular the other way).  Calendar-bucket entries are bare
# events EXCEPT exact-Process entries, which are wrapped as
# ``(seq, process)`` tuples: they are the only entries whose dispatch
# reads the push seq (sleep-token / termination-seq matching).  Until
# process.py is imported no Process objects can exist, so the ``is``
# check against None simply never matches.
_PROC_CLS: Optional[type] = None


class Event:
    """A one-shot occurrence in simulated time.

    An event starts *untriggered*.  Calling :meth:`succeed` or :meth:`fail`
    *triggers* it and schedules it for processing at the current instant;
    when the kernel processes it, all registered callbacks run and the
    event becomes *processed*.  Yielding an event from a process generator
    suspends the process until the event is processed.

    ``_waiter`` is the kernel-internal fast slot: it holds at most one
    :class:`~repro.sim.process.Process` parked on this event (set by the
    process itself, and only while the callback list is empty, which
    keeps dispatch order identical to plain ``add_callback`` use).
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_waiter")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[list] = []
        self._value: Any = _UNSET
        self._ok: Optional[bool] = None
        self._waiter = None

    # -- state ------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once succeed()/fail() has been called."""
        return self._value is not _UNSET

    @property
    def processed(self) -> bool:
        """True once callbacks have been run."""
        return self.callbacks is None

    @property
    def ok(self) -> Optional[bool]:
        """True if succeeded, False if failed, None if untriggered."""
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is _UNSET:
            raise SimulationError(f"{self!r} has no value yet")
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``.

        Scheduling is inlined (rather than calling
        :meth:`Simulator._push`) because triggering is one of the two
        hottest push sites; keep the routing in sync with ``_push``,
        which is the canonical form.
        """
        if self._value is not _UNSET:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        sim = self.sim
        seq = sim._seq
        sim._seq = seq + 1
        when = sim._now
        if when == sim._bucket_time:
            sim._bucket.append(self)
            return self
        q = sim._queue
        if q and when >= q[0][0]:
            # At or past the heap minimum: cannot displace the slot or
            # tie-open the bucket (see _push) — straight to the heap.
            heappush(q, (when, seq, self))
            return self
        he = sim._head_ev
        if he is None:
            sim._head_when = when
            sim._head_seq = seq
            sim._head_ev = self
        elif when < sim._head_when:
            heappush(sim._queue, (sim._head_when, sim._head_seq, he))
            sim._head_when = when
            sim._head_seq = seq
            sim._head_ev = self
        elif when == sim._head_when and sim._bucket_pos >= len(sim._bucket):
            sim._bucket_time = when
            sim._bucket.append(self)
        else:
            heappush(sim._queue, (when, seq, self))
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event with an exception to raise in waiters."""
        if not isinstance(exc, BaseException):
            raise TypeError(f"fail() needs an exception, got {exc!r}")
        if self._value is not _UNSET:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._value = exc
        self.sim._push(self.sim._now, self)
        return self

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Register ``fn(event)`` to run when the event is processed.

        If the event was already processed the callback fires immediately.
        """
        if self.callbacks is None:
            fn(self)
        else:
            self.callbacks.append(fn)

    def remove_callback(self, fn: Callable[["Event"], None]) -> None:
        w = self._waiter
        if w is not None and (fn is w or getattr(fn, "__self__", None) is w):
            # The waiter parks either itself or its bound _step here.
            self._waiter = None
            return
        if self.callbacks is not None and fn in self.callbacks:
            self.callbacks.remove(fn)

    def _run_callbacks(self) -> None:
        """Generic (non-inlined) dispatch; kept for external callers."""
        callbacks, self.callbacks = self.callbacks, None
        waiter, self._waiter = self._waiter, None
        if waiter is not None:
            waiter._step(self)
        for fn in callbacks:
            fn(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "processed" if self.processed else ("triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {hex(id(self))}>"


class Timeout(Event):
    """An event that triggers ``delay`` seconds after creation.

    Prefer :meth:`Simulator.timeout`, which recycles processed instances
    through a free list instead of allocating a fresh object per call.
    """

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay}")
        self.sim = sim
        self.callbacks = []
        self._ok = True
        self._value = value
        self._waiter = None
        self.delay = delay
        sim._push(sim._now + delay, self)


class _Condition(Event):
    """Base for AnyOf/AllOf composite events."""

    __slots__ = ("events", "_n_done")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = tuple(events)
        self._n_done = 0
        if not self.events:
            self.succeed(self._collect())
            return
        for ev in self.events:
            ev.add_callback(self._check)

    def _collect(self) -> dict:
        return {ev: ev._value for ev in self.events if ev.processed and ev._ok}

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if event._ok is False:
            self.fail(event._value)
            return
        self._n_done += 1
        if self._satisfied():
            self.succeed(self._collect())

    def _satisfied(self) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError


class AnyOf(_Condition):
    """Triggers when any constituent event has been processed."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._n_done >= 1


class AllOf(_Condition):
    """Triggers when all constituent events have been processed."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._n_done >= len(self.events)


class Simulator:
    """The event loop: a clock plus a three-tier indexed event calendar."""

    __slots__ = ("_now", "_queue", "_seq", "_processed_count",
                 "_free_timeouts", "_free_events", "_profiler",
                 "_bucket", "_bucket_time", "_bucket_pos",
                 "_head_when", "_head_seq", "_head_ev")

    def __init__(self):
        self._now: float = 0.0
        self._queue: list = []          # tier 2: overflow heap
        self._seq: int = 0
        self._processed_count: int = 0
        self._free_timeouts: list = []
        self._free_events: list = []
        self._profiler = None
        self._bucket: list = []         # tier 0: events at _bucket_time (exact-Process entries as (seq, proc))
        self._bucket_time: Optional[float] = None
        self._bucket_pos: int = 0       # consumed prefix of _bucket
        self._head_when: float = 0.0    # tier 1: head slot (valid iff _head_ev)
        self._head_seq: int = 0
        self._head_ev = None

    # -- clock ------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- profiling --------------------------------------------------------
    @property
    def profiler(self):
        """The attached :class:`~repro.telemetry.profiler.KernelProfiler`.

        The guard is checked once per ``run()`` call (not per event):
        with no profiler attached — or a falsy/disabled one — the plain
        generated loops run untouched, so an unprofiled simulation pays
        nothing.  With a profiler the kernel runs the *profiled*
        specialisation of the same loop template — identical dispatch
        semantics with a sampled ``observe`` hook compiled in — so
        results stay bit-identical (the telemetry determinism tests pin
        this).
        """
        return self._profiler

    @profiler.setter
    def profiler(self, profiler) -> None:
        self._profiler = profiler if profiler else None

    @property
    def processed_events(self) -> int:
        """Total number of events processed so far (for diagnostics).

        Inside the batched run loops this is refreshed when the loop
        exits, not per event — read it between runs, not from callbacks.
        """
        return self._processed_count

    # -- event construction -------------------------------------------------
    def event(self) -> Event:
        """A fresh untriggered event.

        Reuses a recycled :class:`Event` when one is available; recycled
        objects are reset at recycle time, so this is a bare pop.
        """
        free = self._free_events
        if free:
            return free.pop()
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires ``delay`` seconds from now.

        Reuses a recycled :class:`Timeout` when one is available; the
        recycled object is indistinguishable from a fresh one (recycling
        only happens when no other reference to it exists).  The
        calendar push is inlined — this is the hottest push site; keep
        the routing in sync with :meth:`_push`, the canonical form.
        """
        free = self._free_timeouts
        if not free:
            return Timeout(self, delay, value)
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay}")
        t = free.pop()
        t.delay = delay
        # _ok is True from construction and can never change on a Timeout
        # (fail() refuses already-valued events), so recycling skips it.
        t._value = value
        seq = self._seq
        self._seq = seq + 1
        when = self._now + delay
        if when == self._bucket_time:
            self._bucket.append(t)
            return t
        q = self._queue
        if q and when >= q[0][0]:
            # At or past the heap minimum: cannot displace the slot or
            # tie-open the bucket (see _push) — straight to the heap.
            heappush(q, (when, seq, t))
            return t
        he = self._head_ev
        if he is None:
            self._head_when = when
            self._head_seq = seq
            self._head_ev = t
        elif when < self._head_when:
            heappush(self._queue, (self._head_when, self._head_seq, he))
            self._head_when = when
            self._head_seq = seq
            self._head_ev = t
        elif when == self._head_when and self._bucket_pos >= len(self._bucket):
            self._bucket_time = when
            self._bucket.append(t)
        else:
            heappush(self._queue, (when, seq, t))
        return t

    def process(self, generator: Generator, name: str = "") -> "Process":
        """Start a new simulated process running ``generator``."""
        from repro.sim.process import Process

        return Process(self, generator, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- scheduling ---------------------------------------------------------
    def _push(self, when: float, event: Event) -> int:
        """Insert ``event`` into the calendar at ``when``; returns its seq.

        The canonical routing: instant bucket if ``when`` is the batch
        instant currently (or most recently) being drained, else the
        head slot when it can hold the calendar minimum, else the
        overflow heap.  Ties on ``when`` go to the heap so the slot
        invariant (slot ≤ heap minimum in ``(when, seq)``) is kept with
        a single float comparison.  :meth:`Event.succeed`,
        :meth:`Simulator.timeout`, and the generated run loops inline
        this routing for speed — keep them in sync.

        Bucket representation: bare events, except exact-``Process``
        entries which are stored as ``(seq, process)`` — dispatch needs
        their push seq for sleep-token / termination matching, and they
        are the only entries that do.  FIFO within the bucket is
        positional (append order), so dropping the seq loses nothing.
        """
        seq = self._seq
        self._seq = seq + 1
        if when == self._bucket_time:
            if event.__class__ is _PROC_CLS:
                self._bucket.append((seq, event))
            else:
                self._bucket.append(event)
            return seq
        q = self._queue
        if q and when >= q[0][0]:
            # At or past the heap minimum: the entry cannot displace the
            # slot (slot <= heap min) and cannot tie-open the bucket out
            # of order (bucket entries at `when` imply ``bucket_time ==
            # when``, handled above).  A tie with the heap minimum stays
            # in seq order among the ties, so dispatch order is the same
            # as the tie-open route — straight to the heap, skipping the
            # slot checks.
            heappush(q, (when, seq, event))
            return seq
        he = self._head_ev
        if he is None:
            # Heap empty or `when` below its minimum (the fast path
            # above took the rest): the slot can hold the minimum.
            self._head_when = when
            self._head_seq = seq
            self._head_ev = event
        elif when < self._head_when:
            heappush(self._queue, (self._head_when, self._head_seq, he))
            self._head_when = when
            self._head_seq = seq
            self._head_ev = event
        elif (when == self._head_when
                and self._bucket_pos >= len(self._bucket)):
            # A push tying the calendar minimum re-keys the bucket at
            # that instant (even a future one, and even mid-drain once
            # every pending entry is consumed): bursts of same-instant
            # events accumulate here in seq order instead of churning
            # the heap.  Safe because every slot/heap entry at `when`
            # predates the open (strictly lower seq) and is drained
            # first, and the drain loop re-checks the key per entry.
            self._bucket_time = when
            if event.__class__ is _PROC_CLS:
                self._bucket.append((seq, event))
            else:
                self._bucket.append(event)
        else:
            heappush(self._queue, (when, seq, event))
        return seq

    def _post(self, event: Event, delay: float = 0.0) -> None:
        """Insert a triggered event into the calendar ``delay`` from now.

        ``delay`` must be non-negative: scheduling into the past would
        silently break clock monotonicity (and the calendar's routing
        invariants, which assume no pending entry precedes ``now``).
        """
        if delay < 0:
            raise SimulationError(f"negative _post delay {delay}")
        self._push(self._now + delay, event)

    def peek(self) -> float:
        """Time of the next event, or ``inf`` if the calendar is empty."""
        he = self._head_ev
        if he is not None:
            hw = self._head_when
        elif self._queue:
            hw = self._queue[0][0]
        else:
            hw = _INF
        if self._bucket_pos < len(self._bucket):
            bt = self._bucket_time
            return bt if bt < hw else hw
        return hw

    def step(self) -> None:
        """Process exactly one event (or sleeping-process wake-up).

        This is the hand-written reference implementation of dispatch;
        the generated fast loops mirror it exactly (the kernel-oracle
        property test replays random workloads through both paths).
        """
        from repro.sim.process import Process

        queue = self._queue
        bucket = self._bucket
        he = self._head_ev
        if he is not None:
            hw = self._head_when
        elif queue:
            hw = queue[0][0]
        else:
            hw = _INF
        bpos = self._bucket_pos
        bpend = bpos < len(bucket)
        if bpend and self._bucket_time < hw:
            # Bucket front is strictly earliest; on a tie the slot/heap
            # entry predates the bucket (lower seq) and must go first.
            when = self._bucket_time
            entry = bucket[bpos]
            if entry.__class__ is tuple:
                seq, event = entry    # exact-Process entry: seq matters
            else:
                seq, event = -1, entry  # seq never read for bare entries
            entry = None  # drop the alias so the recycle refcount check can pass
            bucket[bpos] = None
            bpos += 1
            if bpos == len(bucket):
                bucket.clear()
                self._bucket_pos = 0
            else:
                self._bucket_pos = bpos
        elif he is not None:
            when = hw
            seq = self._head_seq
            event = he
            he = None  # drop the alias so the recycle refcount check can pass
            self._head_ev = None
            if not bpend:
                self._bucket_time = when   # open the instant for same-time pushes
        elif queue:
            when, seq, event = heappop(queue)
            if not bpend:
                self._bucket_time = when
        else:
            raise SimulationError("step() on an empty event queue")
        self._now = when
        self._processed_count += 1
        if event.__class__ is Process:
            # A Process in the calendar is either a bare-number sleep entry
            # (valid iff its token matches this entry's seq), the
            # process's own termination event, or a stale sleep left by
            # an interrupt (skipped; seed semantics popped the orphaned
            # timeout the same way).
            if event._sleep_token == seq:
                event._step(_SLEEP_WAKE)
                return
            if event._event_seq != seq:
                return
        callbacks = event.callbacks
        event.callbacks = None
        waiter, event._waiter = event._waiter, None
        if waiter is not None:
            waiter._step(event)
        if callbacks:
            for fn in callbacks:
                fn(event)
        cls = event.__class__
        if cls is Timeout:
            if (_getrefcount is not None and _getrefcount(event) == 2
                    and len(self._free_timeouts) < _FREE_LIST_CAP):
                event._value = None
                callbacks.clear()
                event.callbacks = callbacks
                self._free_timeouts.append(event)
        elif cls is Event:
            if (_getrefcount is not None and _getrefcount(event) == 2
                    and len(self._free_events) < _FREE_LIST_CAP):
                event._value = _UNSET
                event._ok = None
                callbacks.clear()
                event.callbacks = callbacks
                self._free_events.append(event)

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run until the calendar drains, ``until`` is reached, or event budget.

        ``until`` is an absolute simulated time; on return ``now`` equals
        ``until`` if the horizon was hit, else the time of the last event.
        ``max_events`` guards against runaway simulations.

        Dispatch happens in the generated batched loop (see
        :func:`_compile_loops`): all events sharing a timestamp drain in
        one bucket pass, and the single-process-waiter case resumes the
        waiting generator without leaving the loop frame — see
        ``Process._step``, whose semantics the generated path mirrors
        exactly (and falls back to for every non-trivial case).
        """
        if _LOOP_RUN is None:
            _compile_loops()
        if self._profiler is not None:
            return _LOOP_RUN_PROF(self, until, max_events)
        return _LOOP_RUN(self, until, max_events)

    def run_until_processed(self, event: Event, max_events: Optional[int] = None) -> Any:
        """Run until ``event`` is processed; returns its value (raises on fail).

        Same generated dispatch core as :meth:`run`, specialised to
        check the watched event after every dispatched entry.
        """
        if _LOOP_RUN is None:
            _compile_loops()
        if self._profiler is not None:
            return _LOOP_WATCH_PROF(self, event, max_events)
        return _LOOP_WATCH(self, event, max_events)


# ---------------------------------------------------------------------------
# Generated dispatch core.
#
# One template, four specialisations: {run, run_until_processed} x
# {plain, profiled}.  The template is assembled from the snippets below
# by token substitution (no str.format, so literal braces are safe) and
# exec-compiled on first use, once Process is importable.  step() above
# is the reference semantics; the oracle property test replays random
# workloads through both paths and asserts identical traces.
# ---------------------------------------------------------------------------

# Routed calendar push for a process re-parked by a bare-number sleep.
# __PV__ is the process variable; mirrors Simulator._push.
_PARK_SRC = """\
if nxt < 0:
    raise SimulationError(
        "process %r yielded a negative sleep %s" % (__PV__.name, nxt))
sseq = self._seq
self._seq = sseq + 1
nwhen = when + nxt
__PV__._sleep_token = sseq
if nwhen == self._bucket_time:
    bucket.append((sseq, __PV__))
elif queue and nwhen >= queue[0][0]:
    # At or past the heap minimum: the entry cannot displace the slot
    # (slot <= heap min) and cannot tie-open the bucket out of order
    # (any bucket entries at nwhen imply bucket_time == nwhen, handled
    # above), so it belongs in the heap — skip the slot checks.
    push(queue, (nwhen, sseq, __PV__))
else:
    he2 = self._head_ev
    if he2 is None:
        # Heap empty or nwhen below its minimum (the fast path above
        # took the rest): the slot can hold the calendar minimum.
        self._head_when = nwhen
        self._head_seq = sseq
        self._head_ev = __PV__
    elif nwhen < self._head_when:
        push(queue, (self._head_when, self._head_seq, he2))
        self._head_when = nwhen
        self._head_seq = sseq
        self._head_ev = __PV__
    elif nwhen == self._head_when and self._bucket_pos >= len(bucket):
        self._bucket_time = nwhen
        bucket.append((sseq, __PV__))
    else:
        push(queue, (nwhen, sseq, __PV__))\
"""

# The per-entry dispatch body.  Entry in (seq, ev) at instant `when`.
# Mirrors step() exactly; `continue` targets the enclosing drain loop.
_DISPATCH_SRC = """\
if ecls is proc_cls:
    # A Process entry: a bare-number sleep (valid iff token matches),
    # the process's own termination event, or a stale sleep left by an
    # interrupt (skipped, but counted — seed popped the orphaned
    # timeout the same way).
    if ev._sleep_token == seq:
        if ev._suspended:
            ev._step(wake)  # defers until resume()
            continue
        try:
            nxt = ev._gen.send(None)
        except StopIteration as stop:
            ev.succeed(stop.value)
            continue
        except BaseException as exc:
            if ev.callbacks or ev._waiter is not None:
                ev.fail(exc)
                continue
            raise
        ncls = nxt.__class__
        if ncls is float or ncls is int:
__PARK_EV__
        elif (ncls is event_cls or isinstance(nxt, event_cls)) and nxt.sim is self:
            ev._target = nxt
            ncbs = nxt.callbacks
            if ncbs is None:
                ev._step(nxt)
            elif nxt._waiter is None and not ncbs:
                nxt._waiter = ev
            else:
                ncbs.append(ev._step_cb)
        elif nxt is park:
            ev._parked = True
        else:
            ev._wait_on(nxt)
        continue
    if ev._event_seq != seq:
        continue
callbacks = ev.callbacks
ev.callbacks = None
waiter = ev._waiter
if waiter is not None:
    ev._waiter = None
    # -- inline Process._step fast path -----------------------------
    if (waiter.__class__ is proc_cls and ev._ok
            and not waiter._suspended and waiter._value is unset):
        waiter._target = None
        try:
            nxt = waiter._gen.send(ev._value)
        except StopIteration as stop:
            waiter.succeed(stop.value)
        except BaseException as exc:
            if waiter.callbacks or waiter._waiter is not None:
                waiter.fail(exc)
            else:
                raise
        else:
            ncls = nxt.__class__
            if ncls is float or ncls is int:
__PARK_WAITER__
            elif (ncls is event_cls or isinstance(nxt, event_cls)) and nxt.sim is self:
                waiter._target = nxt
                ncbs = nxt.callbacks
                if ncbs is None:
                    waiter._step(nxt)
                elif nxt._waiter is None and not ncbs:
                    nxt._waiter = waiter
                else:
                    ncbs.append(waiter._step_cb)
            elif nxt is park:
                waiter._parked = True
            else:
                waiter._wait_on(nxt)
    else:
        waiter._step(ev)
if callbacks:
    if len(callbacks) == 1:
        callbacks[0](ev)
    else:
        for fn in callbacks:
            fn(ev)
if ecls is timeout_cls:
    # Unreferenced once processed: recycle the object and its
    # (already-emptied) callbacks list.
    if (refcount is not None and refcount(ev) == 2
            and len(free_t) < cap):
        ev._value = None
        callbacks.clear()
        ev.callbacks = callbacks
        free_t.append(ev)
elif ecls is event_cls:
    if (refcount is not None and refcount(ev) == 2
            and len(free_e) < cap):
        ev._value = unset
        ev._ok = None
        callbacks.clear()
        ev.callbacks = callbacks
        free_e.append(ev)
__EVENT_TAIL__\
"""

# Per-entry budget check, compiled in *before* the entry is consumed, so
# a raise leaves the calendar, the clock, and the processed counter
# exactly as they were (matching the old per-event loop).  With no
# budget the whole check is a single `is not None` test.
_BUDGET_SRC = """\
if budget is not None:
    if count >= budget:
        raise SimulationError(__BUDGET_MSG__)
    count += 1\
"""

# Profiled loops sample every `stride`-th consumed entry, charging it
# the simulated time elapsed since the previous sample.
_SAMPLE_SRC = """\
k -= 1
if k <= 0:
    k = stride
    observe(prev_now, when, ev)
    prev_now = when\
"""

_LOOP_TEMPLATE = """\
def __NAME__(self, __ARG1__, max_events=None):
    queue = self._queue
    bucket = self._bucket
    push = heappush
    pop = heappop
    free_t = self._free_timeouts
    free_e = self._free_events
    refcount = _getrefcount
    timeout_cls = Timeout
    event_cls = Event
    proc_cls = Process
    unset = _UNSET
    wake = _SLEEP_WAKE
    park = PARK
    cap = _FREE_LIST_CAP
    compact = _BUCKET_COMPACT
    inf = _INF
    budget = max_events
    count = 0
    processed = self._processed_count
__PROF_SETUP__
__WATCH_PRelude__
    try:
        while True:
__WATCH_HEAD__
            # ---- select the next instant ----------------------------
            he = self._head_ev
            if he is not None:
                hw = self._head_when
            elif queue:
                hw = queue[0][0]
            else:
                hw = inf
            if bucket and self._bucket_pos < len(bucket):
                bt = self._bucket_time
                when = bt if bt < hw else hw
            else:
                when = hw
                if hw == inf:
__EMPTY__
                # Key the drained bucket to the batch instant: every
                # same-instant trigger fired by this batch's callbacks
                # then appends straight to the bucket (first comparison
                # in the push routing) and is drained in phase C below —
                # the dominant succeed-at-now cascade never touches the
                # slot or the heap.  When the bucket still holds a
                # future batch opened by a tie (the `if` arm above),
                # re-keying would dispatch those entries early, so
                # same-instant pushes fall back to the slot routing for
                # the rare remainder of that window.
                self._bucket_time = when
__HORIZON__
            self._now = when
            # ---- instants of this window ----------------------------
            # The middle loop walks instant to instant without the
            # selection pass above: the slot/heap drain advances the
            # clock itself, and a drained bucket batch re-enters it
            # directly.  Control only falls back out when the bucket
            # holds a future batch (tie-opened) or the calendar is
            # empty.
            while True:
                # ---- slot + heap entries at this instant ----------------
                # This drain advances the clock *itself* while the next
                # instant sits in the slot or the heap and the bucket is
                # empty — the sparse ping-pong profile (one event per
                # instant: sleeps, packet flights) then never returns to
                # the selection pass above.  Safe because the slot holds
                # the calendar minimum (slot <= heap min) and an empty
                # bucket cannot hold an earlier instant, and its emptiness
                # also makes the re-key unconditional (see phase A).
                while True:
                    he = self._head_ev
                    if he is not None:
                        if self._head_when != when:
                            if bucket:
                                break
                            when = self._head_when
__HORIZON_F1__
                            self._bucket_time = when
                            self._now = when
__BUDGET_B1__
                        seq = self._head_seq
                        ev = he
                        he = None  # drop the alias so the recycle refcount check can pass
                        self._head_ev = None
                    elif queue:
                        # Pop first, peek never: the popped entry is the
                        # heap minimum either way, and the boundary cases
                        # (bucket pending, horizon, budget) push it back —
                        # re-inserting the same ``(when, seq)`` key cannot
                        # reorder anything, the seq is globally unique.
                        w, seq, ev = pop(queue)
                        if w != when:
                            if bucket:
                                push(queue, (w, seq, ev))
                                break
                            when = w
__HORIZON_F2__
                            self._bucket_time = when
                            self._now = when
__BUDGET_B2__
                    else:
                        break
                    processed += 1
__SAMPLE_B__
                    ecls = ev.__class__
__DISPATCH_B__
                # ---- batched same-instant bucket drain ------------------
                # New events for this instant are appended while we drain;
                # indexing (not iterating) picks them up, and no horizon or
                # re-comparison runs inside the batch.
                if bucket and self._bucket_time == when:
                    i = self._bucket_pos
                    blen = len(bucket)
                    # Exhaustion test, cheapest-first: a compare against the
                    # cached length, then — only when the scan has caught up
                    # — a re-key check and a fresh len() (dispatch appends
                    # same-instant events while we drain, so the batch can
                    # outgrow the cache).  The re-key check lives in the
                    # catch-up arm alone because a tie can only re-key the
                    # bucket once every pending entry is consumed (see
                    # _push), i.e. exactly when the scan has caught up; the
                    # cached length likewise never counts entries of another
                    # instant, since it is only refreshed under the check.
                    # No exception sentinel: the common batch is one or two
                    # entries, and a raise+catch per batch dwarfs the len().
                    while i < blen or (self._bucket_time == when
                                       and i < (blen := len(bucket))):
                        ev = bucket[i]
__BUDGET_C__
                        bucket[i] = None
                        self._bucket_pos = i = i + 1
                        if i >= compact:
                            del bucket[:i]
                            self._bucket_pos = i = 0
                            blen = len(bucket)
                        processed += 1
                        ecls = ev.__class__
                        if ecls is tuple:
                            # Only exact-Process entries are wrapped; they
                            # carry the push seq dispatch must match.
                            seq, ev = ev
                            ecls = proc_cls
__SAMPLE_C__
__DISPATCH_C__
                    if self._bucket_time == when:
                        # Exhausted at this instant (not re-keyed away by
                        # the last entry's callback): every entry was
                        # consumed, so reset the bucket in O(1) and go
                        # straight back to the slot/heap drain, whose
                        # fast-advance picks the next instant.
                        bucket.clear()
                        self._bucket_pos = 0
                        continue
                break
    finally:
        self._processed_count = processed
__PROF_FINALLY__
__TAIL__\
"""


def _indent(src: str, prefix: str) -> str:
    return textwrap.indent(src, prefix)


def _make_loop_src(name: str, watch: bool, profiled: bool) -> str:
    park_ev = _indent(_PARK_SRC.replace("__PV__", "ev"), " " * 12)
    park_waiter = _indent(_PARK_SRC.replace("__PV__", "waiter"), " " * 16)
    if watch:
        budget_msg = '"exceeded max_events=%s" % (max_events,)'
        event_tail = ("if watch.callbacks is None:\n"
                      "    if watch._ok is False:\n"
                      "        raise watch._value\n"
                      "    return watch._value")
        arg1 = "event"
        prelude = ("    watch = event\n"
                   "    if watch.callbacks is None:\n"
                   "        if watch._ok is False:\n"
                   "            raise watch._value\n"
                   "        return watch._value")
        watch_head = ""
        empty = (" " * 20) + ("raise SimulationError(\n" +
                 " " * 24 + "\"event queue drained before event triggered"
                 " (deadlock?)\")")
        horizon = ""
        horizon_f1 = ""
        horizon_f2 = ""
        tail = ("    raise SimulationError(\n"
                "        \"event queue drained before event triggered"
                " (deadlock?)\")")
    else:
        budget_msg = '"run() exceeded max_events=%s" % (max_events,)'
        event_tail = ""
        arg1 = "until=None"
        prelude = ""
        watch_head = ""
        empty = (" " * 20) + "break"
        horizon = ("            if until is not None and when > until:\n"
                   "                self._now = until\n"
                   "                return\n")
        horizon_f1 = ((" " * 28) + "if until is not None and when > until:\n"
                      + (" " * 32) + "self._now = until\n"
                      + (" " * 32) + "return")
        # The heap arm pops before it checks the horizon: put the entry
        # back before returning (same (when, seq) key, so no reorder).
        horizon_f2 = ((" " * 28) + "if until is not None and when > until:\n"
                      + (" " * 32) + "push(queue, (when, seq, ev))\n"
                      + (" " * 32) + "self._now = until\n"
                      + (" " * 32) + "return")
        tail = ("    if until is not None and until > self._now:\n"
                "        self._now = until")
    budget_src = _BUDGET_SRC.replace("__BUDGET_MSG__", budget_msg)
    budget_src_b2 = budget_src.replace(
        "raise SimulationError",
        "push(queue, (when, seq, ev))\n        raise SimulationError")
    sample_b = _indent(_SAMPLE_SRC, " " * 20) if profiled else ""
    sample_c = _indent(_SAMPLE_SRC, " " * 24) if profiled else ""
    dispatch = (_DISPATCH_SRC
                .replace("__PARK_EV__", park_ev)
                .replace("__PARK_WAITER__", park_waiter)
                .replace("__EVENT_TAIL__", event_tail).rstrip())
    if profiled:
        prof_setup = (
            "    prof = self._profiler\n"
            "    observe = prof.observe\n"
            "    stride = prof.stride\n"
            "    k = prof._phase\n"
            "    prev_now = self._now\n"
            "    start_processed = processed\n"
            "    t0 = perf_counter()  # wall accounting, never feeds sim state\n"
        )
        prof_finally = (
            "        prof._phase = k\n"
            "        prof.account_events(processed - start_processed)\n"
            "        prof.account_wall(perf_counter() - t0)\n"
        )
    else:
        prof_setup = ""
        prof_finally = ""
    src = (_LOOP_TEMPLATE
           .replace("__NAME__", name)
           .replace("__ARG1__", arg1)
           .replace("__PROF_SETUP__", prof_setup)
           .replace("__WATCH_PRelude__", prelude)
           .replace("__WATCH_HEAD__", watch_head)
           .replace("__EMPTY__", empty)
           .replace("__HORIZON__", horizon)
           .replace("__HORIZON_F1__", horizon_f1)
           .replace("__HORIZON_F2__", horizon_f2)
           .replace("__BUDGET_B1__", _indent(budget_src, " " * 24))
           .replace("__BUDGET_B2__", _indent(budget_src_b2, " " * 24))
           .replace("__BUDGET_C__", _indent(budget_src, " " * 24))
           .replace("__SAMPLE_B__", sample_b)
           .replace("__SAMPLE_C__", sample_c)
           .replace("__DISPATCH_B__", _indent(dispatch, " " * 20))
           .replace("__DISPATCH_C__", _indent(dispatch, " " * 24))
           .replace("__PROF_FINALLY__", prof_finally)
           .replace("__TAIL__", tail))
    # Drop blank placeholder lines so the compiled source stays readable
    # in tracebacks.
    return "\n".join(line for line in src.split("\n") if line.strip())


_LOOP_RUN = None
_LOOP_RUN_PROF = None
_LOOP_WATCH = None
_LOOP_WATCH_PROF = None


def _compile_loops() -> None:
    """Exec-compile the four dispatch-loop specialisations (idempotent)."""
    global _LOOP_RUN, _LOOP_RUN_PROF, _LOOP_WATCH, _LOOP_WATCH_PROF
    if _LOOP_RUN is not None:
        return
    from time import perf_counter  # simlint: ignore[SIM001] -- profiler accounts host wall time; never feeds sim state
    from repro.sim.process import PARK, Process

    namespace = {
        "heappush": heappush, "heappop": heappop,
        "_getrefcount": _getrefcount, "Timeout": Timeout, "Event": Event,
        "Process": Process, "PARK": PARK,
        "_UNSET": _UNSET, "_SLEEP_WAKE": _SLEEP_WAKE,
        "_FREE_LIST_CAP": _FREE_LIST_CAP, "_BUCKET_COMPACT": _BUCKET_COMPACT,
        "_INF": _INF,
        "SimulationError": SimulationError, "perf_counter": perf_counter,
    }
    for name, watch, profiled in (
            ("_loop_run", False, False),
            ("_loop_run_prof", False, True),
            ("_loop_watch", True, False),
            ("_loop_watch_prof", True, True)):
        src = _make_loop_src(name, watch, profiled)
        code = compile(src, f"<repro.sim.core generated {name}>", "exec")
        exec(code, namespace)
    _LOOP_RUN = namespace["_loop_run"]
    _LOOP_RUN_PROF = namespace["_loop_run_prof"]
    _LOOP_WATCH = namespace["_loop_watch"]
    _LOOP_WATCH_PROF = namespace["_loop_watch_prof"]
    _prime_loops()


class _PrimeProfiler:
    """Minimal profiler interface for loop priming (no telemetry import)."""

    stride = 1
    _phase = 1

    def observe(self, prev_now, when, event):
        pass

    def account_events(self, n):
        pass

    def account_wall(self, seconds):
        pass


def _prime_loops() -> None:
    """Run each generated loop a dozen times on throwaway simulators.

    CPython 3.11's specializing interpreter quickens a code object only
    after ~8 *calls* — loop iterations inside one call do not count — so
    a simulation driven by a single long ``run()`` would otherwise
    execute unspecialized bytecode forever (measured: the same-instant
    drain runs ~2x slower unquickened).  A dozen micro-runs at compile
    time push all four specialisations over the threshold once per
    process, for microseconds.
    """
    prof = _PrimeProfiler()
    for _ in range(12):
        sim = Simulator()
        sim.timeout(0.0)
        _LOOP_RUN(sim, None, None)
        sim = Simulator()
        _LOOP_WATCH(sim, sim.timeout(0.0), None)
        sim = Simulator()
        sim._profiler = prof
        sim.timeout(0.0)
        _LOOP_RUN_PROF(sim, None, None)
        sim = Simulator()
        sim._profiler = prof
        _LOOP_WATCH_PROF(sim, sim.timeout(0.0), None)
