"""Exporter: Chrome ``trace_event`` JSON.

The Chrome format (loadable in ``chrome://tracing`` or Perfetto) renders
each :class:`~repro.telemetry.spans.Span` as a complete event (``ph:
"X"``) with microsecond timestamps.  Rows: the trace viewer groups by
``pid``/``tid`` — we map ``pid`` to the node id (from the span's ``node``
arg, 0 for cluster-global spans) and ``tid`` to a per-node *track*
derived from the span category, with ``thread_name`` metadata rows
naming each track — so one node reads as a process whose threads are
``host``, ``nic``, ``sched``, ``policy``, and so on.  It backs
``repro explain --chrome``.

Cross-node causality renders as *flow events* (``ph: "s"`` / ``"f"``):
:func:`to_chrome_trace` accepts ``flows``, each an arrow from one
(node, track, timestamp) to another — e.g. a fragment's wire hop from
the sender NIC to the receiver — drawn by the viewer as a curved arrow
between the two slices enclosing the endpoints.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.telemetry.spans import Span

_US = 1e6   # simulated seconds -> trace microseconds


def _pid_of(args: dict) -> int:
    node = args.get("node")
    return int(node) if node is not None else 0


class _Rows:
    """Deterministic (pid, track) -> tid assignment, first-seen order."""

    def __init__(self):
        self.tids: dict[tuple[int, str], int] = {}

    def tid(self, pid: int, track: str) -> int:
        key = (pid, track)
        tid = self.tids.get(key)
        if tid is None:
            tid = sum(1 for p, _ in self.tids if p == pid)
            self.tids[key] = tid
        return tid

    def metadata(self) -> list[dict]:
        events = []
        for pid in sorted({p for p, _ in self.tids}):
            events.append({
                "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                "args": {"name": f"node {pid}" if pid
                         else "node 0 / cluster"},
            })
        for (pid, track), tid in sorted(self.tids.items(),
                                        key=lambda kv: (kv[0][0], kv[1])):
            events.append({
                "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
                "args": {"name": track},
            })
        return events


def to_chrome_trace(spans: Iterable[Span],
                    metadata: Optional[dict] = None,
                    flows: Optional[Iterable[dict]] = None) -> dict:
    """Build the ``{"traceEvents": [...]}`` object.

    ``flows`` entries are ``{"id": int, "name": str, "cat": str,
    "start": {"node": int, "track": str, "ts": seconds},
    "end": {...}}`` — rendered as paired flow-start (``ph: "s"``) and
    flow-finish (``ph: "f"``, binding to the enclosing slice) events.
    """
    events = []
    rows = _Rows()
    for span in spans:
        pid = _pid_of(span.args)
        events.append({
            "name": span.name,
            "cat": span.category or "span",
            "ph": "X",
            "ts": span.start * _US,
            "dur": span.duration * _US,
            "pid": pid,
            "tid": rows.tid(pid, span.category or "span"),
            "args": dict(span.args, span_id=span.span_id,
                         parent_id=span.parent_id),
        })
    if flows is not None:
        for flow in flows:
            for phase, end_key in (("s", "start"), ("f", "end")):
                point = flow[end_key]
                pid = _pid_of(point)
                event = {
                    "name": flow.get("name", "flow"),
                    "cat": flow.get("cat", "flow"),
                    "ph": phase,
                    "id": flow["id"],
                    "ts": point["ts"] * _US,
                    "pid": pid,
                    "tid": rows.tid(pid, point.get("track", "span")),
                }
                if phase == "f":
                    event["bp"] = "e"   # bind to the enclosing slice
                events.append(event)
    events.extend(rows.metadata())
    trace = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
    }
    if metadata:
        trace["otherData"] = metadata
    return trace

