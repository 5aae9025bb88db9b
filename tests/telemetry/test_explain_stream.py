"""Streaming == offline: :class:`ExplainStream` against the oracle.

A live ``repro explain`` point keeps no trace: every record goes straight
into an :class:`ExplainStream`, which attributes each message when its
``msg-recv`` completes it and then drops its fragments.  The offline
replay, :func:`analyze_records` over the kept stream, is the oracle.  The
two must agree byte for byte on random record streams (drops, duplicates,
retransmits before and after completion, stalls, unstarted and incomplete
messages, windows still open at the end, tracers cut by ``limit``) and on
the real explain points.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.common import point_seed
from repro.experiments.figure6 import _messages_for_quanta
from repro.fm.config import FMConfig
from repro.sim.trace import Tracer
from repro.telemetry.explain import (ExplainStream, _derive_reallocs,
                                     _run_point, analyze_records)

STEP = 0.25e-3
#: small steps on a coarse grid, so equal timestamps are common (a late
#: copy sent at the very instant of the delivery it raced is the delivering
#: copy; only ties reach that case)
steps = st.sampled_from((0, 0, 1, 2, 3)).map(lambda n: n * STEP)


def assert_same(streamed: dict, offline: dict) -> None:
    offline = {k: v for k, v in offline.items() if k != "lineage"}
    assert (json.dumps(streamed, sort_keys=True)
            == json.dumps(offline, sort_keys=True))
    assert json.dumps(streamed) == json.dumps(offline)   # key order too


@st.composite
def message_events(draw, msg: int, seqs: list) -> list:
    """One message's records in causal order, as ``(time, kind, fields)``;
    records after its ``msg-recv`` are the late ones."""
    node = draw(st.integers(0, 1))
    dst, job = 1 - node, draw(st.integers(1, 2))
    nfrags = draw(st.integers(1, 3))
    t = draw(st.integers(0, 40)) * STEP
    events = []

    def emit(kind, **fields):
        events.append((t, kind, fields))

    if draw(st.integers(0, 9)):          # else: unstarted (no msg-start)
        emit("msg-start", node=node, job=job, msg=msg, dst=dst, dst_rank=0,
             nbytes=64 * nfrags, frags=nfrags)
    delivered = []
    for frag in range(nfrags):
        seq = seqs.pop()
        t += draw(steps)
        if draw(st.integers(0, 4)) == 0:
            emit("stall", node=node, job=job, msg=msg,
                 cause=draw(st.sampled_from(("credit", "buffer-full"))),
                 dur=draw(st.integers(0, 4)) * STEP)
        emit("pkt-enq", node=node, job=job, msg=msg, frag=frag, seq=seq,
             dst=dst)
        copies = draw(st.integers(1, 3))
        for copy in range(copies):
            t += draw(steps)
            if copy:
                emit("rto-retransmit", node=node, seq=seq, attempt=copy)
            emit("pkt-tx", node=node, job=job, msg=msg, frag=frag, seq=seq,
                 dst=dst)
            if copy < copies - 1 and draw(st.booleans()):
                emit("pkt-drop", node=dst, seq=seq, reason="fault")
        if draw(st.integers(0, 9)):      # else: this fragment never lands
            t += draw(steps)
            emit("pkt-deliver", node=dst, src=node, job=job, msg=msg,
                 seq=seq)
            delivered.append(seq)
            if draw(st.integers(0, 3)) == 0:
                emit("pkt-deliver", node=dst, src=node, job=job, msg=msg,
                     seq=seq)
                emit("pkt-dup-discard", node=dst, seq=seq,
                     **({"src": node} if draw(st.booleans()) else {}))
    if draw(st.booleans()):
        emit("msg-send", node=node, job=job, msg_id=msg)
    if draw(st.integers(0, 9)):          # else: never completes
        t += draw(steps)
        emit("msg-recv", node=dst, job=job, msg=msg, src=node,
             nbytes=64 * nfrags)
    for _ in range(draw(st.integers(0, 3))):    # late records
        t += draw(steps)
        if not delivered:
            break
        seq = draw(st.sampled_from(delivered))
        frag = next(f["frag"] for _, kind, f in events
                    if kind == "pkt-enq" and f["seq"] == seq)
        late = draw(st.sampled_from(("retransmit", "dup", "drop", "give-up",
                                     "send")))
        if late == "retransmit":
            emit("rto-retransmit", node=node, seq=seq, attempt=9)
            emit("pkt-tx", node=node, job=job, msg=msg, frag=frag, seq=seq,
                 dst=dst)
        elif late == "dup":
            emit("pkt-deliver", node=dst, src=node, job=job, msg=msg,
                 seq=seq)
        elif late == "drop":
            emit("pkt-drop", node=dst, seq=seq, reason="fault")
        elif late == "give-up":
            emit("rto-give-up", node=node, seq=seq)
        else:
            emit("msg-send", node=node, job=job, msg_id=msg)
    return events


@st.composite
def window_events(draw) -> list:
    events = []
    for _ in range(draw(st.integers(0, 12))):
        t = draw(st.integers(0, 60)) * STEP
        node, job = draw(st.integers(0, 1)), draw(st.integers(1, 2))
        kind = draw(st.sampled_from((
            "nic-halt", "nic-release", "buffer-switch", "ctx-remove",
            "ctx-install", "init-job", "job-stop", "job-go", "pkt-tx",
            "realloc-plan", "realloc-apply", "span-begin")))
        fields = {"node": node}
        if kind == "buffer-switch":
            fields["duration"] = draw(st.integers(0, 30)) * STEP
        elif kind in ("ctx-remove", "ctx-install", "job-stop", "job-go"):
            fields["job"] = job
        elif kind == "init-job":
            fields.update(job=job, installed=draw(st.booleans()))
        elif kind == "pkt-tx":
            fields.update(job=0, msg=-1, seq=10_000 + len(events), dst=1)
        elif kind.startswith("realloc"):
            fields.update(sequence=draw(st.integers(0, 2)), jobs=[job])
        events.append((t, kind, fields))
    return events


@st.composite
def streams(draw):
    """A time-ordered record stream plus the run's tracer limit and end."""
    seqs = list(range(5_000, 5_000 + 40))[::-1]
    tagged = []
    for msg in range(draw(st.integers(0, 6))):
        tagged += draw(message_events(300 + 7 * msg, seqs))
    tagged += draw(window_events())
    # stable by time: each message's records keep their causal order
    order = sorted(range(len(tagged)), key=lambda i: tagged[i][0])
    records = [tagged[i] for i in order]
    limit = draw(st.one_of(st.none(), st.integers(0, len(records) + 1)))
    last = records[-1][0] if records else 0.0
    end_time = draw(st.one_of(st.none(), st.integers(0, 4).map(
        lambda n: last + n * STEP)))
    return records, limit, end_time


def run_both(records, limit=None, end_time=None):
    """Feed ``records`` to a tracer that streams into an
    :class:`ExplainStream` and also keeps them; return (streamed analysis,
    stream reallocs, tracer)."""
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0], limit=limit)
    stream = ExplainStream()
    tracer.stream(stream.feed, keep_records=True)
    for time, kind, fields in records:
        now[0] = time
        tracer.record(kind, **fields)
    reallocs = stream.reallocs()
    return stream.finish(tracer.truncated, end_time), reallocs, tracer


@settings(max_examples=300, deadline=None)
@given(streams())
def test_streaming_equals_offline_on_random_streams(case):
    records, limit, end_time = case
    streamed, reallocs, tracer = run_both(records, limit, end_time)
    assert_same(streamed, analyze_records(tracer.records, tracer.truncated,
                                          end_time))
    assert reallocs == _derive_reallocs(tracer.records)


def rec(time, kind, **fields):
    return (time, kind, fields)


def one_message(late=()):
    """A one-fragment message from node 0 completing at 4 ms, then
    ``late`` records."""
    ms = 1e-3
    return [
        rec(0.0, "msg-start", node=0, job=1, msg=7, dst=1, dst_rank=0,
            nbytes=64, frags=1),
        rec(1 * ms, "pkt-enq", node=0, job=1, msg=7, frag=0, seq=50, dst=1),
        rec(2 * ms, "pkt-tx", node=0, job=1, msg=7, frag=0, seq=50, dst=1),
        rec(3 * ms, "pkt-deliver", node=1, src=0, job=1, msg=7, seq=50),
        rec(4 * ms, "msg-recv", node=1, job=1, msg=7, src=0, nbytes=64),
        *late,
    ]


class TestLateRecords:
    """Records that reach a message after it completed and was dropped."""

    def test_late_retransmit_counts_into_the_closed_row(self):
        records = one_message([
            rec(5e-3, "rto-retransmit", node=0, seq=50, attempt=1),
            rec(5e-3, "pkt-tx", node=0, job=1, msg=7, frag=0, seq=50,
                dst=1)])
        streamed, _, tracer = run_both(records)
        assert streamed["per_message"][0]["retransmits"] == 1
        assert_same(streamed, analyze_records(tracer.records))

    def test_copy_sent_at_the_delivery_instant_becomes_the_delivering_tx(
            self):
        records = one_message()
        records[3] = rec(4e-3, "pkt-deliver", node=1, src=0, job=1, msg=7,
                         seq=50)
        records.append(rec(4e-3, "pkt-tx", node=0, job=1, msg=7, frag=0,
                           seq=50, dst=1))
        streamed, _, tracer = run_both(records)
        causes = streamed["per_message"][0]["causes"]
        assert causes["wire"] == 0.0 and causes["retransmit-backoff"] > 0
        assert_same(streamed, analyze_records(tracer.records))

    def test_swap_reaching_back_recharges_the_nic_queue(self):
        records = one_message([
            rec(6e-3, "buffer-switch", node=0, duration=5.5e-3)])
        streamed, _, tracer = run_both(records)
        assert streamed["per_message"][0]["causes"]["buffer-swap"] > 0
        assert_same(streamed, analyze_records(tracer.records))

    @pytest.mark.parametrize("late", [
        rec(5e-3, "msg-recv", node=1, job=1, msg=7, src=0, nbytes=64),
        rec(5e-3, "stall", node=0, job=1, msg=7, cause="credit", dur=4e-3),
        rec(5e-3, "pkt-enq", node=0, job=1, msg=7, frag=1, seq=51, dst=1),
        rec(5e-3, "pkt-tx", node=0, job=1, msg=7, frag=1, seq=51, dst=1),
        rec(5e-3, "pkt-deliver", node=1, src=0, job=1, msg=7, seq=99),
    ], ids=["msg-recv", "stall", "pkt-enq", "new-frag-tx", "unknown-seq"])
    def test_record_needing_dropped_fragments_raises(self, late):
        with pytest.raises(ValueError, match="already completed"):
            run_both(one_message([late]))

    def test_end_time_before_the_last_record_raises(self):
        stream = ExplainStream()
        for time, kind, fields in one_message():
            stream.feed(time, kind, fields)
        with pytest.raises(ValueError, match="precedes"):
            stream.finish(end_time=1e-3)


def explain_trace_points():
    """The 8 points of the end-to-end ``explain_trace`` workload (seed 0:
    jobs 1/2/4/8 x 1536/6144 B at an 8 ms quantum) and one
    ``dynamic-threshold`` point, as ``_run_point`` arguments."""
    points = []
    for jobs in (1, 2, 4, 8):
        for size in (1536, 6144):
            fm = FMConfig(max_contexts=jobs, num_processors=16)
            points.append((jobs, size,
                           _messages_for_quanta(fm, size, 0.008, 3.0), 0.008,
                           16, "", point_seed(0, f"explain:jobs={jobs}:"
                                                 f"size={size}")))
    points.append((4, 1536, 120, 0.004, 16, "dynamic-threshold",
                   point_seed(0, "explain:jobs=4:size=1536")))
    return points


@pytest.mark.parametrize("point", explain_trace_points(),
                         ids=lambda p: f"jobs={p[0]}:size={p[1]}:"
                                       f"{p[5] or 'static'}")
def test_streaming_equals_offline_on_explain_points(point):
    streamed, reallocs, raw, end_time = _run_point(*point,
                                                   keep_records=True)
    assert streamed["complete"] and not streamed["incomplete"]
    assert_same(streamed, analyze_records(raw, streamed["truncated"],
                                          end_time))
    assert reallocs == _derive_reallocs(raw)
    if point[5]:
        assert reallocs
