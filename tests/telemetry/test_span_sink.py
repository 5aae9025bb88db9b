"""Streaming == offline: :class:`SpanSink` against the span oracle.

A telemetry run keeps no trace: its tracer streams every record into a
:class:`~repro.telemetry.spans.SpanSink`, which pairs spans as their
records arrive and keeps only their names and durations.  The oracle,
:func:`tests.telemetry.oracle.span_summary`, keeps the whole stream and
derives every span after the run.  The two must agree bit for bit —
counts and float totals — on random record streams (spans closed out of
order, never closed or never begun, retransmitted and lost packets,
strategy-tagged epochs, control packets, unstarted and incomplete
messages, stalls with and without a message, reallocations, tracers cut
by ``limit``) and on real runs.  As in a real run, a packet's tx and
delivery records carry the same message id, and a control packet
(message id -1) has no delivery record.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.figure9 import run_figure9
from repro.faults.chaos import ChaosPoint, run_chaos_point
from repro.faults.strategies import STRATEGY_NAMES
from repro.sim.trace import Tracer
from repro.telemetry.spans import SpanSink
from tests.telemetry.oracle import span_summary, summarize_stalls

#: a record's distance from the one before: often none (equal times are
#: where the tie-break orders matter), else a float with a full mantissa,
#: so the order in which durations are added shows in the total's bits
gaps = st.one_of(st.just(0.0), st.floats(1e-7, 1e-3))


@st.composite
def records(draw):
    """A time-ordered stream of the record kinds the sink pairs."""
    out = []
    t = 0.0
    for _ in range(draw(st.integers(0, 60))):
        t += draw(gaps)
        kind = draw(st.sampled_from((
            "span-begin", "span-end", "pkt-tx", "pkt-deliver",
            "rto-retransmit", "rto-give-up", "msg-start", "msg-recv",
            "stall", "realloc-plan", "realloc-apply", "pkt-enq")))
        seq = draw(st.integers(0, 5))
        msg = draw(st.integers(0, 4))
        node, dst = draw(st.integers(0, 1)), draw(st.integers(0, 1))
        if kind == "span-begin":
            f = {"span": draw(st.integers(0, 6)), "parent": None,
                 "name": draw(st.sampled_from(("halt", "swap"))), "cat": ""}
        elif kind == "span-end":
            f = {"span": draw(st.integers(0, 6))}
        elif kind == "pkt-tx":
            # seq 0 is a control packet (msg -1): it is never delivered
            f = {"node": node, "dst": dst, "seq": seq, "job": 1,
                 "msg": seq - 1}
        elif kind == "pkt-deliver":
            seq = max(seq, 1)
            f = {"node": dst, "src": node, "seq": seq, "job": 1,
                 "msg": seq - 1}
        elif kind == "rto-retransmit":
            f = {"node": node, "seq": seq}
            strategy = draw(st.sampled_from((None, "nack", "adaptive")))
            if strategy is not None:
                f["strategy"] = strategy
        elif kind == "rto-give-up":
            f = {"node": node, "seq": seq}
        elif kind == "msg-start":
            f = {"node": node, "job": 1, "msg": msg, "dst": dst}
        elif kind == "msg-recv":
            f = {"node": dst, "job": 1, "msg": msg, "src": node}
        elif kind == "stall":
            f = {"node": node, "job": 1,
                 "cause": draw(st.sampled_from(("credit", "refill-queue"))),
                 "dur": min(t, draw(gaps))}
            owner = draw(st.sampled_from(("msg", "anonymous", "none")))
            if owner == "msg":
                f["msg"] = msg
            elif owner == "anonymous":
                f["msg"] = -1
        elif kind.startswith("realloc"):
            f = {"node": node, "sequence": draw(st.integers(0, 2)),
                 "jobs": [1]}
        else:
            f = {"node": node, "job": 1, "msg": msg, "frag": 0, "seq": seq}
        out.append((t, kind, f))
    limit = draw(st.one_of(st.none(), st.integers(0, len(out) + 1)))
    return out, limit


def stream_both(rows, limit=None):
    """Feed ``rows`` to a tracer that streams into a :class:`SpanSink`
    and also keeps them; return (sink, tracer)."""
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0], limit=limit)
    sink = SpanSink()
    tracer.stream(sink.feed, keep_records=True)
    for time, kind, fields in rows:
        now[0] = time
        tracer.record(kind, **fields)
    tracer.flush()
    return sink, tracer


def assert_same(sink: SpanSink, tracer: Tracer) -> None:
    truncated = tracer.truncated
    assert (json.dumps(sink.summary(truncated))
            == json.dumps(span_summary(tracer.records, truncated)))
    stalls = {cause: {"waits": waits, "seconds": seconds}
              for cause, (waits, seconds) in sorted(sink.stalls.items())}
    assert json.dumps(stalls) == json.dumps(summarize_stalls(tracer.records))


@settings(max_examples=400, deadline=None)
@given(records())
def test_streamed_spans_equal_offline_on_random_streams(case):
    rows, limit = case
    assert_same(*stream_both(rows, limit))


def test_batches_do_not_change_the_summary():
    """One batch per record or one for the whole stream: same summary."""
    rows = [(0.0, "span-begin", {"span": 0, "name": "halt"}),
            (1.0, "pkt-tx", {"node": 0, "dst": 1, "seq": 3, "msg": 7}),
            (2.0, "span-end", {"span": 0}),
            (3.0, "pkt-deliver", {"node": 1, "src": 0, "seq": 3, "msg": 7})]
    whole, single = SpanSink(), SpanSink()
    whole.feed(rows)
    for row in rows:
        single.feed([row])
    assert whole.summary() == single.summary() == {
        "count": 2, "by_name": {
            "halt": {"count": 1, "total_seconds": 2.0},
            "pkt-flight": {"count": 1, "total_seconds": 2.0}}}


def test_durations_add_in_the_old_span_order():
    """Three spans of each family, of about 0.3, 0.2 and 0.1 s, whose
    sum has different bits in different orders.  Each family closes them
    in one order and must add them in another: switch spans and messages
    by start, not by close; stalls by their own start, not by their
    message's; retransmit epochs by seq, not by first retry."""
    def msg(i):
        return {"node": 0, "job": 1, "msg": i}

    rows = [(0.0, "span-begin", {"span": 0, "name": "halt"}),
            (0.0, "msg-start", msg(0)),
            (0.05, "span-begin", {"span": 1, "name": "halt"}),
            (0.05, "msg-start", msg(1)),
            (0.1, "span-begin", {"span": 2, "name": "halt"}),
            (0.1, "msg-start", msg(2)),
            (0.1, "rto-retransmit", {"node": 0, "seq": 9}),
            (0.1, "stall", dict(msg(2), cause="credit", dur=0.1)),
            (0.2, "rto-retransmit", {"node": 0, "seq": 8}),
            (0.2, "span-end", {"span": 2}),
            (0.2, "msg-recv", {"node": 1, "job": 1, "msg": 2, "src": 0}),
            (0.2, "rto-give-up", {"node": 0, "seq": 9}),
            (0.25, "span-end", {"span": 1}),
            (0.25, "msg-recv", {"node": 1, "job": 1, "msg": 1, "src": 0}),
            (0.3, "rto-retransmit", {"node": 0, "seq": 7}),
            (0.3, "span-end", {"span": 0}),
            (0.3, "msg-recv", {"node": 1, "job": 1, "msg": 0, "src": 0}),
            (0.3, "stall", dict(msg(1), cause="credit", dur=0.2)),
            (0.4, "rto-give-up", {"node": 0, "seq": 8}),
            (0.5, "stall", dict(msg(0), cause="credit", dur=0.3)),
            (0.6, "rto-give-up", {"node": 0, "seq": 7})]
    sink, tracer = stream_both(rows)
    assert_same(sink, tracer)
    by_name = sink.summary()["by_name"]
    assert {cell["count"] for cell in by_name.values()} == {3}


def _kept(run):
    """Run ``run`` with every cluster keeping its trace beside its
    telemetry; return the clusters built."""
    from repro.parpar import cluster as cluster_module
    built = []
    original = cluster_module.ParParCluster.__init__

    def init(self, config):
        from dataclasses import replace
        original(self, replace(config, trace=True))
        built.append(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cluster_module.ParParCluster, "__init__", init)
        run()
    return built


@pytest.mark.parametrize("strategy", STRATEGY_NAMES)
def test_streamed_spans_equal_offline_on_lossy_chaos(strategy):
    [cluster] = _kept(lambda: run_chaos_point(ChaosPoint(
        rounds=10, drop=0.05, dup=0.05, strategy=strategy, telemetry=True)))
    assert cluster.telemetry.spans.epochs
    assert_same(cluster.telemetry.spans, cluster.tracer)


def test_streamed_spans_equal_offline_on_switches_and_a_cut_stream():
    """Figure 9's switch spans, then the same run cut short by a record
    cap, which leaves gang switches, flights and messages open."""
    [cluster] = _kept(lambda: run_figure9(nodes=(4,), num_switches=2,
                                          telemetry=True))
    assert_same(cluster.telemetry.spans, cluster.tracer)
    rows = [(r.time, r.kind, r.fields) for r in cluster.tracer.records]
    sink, tracer = stream_both(rows, limit=len(rows) // 3)
    assert tracer.truncated
    assert_same(sink, tracer)
