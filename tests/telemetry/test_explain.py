"""The ``repro explain`` analyzer: analysis and trace I/O.

The determinism contract under test: a serial run and a ``-j`` pool run
of the same sweep produce byte-identical reports, a saved trace
re-analyzes to exactly the report of the run that produced it, and the
analysis does not depend on the offset or spacing of message ids and
wire seqs (so traces saved with other ids re-ingest the same).
"""

import json

import pytest

from repro.cli import main
from repro.sim.trace import TraceRecord
from repro.telemetry.explain import (_run_point, analyze_records,
                                     explain_chrome_trace, explain_payload,
                                     load_trace, normalize_records,
                                     render_explain,
                                     run_explain, top_messages,
                                     trace_payload)
from tests.telemetry import oracle

MS = 1e-3


def rec(time, kind, **fields):
    return TraceRecord(time, kind, fields)


def chain(msg, seq, base, node=0, dst=1, job=1):
    t = base
    return [
        rec(t, "msg-start", node=node, job=job, msg=msg, dst=dst,
            dst_rank=0, nbytes=64, frags=1),
        rec(t + MS, "pkt-enq", node=node, job=job, msg=msg, frag=0,
            seq=seq, dst=dst),
        rec(t + 2 * MS, "pkt-tx", node=node, job=job, msg=msg, frag=0,
            seq=seq, dst=dst),
        rec(t + 3 * MS, "pkt-deliver", node=dst, src=node, job=job,
            msg=msg, seq=seq),
        rec(t + 4 * MS, "msg-recv", node=dst, job=job, msg=msg, src=node,
            nbytes=64),
    ]


class TestAnalyze:
    def test_synthetic_stream_sums_exactly(self):
        records = chain(msg=0, seq=0, base=0.0) + chain(msg=1, seq=1,
                                                        base=2 * MS)
        analysis = analyze_records(records)
        assert analysis["messages"] == 2
        assert analysis["complete"] == 2
        assert analysis["incomplete"] == 0
        assert analysis["mismatches"] == 0
        for m in analysis["per_message"]:
            assert sum(m["causes"].values()) == pytest.approx(m["latency"])
            assert m["chain"]["completed"] > m["chain"]["started"]

    def test_incomplete_counted_not_attributed(self):
        records = chain(msg=0, seq=0, base=0.0)[:-2]
        analysis = analyze_records(records, truncated=True)
        assert analysis["incomplete"] == 1
        assert analysis["complete"] == 0
        assert analysis["truncated"] is True

    def test_top_messages_deterministic_tie_break(self):
        per = [{"index": i, "latency": 5.0} for i in range(4)]
        assert [m["index"] for m in top_messages(per, 3)] == [0, 1, 2]


def rewrite_ids(rows, msg_of, seq_of):
    """Saved-trace rows with every message id (``msg``/``msg_id``, control
    sentinels below 0 kept) and wire seq passed through the given maps."""
    out = []
    for time, kind, fields in rows:
        fields = dict(fields)
        for key in ("msg", "msg_id"):
            if fields.get(key) is not None and fields[key] >= 0:
                fields[key] = msg_of(fields[key])
        if fields.get("seq") is not None:
            fields["seq"] = seq_of(fields["seq"])
        out.append([time, kind, fields])
    return out


def offset(rows):
    """Ids as a process that simulated other runs first once drew them."""
    return rewrite_ids(rows, lambda msg: msg + 165, lambda seq: seq + 9000)


def renumbered(rows):
    """Ids as saved traces once kept them: dense message indices (in id
    order, which keeps lineage order), seqs numbered by first appearance."""
    msgs = sorted({f[key] for _, _, f in rows for key in ("msg", "msg_id")
                   if f.get(key) is not None and f[key] >= 0})
    dense = {msg: index for index, msg in enumerate(msgs)}
    seqs: dict = {}
    return rewrite_ids(rows, dense.__getitem__,
                       lambda seq: seqs.setdefault(seq, len(seqs)))


class TestNormalize:
    def test_offset_invariance(self):
        """Saved rows keep raw ids, and shifting every message id and seq
        changes nothing in the analysis -- this is why a trace re-ingests
        to the same report whatever ids its run drew."""
        base = chain(msg=0, seq=0, base=0.0) + chain(msg=1, seq=1, base=MS)
        shifted = chain(msg=700, seq=9000, base=0.0) + \
            chain(msg=701, seq=9001, base=MS)
        assert normalize_records(shifted) == rewrite_ids(
            normalize_records(base), lambda msg: msg + 700,
            lambda seq: seq + 9000)
        analysis = analyze_records(base)
        assert analysis["complete"] == 2
        assert analyze_records(shifted) == analysis


class TestRawEqualsNormalized:
    """A saved trace's rows analyze exactly as the raw stream they came
    from, and so do the same rows with offset or renumbered ids."""

    def test_synthetic_stream_with_drops_dups_and_retransmits(self):
        # sparse, non-zero-based ids; same-instant starts force the id
        # tie-break in lineage order
        records = (chain(msg=703, seq=9005, base=0.0)
                   + chain(msg=700, seq=9000, base=0.0)
                   + chain(msg=701, seq=9001, base=0.0, node=1, dst=0)
                   + chain(msg=702, seq=9003, base=0.5 * MS, job=2))
        records += [
            rec(2.5 * MS, "pkt-drop", node=1, seq=9005, reason="fault"),
            rec(2.6 * MS, "rto-retransmit", node=0, seq=9005, attempt=1),
            rec(2.7 * MS, "pkt-tx", node=0, job=1, msg=703, frag=0,
                seq=9005, dst=1),
            rec(3.5 * MS, "pkt-deliver", node=1, src=0, job=1, msg=703,
                seq=9005),
            rec(3.6 * MS, "pkt-dup-discard", node=1, seq=9005),
            rec(3.7 * MS, "nic-halt", node=0),
            rec(3.9 * MS, "nic-release", node=0),
            rec(4.2 * MS, "job-stop", node=1, job=2),
        ]
        records.sort(key=lambda r: r.time)
        frags = [frag for trace in oracle.build_lineage(records)
                 for frag in trace.frags.values()]
        assert sum(f.drops for f in frags) == 1
        assert sum(f.dup_discards for f in frags) == 1
        assert sum(f.retransmits for f in frags) == 1
        assert sum(f.extra_deliveries for f in frags) == 1
        raw = analyze_records(records, end_time=6 * MS)
        assert raw["complete"] == 4
        rows = normalize_records(records)
        for variant in (rows, offset(rows), renumbered(rows)):
            assert analyze_records([TraceRecord(*row) for row in variant],
                                   end_time=6 * MS) == raw


class TestIdOffsetInvariance:
    """The analysis compares ids only for identity and names messages by
    lineage index, so the ids' offset and spacing never reach it."""

    def test_real_point_stream(self, small_results):
        """The streamed analysis equals the offline one, and a saved
        trace with offset or renumbered ids re-ingests to the same
        explain output."""
        streamed, _, raw_records, end_time = _run_point(
            jobs=2, message_bytes=1536, messages=20, quantum=0.004,
            num_processors=16, policy="", seed=5, keep_records=True)
        assert streamed["complete"] > 0
        assert streamed == oracle.analyze_records(
            raw_records, truncated=streamed["truncated"], end_time=end_time)
        saved = trace_payload(small_results)
        dump = lambda doc: json.dumps(explain_payload(load_trace(doc)),
                                      sort_keys=True)
        for variant in (offset, renumbered):
            old = dict(saved, points=[dict(p, records=variant(p["records"]))
                                      for p in saved["points"]])
            assert dump(old) == dump(saved)


@pytest.fixture(scope="module")
def small_results():
    return run_explain(jobs=(2,), message_sizes=(1536,), messages=20,
                       quantum=0.004, root_seed=0, workers=1,
                       keep_records=True)


class TestRunExplain:
    def test_all_messages_attributed(self, small_results):
        point = small_results[0]["point"]
        assert point["complete"] > 0
        assert point["incomplete"] == 0
        assert point["mismatches"] == 0

    def test_serial_matches_worker_pool_byte_for_byte(self, small_results):
        pooled = run_explain(jobs=(2,), message_sizes=(1536,), messages=20,
                             quantum=0.004, root_seed=0, workers=2,
                             keep_records=True)
        dump = lambda r: json.dumps(explain_payload(r, top=5), sort_keys=True)
        assert dump(small_results) == dump(pooled)
        assert render_explain(small_results) == render_explain(pooled)

    def test_trace_round_trip_is_exact(self, small_results):
        doc = json.loads(json.dumps(trace_payload(small_results),
                                    sort_keys=True))
        reloaded = load_trace(doc)
        dump = lambda r: json.dumps(explain_payload(r, top=5), sort_keys=True)
        assert dump(reloaded) == dump(small_results)

    def test_chrome_trace_has_flows_and_tracks(self, small_results):
        doc = explain_chrome_trace(small_results[0], top=10)
        events = doc["traceEvents"]
        phases = {e["ph"] for e in events}
        assert {"X", "M", "s", "f"} <= phases
        flows = [e for e in events if e["ph"] in ("s", "f")]
        assert flows and len(flows) % 2 == 0
        starts = {e["id"] for e in events if e["ph"] == "s"}
        finishes = {e["id"] for e in events if e["ph"] == "f"}
        assert starts == finishes
        names = {e["args"]["name"] for e in events
                 if e["ph"] == "M" and e["name"] == "process_name"}
        assert any("node" in n for n in names)


class TestExplainCli:
    def test_run_writes_artifacts(self, capsys, tmp_path):
        json_path = tmp_path / "explain.json"
        chrome_path = tmp_path / "explain-chrome.json"
        trace_path = tmp_path / "trace.json"
        assert main(["explain", "--jobs", "2", "--messages", "15",
                     "--json", str(json_path),
                     "--chrome", str(chrome_path),
                     "--save-trace", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "jobs=2" in out and "host-send" in out
        doc = json.loads(json_path.read_text())
        assert doc["schema"] == "repro-explain/1"
        assert doc["points"][0]["mismatches"] == 0
        chrome = json.loads(chrome_path.read_text())
        assert chrome["traceEvents"]
        trace = json.loads(trace_path.read_text())
        assert trace["schema"] == "repro-trace/1"

    def test_ingest_saved_trace(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.json"
        assert main(["explain", "--jobs", "1", "--messages", "10",
                     "--save-trace", str(trace_path)]) == 0
        capsys.readouterr()
        assert main(["explain", "--trace", str(trace_path)]) == 0
        assert "host-send" in capsys.readouterr().out
