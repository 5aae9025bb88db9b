"""The ``repro explain`` analyzer: normalization, analysis, trace I/O.

The determinism contract under test: process-global ids (message
counters, wire seqs) must normalize away so a serial run and a ``-j``
pool run of the same sweep produce byte-identical reports, and a saved
trace must re-analyze to exactly the report of the run that produced it.
"""

import json

import pytest

from repro.cli import main
from repro.sim.trace import TraceRecord
from repro.telemetry.explain import (_run_point, analyze_records,
                                     explain_chrome_trace,
                                     explain_payload, load_trace,
                                     normalize_records, render_explain,
                                     run_explain, top_messages,
                                     trace_payload)

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


def as_tuples(records):
    return [(r.time, r.kind, sorted(r.fields.items())) for r in records]


class TestNormalize:
    def test_offset_invariance(self):
        """Shifting every process-global id must not change the output —
        this is exactly why serial and pooled runs agree byte-for-byte."""
        base = chain(msg=0, seq=0, base=0.0) + chain(msg=1, seq=1, base=MS)
        shifted = chain(msg=700, seq=9000, base=0.0) + \
            chain(msg=701, seq=9001, base=MS)
        assert as_tuples(normalize_records(base)) == \
            as_tuples(normalize_records(shifted))

    def test_ids_become_dense_lineage_order(self):
        records = chain(msg=41, seq=77, base=MS) + chain(msg=40, seq=76,
                                                         base=0.0)
        normalized = normalize_records(records)
        starts = {r.fields["msg"]: r.time for r in normalized
                  if r.kind == "msg-start"}
        # start-time order, not id order: the earlier message gets index 0
        assert starts == {0: 0.0, 1: MS}
        seqs = [r.fields["seq"] for r in normalized if r.kind == "pkt-enq"]
        assert seqs == [0, 1]

    def test_control_sentinels_untouched(self):
        records = [rec(0.0, "pkt-tx", node=0, job=1, msg=-1, dst=1, seq=500)]
        [out] = normalize_records(records)
        assert out.fields["msg"] == -1
        assert out.fields["seq"] == 0       # seqs normalize even on control


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


def without_lineage(analysis):
    """An analysis minus its lineage, the one part that keeps raw ids."""
    return {k: v for k, v in analysis.items() if k != "lineage"}


class TestRawEqualsNormalized:
    """Explain analyzes the raw stream and normalizes only kept records;
    that is sound only if normalizing first changes nothing."""

    def test_synthetic_stream_with_drops_dups_and_retransmits(self):
        # sparse, non-zero-based ids, as a worker that ran earlier
        # simulations would see them; same-instant starts force the id
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
        raw = analyze_records(records, end_time=6 * MS)
        normalized = analyze_records(normalize_records(records),
                                     end_time=6 * MS)
        assert without_lineage(raw) == without_lineage(normalized)
        frags = [frag for trace in raw["lineage"]
                 for frag in trace.frags.values()]
        assert sum(f.drops for f in frags) == 1
        assert sum(f.dup_discards for f in frags) == 1
        assert sum(f.retransmits for f in frags) == 1
        assert sum(f.extra_deliveries for f in frags) == 1

    def test_real_point_stream(self):
        streamed, _, raw_records, end_time = _run_point(
            jobs=2, message_bytes=1536, messages=20, quantum=0.004,
            num_processors=16, policy="", seed=5, keep_records=True)
        truncated = streamed["truncated"]
        raw = analyze_records(raw_records, truncated=truncated,
                              end_time=end_time)
        assert streamed == without_lineage(raw)
        normalized = analyze_records(
            normalize_records(raw_records, raw["lineage"]),
            truncated=truncated, end_time=end_time)
        assert raw["complete"] > 0
        assert without_lineage(raw) == without_lineage(normalized)
        assert normalize_records(raw_records, raw["lineage"]) == \
            normalize_records(raw_records)


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
