"""Chrome trace_event export."""

import json

from repro.telemetry.export import to_chrome_trace
from repro.telemetry.spans import Span


def _span(sid=1, name="halt", start=0.001, end=0.002, node=2, parent=None):
    return Span(span_id=sid, parent_id=parent, name=name, category="switch",
                start=start, end=end, args={"node": node})


class TestChromeTrace:
    def test_span_becomes_complete_event(self):
        trace = to_chrome_trace([_span()])
        [ev] = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert ev["name"] == "halt"
        assert ev["ts"] == 1000.0       # seconds -> microseconds
        assert ev["dur"] == 1000.0
        assert ev["pid"] == 2           # node id groups the rows
        assert ev["args"]["span_id"] == 1

    def test_metadata_rows_per_pid(self):
        trace = to_chrome_trace([_span(node=0), _span(sid=2, node=3)])
        names = {(e["pid"], e["name"]) for e in trace["traceEvents"]
                 if e["ph"] == "M"}
        assert (0, "process_name") in names
        assert (3, "process_name") in names

    def test_json_serializable(self):
        trace = to_chrome_trace([_span()], metadata={"scenario": "test"})
        parsed = json.loads(json.dumps(trace))
        assert parsed["otherData"]["scenario"] == "test"
        assert parsed["displayTimeUnit"] == "ms"


class TestFlowEvents:
    def flow(self, fid=7, start_ts=0.001, end_ts=0.002):
        return {"id": fid, "name": "wire", "cat": "causal",
                "start": {"node": 0, "track": "nic", "ts": start_ts},
                "end": {"node": 1, "track": "host", "ts": end_ts}}

    def test_flow_renders_paired_s_f_events(self):
        trace = to_chrome_trace([], flows=[self.flow()])
        flows = [e for e in trace["traceEvents"] if e["ph"] in ("s", "f")]
        assert len(flows) == 2
        start, finish = flows
        assert start["ph"] == "s" and finish["ph"] == "f"
        assert start["id"] == finish["id"] == 7
        assert start["pid"] == 0 and finish["pid"] == 1
        assert start["ts"] == 1000.0 and finish["ts"] == 2000.0
        assert finish["bp"] == "e"      # bind to the enclosing slice
        assert "bp" not in start

    def test_flow_endpoints_land_on_named_tracks(self):
        span = Span(span_id=1, parent_id=None, name="nic msg", category="nic",
                    start=0.0, end=0.01, args={"node": 0})
        trace = to_chrome_trace([span], flows=[self.flow()])
        events = trace["traceEvents"]
        [slice_ev] = [e for e in events if e["ph"] == "X"]
        [start_ev] = [e for e in events if e["ph"] == "s"]
        # same (pid, track) -> same tid: the arrow leaves the nic row
        assert start_ev["tid"] == slice_ev["tid"]
        names = {(e["pid"], e["args"]["name"]): e["tid"]
                 for e in events
                 if e["ph"] == "M" and e["name"] == "thread_name"}
        assert names[(0, "nic")] == start_ev["tid"]
        [finish_ev] = [e for e in events if e["ph"] == "f"]
        assert names[(1, "host")] == finish_ev["tid"]

    def test_process_and_thread_metadata_rows(self):
        trace = to_chrome_trace([], flows=[self.flow()])
        meta = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        procs = {e["pid"]: e["args"]["name"] for e in meta
                 if e["name"] == "process_name"}
        assert set(procs) == {0, 1}
        assert all("node" in name for name in procs.values())
        threads = [(e["pid"], e["tid"], e["args"]["name"]) for e in meta
                   if e["name"] == "thread_name"]
        assert (0, 0, "nic") in threads
        assert (1, 0, "host") in threads
