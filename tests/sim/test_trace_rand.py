"""Tests for the tracer and the deterministic random streams."""

import copy
import pickle

import pytest

from repro.sim import RandomStreams, Simulator, Tracer
from repro.sim.trace import NullTracer, TraceRecord


@pytest.fixture
def sim():
    return Simulator()


class TestTracer:
    def make(self, sim, **kwargs):
        return Tracer(clock=lambda: sim.now, **kwargs)

    def test_records_with_time_and_fields(self, sim):
        tracer = self.make(sim)
        sim.timeout(2.0).add_callback(
            lambda ev: tracer.record("tick", value=42))
        sim.run()
        assert len(tracer) == 1
        rec = tracer.records[0]
        assert rec.time == 2.0
        assert rec.kind == "tick"
        assert rec.value == 42

    def test_missing_field_raises_attribute_error(self, sim):
        tracer = self.make(sim)
        tracer.record("x")
        with pytest.raises(AttributeError):
            _ = tracer.records[0].nope

    def test_kind_filter(self, sim):
        tracer = self.make(sim, kinds={"keep"})
        tracer.record("keep")
        tracer.record("drop")
        assert [r.kind for r in tracer] == ["keep"]

    def test_disabled_records_nothing(self, sim):
        tracer = self.make(sim, enabled=False)
        tracer.record("x")
        assert len(tracer) == 0

    def test_of_kind_between_last(self, sim):
        tracer = self.make(sim)
        for t, kind in ((1.0, "a"), (2.0, "b"), (3.0, "a")):
            sim.timeout(t).add_callback(lambda ev, k=kind: tracer.record(k))
        sim.run()
        assert len(tracer.of_kind("a")) == 2
        assert len(tracer.between(1.5, 2.5)) == 1
        assert tracer.last("a").time == 3.0
        assert tracer.last("zzz") is None

    def test_clear(self, sim):
        tracer = self.make(sim)
        tracer.record("x")
        tracer.clear()
        assert len(tracer) == 0

    def test_null_tracer_is_silent(self):
        tracer = NullTracer()
        tracer.record("anything", x=1)
        assert len(tracer) == 0


class TestTraceRecord:
    def test_fields_default_is_a_fresh_dict(self):
        a, b = TraceRecord(1.0, "x"), TraceRecord(1.0, "x")
        assert a.fields == {} and a.fields is not b.fields

    def test_equality_compares_time_kind_and_fields(self):
        rec = TraceRecord(1.0, "x", {"node": 3})
        assert rec == TraceRecord(1.0, "x", {"node": 3})
        assert rec != TraceRecord(2.0, "x", {"node": 3})
        assert rec != TraceRecord(1.0, "y", {"node": 3})
        assert rec != TraceRecord(1.0, "x", {"node": 4})
        assert rec != (1.0, "x", {"node": 3})

    def test_unhashable_like_its_fields(self):
        with pytest.raises(TypeError):
            hash(TraceRecord(1.0, "x"))

    def test_repr(self):
        assert repr(TraceRecord(0.5, "pkt-tx", {"seq": 7})) == \
            "TraceRecord(time=0.5, kind='pkt-tx', fields={'seq': 7})"

    def test_attribute_forwarding(self):
        rec = TraceRecord(time=1.0, kind="x", fields={"node": 3, "time": 9})
        assert rec.node == 3
        assert rec.time == 1.0          # real attributes win over fields
        with pytest.raises(AttributeError):
            _ = rec.missing
        assert getattr(rec, "missing", None) is None

    def test_pickle_and_copy_round_trip(self):
        rec = TraceRecord(1.0, "x", {"node": 3, "path": [1, 2]})
        for clone in (pickle.loads(pickle.dumps(rec)), copy.copy(rec),
                      copy.deepcopy(rec)):
            assert clone == rec and clone.node == 3


class TestRandomStreams:
    def test_same_seed_same_values(self):
        a = RandomStreams(7).stream("x")
        b = RandomStreams(7).stream("x")
        assert list(a.integers(0, 100, 5)) == list(b.integers(0, 100, 5))

    def test_different_names_are_independent(self):
        rs = RandomStreams(7)
        a = list(rs.stream("a").integers(0, 1_000_000, 5))
        b = list(rs.stream("b").integers(0, 1_000_000, 5))
        assert a != b

    def test_stream_is_cached(self):
        rs = RandomStreams(0)
        assert rs.stream("x") is rs.stream("x")

    def test_fork_is_independent(self):
        rs = RandomStreams(3)
        child = rs.fork("child")
        a = list(rs.stream("x").integers(0, 1_000_000, 5))
        b = list(child.stream("x").integers(0, 1_000_000, 5))
        assert a != b

    def test_draw_order_isolation(self):
        """Drawing extra values from one stream must not shift another."""
        rs1 = RandomStreams(5)
        rs1.stream("noise").integers(0, 10, 100)
        v1 = list(rs1.stream("signal").integers(0, 1_000_000, 3))
        rs2 = RandomStreams(5)
        v2 = list(rs2.stream("signal").integers(0, 1_000_000, 3))
        assert v1 == v2
