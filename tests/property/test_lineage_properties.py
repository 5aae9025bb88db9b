"""Property tests of the lineage replay's lookup indexes.

Both indexes replace a linear scan and must return exactly what the scan
returned: :class:`IntervalIndex` the clipped window pieces (bit for bit,
in the same order), and the lineage's ``seq -> first sender`` map the
first matching ``seq_owner`` entry for drops and duplicates recorded
without a ``src``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.trace import TraceRecord
from repro.telemetry.attribution import IntervalIndex, _clip
from repro.telemetry.causal import build_lineage

times = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False,
                  allow_infinity=False)


@st.composite
def intervals(draw):
    """Any interval list: unsorted, overlapping, zero-length, inverted."""
    out = []
    for start, length in draw(st.lists(
            st.tuples(times, st.one_of(st.just(0.0), times)), max_size=30)):
        out.append((start, start + length))
    if out and draw(st.booleans()):
        out.sort()
    return out


def bits(pieces):
    return [(s.hex(), e.hex()) for s, e in pieces]


@settings(max_examples=400, deadline=None)
@given(ivs=intervals(), lo=times, hi=times)
def test_indexed_clip_equals_linear_scan(ivs, lo, hi):
    linear = []
    for iv in ivs:
        linear.extend(_clip([iv], lo, hi))
    assert bits(IntervalIndex(ivs).clip(lo, hi)) == bits(linear)


@settings(max_examples=100, deadline=None)
@given(ivs=intervals(), data=st.data())
def test_indexed_clip_at_interval_edges(ivs, data):
    """Query bounds drawn from the intervals' own endpoints, where the
    ``>`` vs ``>=`` boundaries of both bisects matter."""
    edges = [t for iv in ivs for t in iv] or [0.0]
    lo = data.draw(st.sampled_from(edges))
    hi = data.draw(st.sampled_from(edges))
    assert bits(IntervalIndex(ivs).clip(lo, hi)) == bits(_clip(ivs, lo, hi))


def _scan_owner(seq_owner, f):
    """The linear first-match scan ``_dup_owner`` used to do."""
    seq = f.get("seq")
    if seq is None:
        return None
    if f.get("src") is not None:
        return seq_owner.get((f["src"], seq))
    for (_, owned_seq), owner in seq_owner.items():
        if owned_seq == seq:
            return owner
    return None


@settings(max_examples=300, deadline=None)
@given(enqueues=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 5),
                                   st.integers(0, 8)), max_size=40),
       drops=st.lists(st.tuples(st.one_of(st.none(), st.integers(0, 3)),
                                st.one_of(st.none(), st.integers(0, 9))),
                      max_size=20))
def test_drop_owner_index_equals_scan(enqueues, drops):
    """Replay ``pkt-enq`` claims then ``pkt-drop`` records through
    :func:`build_lineage`, and charge each drop where the scan would.
    Re-claimed (node, seq) keys and a seq claimed by several nodes are
    the cases where "first match" and "last write" could disagree."""
    records, seq_owner = [], {}
    for node, msg, seq in enqueues:
        records.append(TraceRecord(0.0, "pkt-enq", {
            "node": node, "job": 1, "msg": msg, "frag": 0, "seq": seq}))
        seq_owner[(node, seq)] = ((node, 1, msg), 0)
    expected = {}
    for src, seq in drops:
        f = {"node": 9, "seq": seq}
        if src is not None:
            f["src"] = src
        records.append(TraceRecord(1.0, "pkt-drop", f))
        owner = _scan_owner(seq_owner, f)
        if owner is not None:
            expected[owner[0]] = expected.get(owner[0], 0) + 1
    drops_by_key = {trace.key: trace.frags[0].drops
                    for trace in build_lineage(records)}
    assert {k: n for k, n in drops_by_key.items() if n} == expected
