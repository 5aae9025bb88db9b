"""Property tests of the lineage replay's lookup indexes and fast path.

Both indexes replace a linear scan and must return exactly what the scan
returned: :class:`IntervalIndex` the clipped window pieces (bit for bit,
in the same order), and the lineage's ``seq -> first sender`` map the
first matching ``seq_owner`` entry for drops and duplicates recorded
without a ``src``.  :func:`attribute_message`, fast path included, must
return bit for bit what the straightforward partition below (a copy of
the one every message took before the fast path) returns.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.trace import TraceRecord
from repro.telemetry.attribution import (CAUSES, IntervalIndex, WindowIndex,
                                         _clip, attribute_message)
from repro.telemetry.causal import (FragmentTrace, MessageTrace,
                                    WindowBuilder, build_lineage)

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


# ---------------------------------------------------------------- fast path
# The reference partition: every message through the general path, as
# the module computed it before the fast path (``charge_nic`` inlined,
# window lists scanned linearly).  A copy, so that a change to the module
# cannot move it too.
def _ref_clip(intervals, lo, hi):
    out = []
    for start, end in intervals:
        s, e = max(start, lo), min(end, hi)
        if e > s:
            out.append((s, e))
    return out


def _ref_total(intervals):
    return sum((e - s for s, e in intervals), 0.0)


def _ref_subtract(base, cut):
    result = base
    for cs, ce in cut:
        nxt = []
        for s, e in result:
            if ce <= s or cs >= e:
                nxt.append((s, e))
                continue
            if s < cs:
                nxt.append((s, cs))
            if ce < e:
                nxt.append((ce, e))
        result = nxt
    return result


def _ref_merge(intervals):
    if not intervals:
        return []
    intervals = sorted(intervals)
    merged = [intervals[0]]
    for s, e in intervals[1:]:
        ls, le = merged[-1]
        if s <= le:
            merged[-1] = (ls, max(le, e))
        else:
            merged.append((s, e))
    return merged


def _ref_complete(trace):
    if trace.started is None or trace.completed is None:
        return False
    if trace.frag_count is None or len(trace.frags) < trace.frag_count:
        return False
    return all(f.enqueued is not None and f.tx_times
               and f.delivered is not None for f in trace.frags.values())


def _ref_completing_fragment(trace):
    delivered = [f for f in trace.frags.values() if f.delivered is not None]
    if not delivered:
        return None
    return max(delivered, key=lambda f: (f.delivered, f.frag))


def _ref_delivering_tx(frag):
    if frag.delivered is None or not frag.tx_times:
        return None
    before = [t for t in frag.tx_times if t <= frag.delivered]
    return before[-1] if before else frag.tx_times[0]


_REF_STALL_CAUSE = {"credit": "credit-stall", "buffer-full": "buffer-full"}


def reference_attribute(trace, windows):
    """``attribute_message`` as every message ran it before the fast
    path, against :class:`SchedulingWindows` lists."""
    if not _ref_complete(trace):
        return None
    frag = _ref_completing_fragment(trace)
    if frag is None or frag.enqueued is None:
        return None
    t_start, t_end = trace.started, trace.completed
    enq, first_tx = frag.enqueued, frag.tx_times[0]
    tx, deliver = _ref_delivering_tx(frag), frag.delivered
    if not (t_start <= enq <= first_tx <= deliver <= t_end):
        return None
    causes = dict.fromkeys(CAUSES, 0.0)
    remaining_a = [(t_start, enq)]
    if trace.stalls:
        stall_ivs = []
        for stall_cause, s, e in trace.stalls:
            clipped = _ref_clip([(s, e)], t_start, enq)
            causes[_REF_STALL_CAUSE.get(stall_cause, stall_cause)] += (
                _ref_total(clipped))
            stall_ivs.extend(clipped)
        remaining_a = _ref_subtract(remaining_a, _ref_merge(stall_ivs))
    src_stopped = _ref_clip(
        windows.stopped.get((trace.src_node, trace.job), []), t_start, enq)
    before_a = _ref_total(remaining_a)
    if src_stopped:
        remaining_a = _ref_subtract(remaining_a, _ref_merge(src_stopped))
        causes["descheduled"] += before_a - _ref_total(remaining_a)
        before_a = _ref_total(remaining_a)
    causes["host-send"] = before_a
    remaining = [(enq, first_tx)]
    src = trace.src_node
    for cause, table, key in (
            ("stored-context", windows.stored, (src, trace.job)),
            ("buffer-swap", windows.swapping, src),
            ("gang-barrier", windows.halted, src)):
        overlap = _ref_clip(table.get(key, []), enq, first_tx)
        if overlap:
            before = _ref_total(remaining)
            remaining = _ref_subtract(remaining, _ref_merge(overlap))
            causes[cause] += before - _ref_total(remaining)
    causes["nic-queue"] += _ref_total(remaining)
    causes["retransmit-backoff"] += tx - first_tx
    causes["wire"] += deliver - tx
    desched = _ref_clip(
        windows.stopped.get((trace.dst_node, trace.job), []), deliver, t_end)
    if desched:
        desched_total = _ref_total(_ref_merge(desched))
        causes["descheduled"] += desched_total
        causes["host-pickup"] += (t_end - deliver) - desched_total
    else:
        causes["host-pickup"] += t_end - deliver
    return {"latency": t_end - t_start, "causes": causes}


STEP = 0.25e-3
#: a coarse grid, so that windows touch segment edges exactly and
#: zero-length intervals are common; -0.0 and off-grid floats now and then
grid = st.one_of(st.integers(0, 24).map(lambda n: n * STEP),
                 st.just(-0.0), st.floats(0.0, 24 * STEP))


@st.composite
def message(draw):
    """A message from node 0 or 1, its chain mostly in order."""
    src = draw(st.integers(0, 1))
    times = sorted(draw(st.lists(grid, min_size=5, max_size=5)))
    if draw(st.integers(0, 9)) == 0:
        draw(st.randoms()).shuffle(times)    # a stitched, out-of-order chain
    t_start, enq, first_tx, deliver, t_end = times
    nfrags = draw(st.integers(1, 3))
    trace = MessageTrace(src, draw(st.integers(1, 2)), 1, dst_node=1 - src,
                         frag_count=nfrags + (draw(st.integers(0, 9)) == 0),
                         started=t_start, completed=t_end)
    last = draw(st.integers(0, nfrags - 1))
    for index in range(nfrags):
        frag = trace.frags[index] = FragmentTrace(index)
        if index == last:
            frag.enqueued, frag.delivered = enq, deliver
            frag.tx_times = [first_tx] + sorted(draw(st.lists(
                st.one_of(grid, st.just(deliver)), max_size=2)))
        else:
            a, b, c = sorted(draw(st.lists(grid, min_size=3, max_size=3)))
            frag.enqueued, frag.tx_times = a, [b]
            frag.delivered = draw(st.sampled_from(
                (min(c, deliver), min(c, deliver), deliver, None)))
    for _ in range(draw(st.sampled_from((0, 0, 0, 1, 2)))):
        s, e = sorted(draw(st.lists(st.one_of(grid, st.just(t_start),
                                              st.just(enq)),
                                    min_size=2, max_size=2)))
        trace.stalls.append((draw(st.sampled_from(("credit", "buffer-full"))),
                             s, e))
    return trace


#: window kinds as (opening record, closing record)
WINDOWS = (("nic-halt", "nic-release"), ("ctx-remove", "ctx-install"),
           ("init-job", "ctx-install"), ("job-stop", "job-go"),
           ("buffer-switch", None))


@st.composite
def window_records(draw, end, edges):
    """Window records at or before ``end``, in time order, often at one
    of the message's own ``edges``: windows opened and closed, left
    open, closed without an open edge, and buffer swaps."""
    at = st.one_of(grid, st.sampled_from((end, *edges)))
    events = []
    for _ in range(draw(st.integers(0, 8))):
        opener, closer = draw(st.sampled_from(WINDOWS))
        fields = {"node": draw(st.integers(0, 1)),
                  "job": draw(st.integers(1, 2))}
        start, stop = sorted((draw(at), draw(at)))
        if opener == "buffer-switch":
            events.append((stop, opener,
                           {**fields, "duration": stop - start}))
            continue
        shape = draw(st.sampled_from(("closed", "closed", "open", "close")))
        if shape != "close":
            events.append((start, opener, {**fields, "installed": False}
                           if opener == "init-job" else fields))
        if shape != "open":
            events.append((stop, closer, fields))
    return sorted((e for e in events if e[0] <= end), key=lambda e: e[0])


def att_bits(att):
    """Every value's type and bits, causes in order."""
    if att is None:
        return None
    return [(key, type(value).__name__, float(value).hex()) for key, value
            in (("latency", att["latency"]), *att["causes"].items())]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_attribution_equals_reference_on_live_and_indexed_windows(data):
    """The live builder of a stream that has just completed the message
    (every window record at or before its ``msg-recv``), and the index
    of a whole stream that goes on past it."""
    trace = data.draw(message())
    end = max(trace.completed, 0.0)
    edges = [trace.started, trace.completed] + [
        t for f in trace.frags.values()
        for t in (f.enqueued, *f.tx_times, f.delivered) if t is not None]
    live = WindowBuilder()
    for time, kind, fields in data.draw(window_records(end, edges)):
        live.feed(time, kind, fields)
    assert att_bits(attribute_message(trace, live)) == att_bits(
        reference_attribute(trace, live.windows(end)))

    whole = WindowBuilder()
    for time, kind, fields in data.draw(
            window_records(end + 8 * STEP, edges)):
        whole.feed(time, kind, fields)
    final = whole.windows(end + 8 * STEP)
    expected = att_bits(reference_attribute(trace, final))
    assert att_bits(attribute_message(trace, WindowIndex(final))) == expected
    assert att_bits(attribute_message(trace, final)) == expected


def test_send_segment_stalled_end_to_end_charges_a_float():
    """A ``credit`` stall spanning exactly ``[t_start, enq]`` cuts all of
    segment A away; ``host-send`` is then the float 0.0, not the int 0."""
    trace = MessageTrace(0, 1, 1, dst_node=1, frag_count=1, started=0.0,
                         completed=4 * STEP)
    frag = trace.frags[0] = FragmentTrace(0)
    frag.enqueued, frag.tx_times, frag.delivered = STEP, [2 * STEP], 3 * STEP
    trace.stalls.append(("credit", 0.0, STEP))
    windows = WindowBuilder().windows(4 * STEP)
    att = attribute_message(trace, windows)
    assert type(att["causes"]["host-send"]) is float
    assert att_bits(att) == att_bits(reference_attribute(trace, windows))
