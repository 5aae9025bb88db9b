"""Property-based tests of credit flow-control invariants."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import CreditError
from repro.fm.config import FMConfig
from repro.fm.credits import CreditState
from repro.sim import Simulator


@settings(max_examples=60, deadline=None)
@given(
    c0=st.integers(min_value=1, max_value=50),
    fraction=st.floats(min_value=0.0, max_value=0.99),
    ops=st.lists(st.sampled_from(["send", "consume", "piggy", "explicit"]),
                 max_size=120),
)
def test_credit_conservation_closed_loop(c0, fraction, ops):
    """Simulate a lossless closed loop between one sender and one
    receiver: at every step

        available + in_flight + unreported + returning == C0.
    """
    sim = Simulator()
    sender = CreditState(sim, c0, peers=[1], low_water_fraction=fraction)
    receiver = CreditState(sim, c0, peers=[0], low_water_fraction=fraction)
    in_flight = 0   # data packets sent, not yet consumed
    returning = 0   # credits carried by refills not yet applied

    def invariant():
        total = sender.available(1) + in_flight + \
            receiver.consumed_unreported(0) + returning
        assert total == c0, (
            f"conservation broken: {sender.available(1)} + {in_flight} + "
            f"{receiver.consumed_unreported(0)} + {returning} != {c0}"
        )

    for op in ops:
        if op == "send":
            if sender.try_acquire_send(1):
                in_flight += 1
        elif op == "consume":
            if in_flight:
                in_flight -= 1
                receiver.note_consumed(0)
        elif op == "piggy":
            returning += receiver.take_piggyback(0)
        else:  # explicit refill delivery
            if returning:
                sender.on_refill(1, returning)
                returning = 0
        assert 0 <= sender.available(1) <= c0
        invariant()


@settings(max_examples=60, deadline=None)
@given(c0=st.integers(min_value=1, max_value=100),
       fraction=st.floats(min_value=0.0, max_value=0.99))
def test_refill_threshold_bounds(c0, fraction):
    sim = Simulator()
    cs = CreditState(sim, c0, peers=[1], low_water_fraction=fraction)
    assert 1 <= cs.refill_threshold <= c0
    # Consuming exactly threshold packets makes a refill due, never before.
    for i in range(cs.refill_threshold - 1):
        cs.note_consumed(1)
        assert not cs.refill_due(1)
    cs.note_consumed(1)
    assert cs.refill_due(1)
    assert cs.take_refill(1) == cs.refill_threshold


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=1, max_value=8), p=st.integers(min_value=1, max_value=64))
def test_policy_geometry_invariants(n, p):
    """Whatever the shape, geometries must be self-consistent: credits
    sized so the worst-case fan-in cannot overflow the receive queue."""
    from repro.fm.policies.static import FullBuffer, StaticPartition

    config = FMConfig(max_contexts=n, num_processors=p)
    static = StaticPartition(on_zero_credit="report").geometry(config)
    full = FullBuffer().geometry(config)
    # Static: n*p potential senders, each with C0 credits.
    assert static.initial_credits * n * p <= static.recv_packets
    # Full-buffer: only the job's p processes can send.
    assert full.initial_credits * p <= full.recv_packets
    # The paper's n^2 relationship (up to integer truncation).
    assert full.initial_credits >= static.initial_credits


class _CreditModel:
    """The credit rules spelt out: one count per peer, and per peer the
    waits not yet fired.  A count that rises fires all of that peer's
    waits in the order they were made; a grown window does so peer by
    peer in sorted order; a wait with a credit there fires at once."""

    def __init__(self, c0, peers):
        self.c0 = c0
        self.avail = dict.fromkeys(peers, c0)
        self.waits = {peer: [] for peer in peers}
        self.fired = []

    def _window(self):
        if self.c0 == 0:
            raise CreditError("zero window")

    def _fire(self, peer):
        self.fired.extend(self.waits[peer])
        self.waits[peer] = []

    def try_acquire(self, peer):
        self._window()
        if self.avail[peer]:
            self.avail[peer] -= 1
            return True
        return False

    def wait(self, peer, tag):
        self._window()
        if self.avail[peer]:
            self.fired.append(tag)
        else:
            self.waits[peer].append(tag)

    def refill(self, peer, count):
        if self.avail[peer] + count > self.c0:
            raise CreditError("overflow")
        self.avail[peer] += count
        self._fire(peer)

    def set_window(self, new_c0):
        if new_c0 > self.c0:
            for peer in sorted(self.avail):
                self.avail[peer] += new_c0 - self.c0
                self._fire(peer)
        elif new_c0 < self.c0:
            take = min([self.c0 - new_c0, *self.avail.values()])
            for peer in self.avail:
                self.avail[peer] -= take
            new_c0 = self.c0 - take
        self.c0 = new_c0
        return new_c0


def _outcome(call):
    try:
        return call()
    except CreditError:
        return CreditError


_OPS = st.one_of(
    st.tuples(st.just("try"), st.integers(0, 7)),
    st.tuples(st.just("wait"), st.integers(0, 7)),
    st.tuples(st.just("refill"), st.integers(0, 7), st.integers(1, 3)),
    st.tuples(st.just("window"), st.integers(0, 6)),
)


@settings(max_examples=150, deadline=None)
@given(c0=st.integers(min_value=0, max_value=4),
       peers=st.lists(st.integers(0, 9), unique=True, min_size=1,
                      max_size=4),
       ops=st.lists(_OPS, max_size=60))
# A grown window wakes blocked peers in sorted order, not in wait order.
@example(c0=1, peers=[3, 1, 2],
         ops=[("try", 0), ("try", 1), ("try", 2), ("wait", 0), ("wait", 1),
              ("wait", 2), ("window", 2)])
def test_credit_state_matches_reference_model(c0, peers, ops):
    """Random try/wait/refill/window sequences: same return values, same
    counts, and the wait events fire in the model's order."""
    sim = Simulator()
    cs = CreditState(sim, c0, peers=peers)
    model = _CreditModel(c0, peers)
    fired = []
    for tag, op in enumerate(ops):
        kind = op[0]
        if kind == "window":
            got = _outcome(lambda: cs.set_window(op[1]))
            want = _outcome(lambda: model.set_window(op[1]))
        else:
            peer = peers[op[1] % len(peers)]
            if kind == "try":
                got = _outcome(lambda: cs.try_acquire_send(peer))
                want = _outcome(lambda: model.try_acquire(peer))
            elif kind == "wait":
                def wait():
                    event = cs.wait_send(peer)
                    event.add_callback(lambda _ev, tag=tag: fired.append(tag))
                got = _outcome(wait)
                want = _outcome(lambda: model.wait(peer, tag))
            else:
                got = _outcome(lambda: cs.on_refill(peer, op[2]))
                want = _outcome(lambda: model.refill(peer, op[2]))
        sim.run()
        assert got == want, (op, got, want)
        assert cs.c0 == model.c0
        assert {p: cs.available(p) for p in peers} == model.avail
        assert cs.reclaimable() == min(model.avail.values())
        assert fired == model.fired

