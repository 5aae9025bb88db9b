"""Property-based tests of credit flow-control invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

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
