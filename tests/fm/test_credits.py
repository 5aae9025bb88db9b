"""Unit tests for the credit-based flow-control state."""

import tracemalloc

import pytest

from repro.errors import CreditError
from repro.fm.credits import CreditState
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator()


def acquire(cs, peer):
    """FM_send's credit loop: take a credit now, or wait and retry."""
    while not cs.try_acquire_send(peer):
        yield cs.wait_send(peer)


class TestAcquire:
    def test_initial_credits_available(self, sim):
        cs = CreditState(sim, c0=5, peers=[1, 2])
        assert cs.available(1) == 5
        assert cs.available(2) == 5

    def test_acquire_decrements(self, sim):
        cs = CreditState(sim, c0=3, peers=[1])
        done = []

        def sender():
            yield from acquire(cs, 1)
            done.append(cs.available(1))

        sim.process(sender())
        sim.run()
        assert done == [2]
        assert cs.send_waits == 0

    def test_acquire_blocks_at_zero_until_refill(self, sim):
        cs = CreditState(sim, c0=1, peers=[1])
        log = []

        def sender():
            yield from acquire(cs, 1)
            log.append(("first", sim.now))
            yield from acquire(cs, 1)
            log.append(("second", sim.now))

        sim.process(sender())

        def refiller():
            yield sim.timeout(5.0)
            cs.on_refill(1, 1)

        sim.process(refiller())
        sim.run()
        assert log == [("first", 0.0), ("second", 5.0)]
        assert cs.send_waits == 1
        assert cs.available(1) == 0

    def test_wait_with_credit_available_fires_at_once(self, sim):
        cs = CreditState(sim, c0=2, peers=[1])
        event = cs.wait_send(1)
        assert event.triggered
        assert cs.available(1) == 2     # a wait takes nothing

    def test_refill_wakes_every_waiter_in_wait_order(self, sim):
        """Level-triggered: one credit wakes all three blocked senders,
        the first to run takes it and the other two wait again."""
        cs = CreditState(sim, c0=1, peers=[1, 2])
        assert cs.try_acquire_send(1)
        log = []

        def sender(name):
            yield from acquire(cs, 1)
            log.append((name, sim.now))

        for name in "abc":
            sim.process(sender(name))

        def refiller():
            for t in (1.0, 2.0, 3.0):
                yield sim.timeout(t - sim.now)
                cs.on_refill(1, 1)

        sim.process(refiller())
        sim.run()
        assert log == [("a", 1.0), ("b", 2.0), ("c", 3.0)]
        # a, b, c at t=0; b, c at t=1; c at t=2
        assert cs.send_waits == 6
        assert cs.available(2) == 1    # the other peer never moved

    def test_zero_c0_raises_immediately(self, sim):
        cs = CreditState(sim, c0=0, peers=[1])
        with pytest.raises(CreditError, match="impossible"):
            cs.try_acquire_send(1)
        with pytest.raises(CreditError, match="impossible"):
            cs.wait_send(1)

    def test_unknown_peer_rejected(self, sim):
        cs = CreditState(sim, c0=2, peers=[1])
        with pytest.raises(CreditError):
            cs.try_acquire_send(9)
        with pytest.raises(CreditError):
            cs.wait_send(9)
        with pytest.raises(CreditError):
            cs.available(9)
        with pytest.raises(CreditError):
            cs.on_refill(9, 1)


class TestFootprint:
    def test_per_peer_state_is_a_counter(self, sim):
        """A run holds one CreditState per context with one entry per
        peer node, O(nodes**2) in all; each entry must stay a few dict
        slots, not an object with its own queues."""
        peers = list(range(1024))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            cs = CreditState(sim, c0=8, peers=peers)
            cost = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert cs.available(1023) == 8
        assert cost / len(peers) < 256, f"{cost / len(peers):.0f} B per peer"


class TestRefill:
    def test_refill_overflow_guard(self, sim):
        cs = CreditState(sim, c0=2, peers=[1])
        with pytest.raises(CreditError, match="overflow"):
            cs.on_refill(1, 1)  # already at C0

    def test_nonpositive_refill_rejected(self, sim):
        cs = CreditState(sim, c0=2, peers=[1])
        with pytest.raises(CreditError):
            cs.on_refill(1, 0)

    def test_low_water_threshold(self, sim):
        # c0=10, fraction 0.5 -> low_water 5 -> refill after 5 consumed
        cs = CreditState(sim, c0=10, peers=[1], low_water_fraction=0.5)
        assert cs.refill_threshold == 5
        for _ in range(4):
            cs.note_consumed(1)
            assert not cs.refill_due(1)
        cs.note_consumed(1)
        assert cs.refill_due(1)
        assert cs.take_refill(1) == 5
        assert cs.consumed_unreported(1) == 0

    def test_threshold_never_below_one(self, sim):
        cs = CreditState(sim, c0=1, peers=[1], low_water_fraction=0.5)
        assert cs.refill_threshold == 1
        cs.note_consumed(1)
        assert cs.refill_due(1)
        assert cs.take_refill(1) == 1

    def test_take_refill_when_empty_returns_zero(self, sim):
        cs = CreditState(sim, c0=10, peers=[1])
        assert cs.take_refill(1) == 0
        assert cs.refills_sent == 0


class TestPiggyback:
    def test_take_piggyback_resets_counter(self, sim):
        cs = CreditState(sim, c0=10, peers=[1])
        cs.note_consumed(1)
        cs.note_consumed(1)
        assert cs.take_piggyback(1) == 2
        assert cs.take_piggyback(1) == 0
        assert cs.consumed_unreported(1) == 0

    def test_piggyback_counts_stat(self, sim):
        cs = CreditState(sim, c0=10, peers=[1])
        cs.note_consumed(1)
        cs.take_piggyback(1)
        assert cs.refills_piggybacked == 1


class TestC0One:
    """Pin the documented overflow contract at the tightest window.

    With c0=1, low_water is 0 and refill_threshold is 1: every consumed
    packet refills immediately, so the window ping-pongs 0 -> 1 forever —
    and any duplicated refill overflows on the very next application.
    This is the configuration the ``on_refill`` docstring points at."""

    def test_thresholds_at_c0_one(self, sim):
        cs = CreditState(sim, c0=1, peers=[1])
        assert cs.low_water == 0
        assert cs.refill_threshold == 1

    def test_ping_pong_window(self, sim):
        sender = CreditState(sim, c0=1, peers=[1])
        receiver = CreditState(sim, c0=1, peers=[0])
        for _ in range(10):
            assert sender.try_acquire_send(1)
            assert sender.available(1) == 0
            receiver.note_consumed(0)
            assert receiver.refill_due(0)
            sender.on_refill(1, receiver.take_refill(0))
            assert sender.available(1) == 1

    def test_duplicate_refill_overflows_immediately(self, sim):
        sender = CreditState(sim, c0=1, peers=[1])
        assert sender.try_acquire_send(1)
        sender.on_refill(1, 1)          # the legitimate return
        with pytest.raises(CreditError, match="overflow"):
            sender.on_refill(1, 1)      # the duplicate: must not mint

    def test_overflow_leaves_window_intact(self, sim):
        """The failed refill must not corrupt the counter it protects."""
        sender = CreditState(sim, c0=1, peers=[1])
        with pytest.raises(CreditError, match="overflow"):
            sender.on_refill(1, 1)
        assert sender.available(1) == 1
        assert sender.credits_received == 0


class TestConservation:
    def test_round_trip_conserves_credits(self, sim):
        """available + unreported-consumed must return to C0 after a full
        send/consume/refill cycle."""
        sender = CreditState(sim, c0=4, peers=[1])
        receiver = CreditState(sim, c0=4, peers=[0])

        def cycle():
            for _ in range(4):
                yield from acquire(sender, 1)
            # receiver consumes all four and reports once over threshold
            for _ in range(4):
                receiver.note_consumed(0)
            total_refill = receiver.take_refill(0)
            if receiver.consumed_unreported(0):
                total_refill += receiver.take_piggyback(0)
            sender.on_refill(1, total_refill)

        sim.process(cycle())
        sim.run()
        assert sender.available(1) == 4

    def test_validation(self, sim):
        with pytest.raises(CreditError):
            CreditState(sim, c0=-1, peers=[])
        with pytest.raises(CreditError):
            CreditState(sim, c0=1, peers=[], low_water_fraction=1.5)


class TestSetWindow:
    """Runtime window retargeting (the dynamic buffer policies' lever)."""

    def test_grow_mints_credits_to_every_peer(self, sim):
        cs = CreditState(sim, c0=2, peers=[1, 2])
        achieved = cs.set_window(5)
        assert achieved == 5 and cs.c0 == 5
        assert cs.available(1) == 5 and cs.available(2) == 5

    def test_shrink_reclaims_available_credits(self, sim):
        cs = CreditState(sim, c0=5, peers=[1, 2])
        achieved = cs.set_window(2)
        assert achieved == 2 and cs.c0 == 2
        assert cs.available(1) == 2 and cs.available(2) == 2

    def test_shrink_limited_by_in_flight_credits(self, sim):
        """Credits already committed to packets cannot be reclaimed; the
        achieved window stops at what was actually available."""
        cs = CreditState(sim, c0=4, peers=[1])

        def spend():
            for _ in range(3):
                yield from acquire(cs, 1)

        sim.process(spend())
        sim.run()
        assert cs.available(1) == 1
        achieved = cs.set_window(0)
        assert achieved == 3          # only 1 of the 4 was reclaimable
        assert cs.available(1) == 0

    def test_shrink_uniform_across_peers(self, sim):
        cs = CreditState(sim, c0=4, peers=[1, 2])

        def spend():
            yield from acquire(cs, 1)
            yield from acquire(cs, 1)

        sim.process(spend())
        sim.run()
        # peer 1 has 2 available, peer 2 has 4; reclaim is bounded by the
        # minimum so C0 stays a scalar.
        achieved = cs.set_window(1)
        assert achieved == 2
        assert cs.available(1) == 0 and cs.available(2) == 2

    def test_thresholds_follow_the_window(self, sim):
        cs = CreditState(sim, c0=8, peers=[1])
        old_threshold = cs.refill_threshold
        cs.set_window(2)
        assert cs.refill_threshold <= old_threshold
        assert cs.refill_threshold >= 1
        cs.set_window(16)
        assert cs.refill_threshold >= 1

    def test_negative_window_rejected(self, sim):
        cs = CreditState(sim, c0=2, peers=[1])
        with pytest.raises(CreditError):
            cs.set_window(-1)

    def test_noop_returns_current(self, sim):
        cs = CreditState(sim, c0=3, peers=[1])
        assert cs.set_window(3) == 3

    def test_refill_after_shrink_never_overflows(self, sim):
        """Conservation survives a shrink: the credits still out there sum
        to exactly the new C0, so their return cannot trip the strict
        overflow guard."""
        cs = CreditState(sim, c0=4, peers=[1])

        def spend():
            for _ in range(3):
                yield from acquire(cs, 1)

        sim.process(spend())
        sim.run()
        cs.set_window(0)              # achieves 3: the spent credits
        assert cs.c0 == 3 and cs.available(1) == 0
        cs.on_refill(1, 3)            # all of them come home
        assert cs.available(1) == 3

    def test_grow_releases_blocked_sender(self, sim):
        cs = CreditState(sim, c0=1, peers=[1])
        log = []

        def tx():
            yield from acquire(cs, 1)
            log.append("first")
            yield from acquire(cs, 1)
            log.append(("second", sim.now))

        sim.process(tx())

        def grow():
            yield sim.timeout(1.0)
            cs.set_window(2)

        sim.process(grow())
        sim.run()
        assert log == ["first", ("second", 1.0)]


class TestPeerView:
    def test_peers_sorted_list_copy(self, sim):
        cs = CreditState(sim, c0=4, peers=[3, 1, 2])
        peers = cs.peers
        assert peers == [1, 2, 3]
        peers.append(9)          # a caller's copy, not the state
        assert cs.peers == [1, 2, 3]

    def test_reclaimable_is_min_availability(self, sim):
        cs = CreditState(sim, c0=4, peers=[1, 2])
        assert cs.reclaimable() == 4
        assert cs.try_acquire_send(2)
        assert cs.reclaimable() == 3
        assert CreditState(sim, c0=4, peers=[]).reclaimable() is None
