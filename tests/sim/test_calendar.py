"""Edge cases of the event calendar and its run loop.

The kernel-oracle property suite covers random workloads; these tests
pin specific shapes: same-instant batches extended while they drain,
watched runs returning from the middle of a batch, mixing ``step()``
with the run loop, very wide single-instant batches, and the
``_post`` guard.
"""

import pytest

from repro.errors import SimulationError
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator()


class TestSameInstantBatch:
    def test_events_scheduled_during_drain_join_the_batch(self, sim):
        """A callback scheduling a 0-delay timeout extends the current batch."""
        order = []

        def fanout(ev):
            order.append("root")
            for j in range(3):
                sim.timeout(0.0, value=j).add_callback(
                    lambda e: order.append(e.value))

        sim.timeout(1.0).add_callback(fanout)
        sim.run()
        assert order == ["root", 0, 1, 2]
        assert sim.now == 1.0

    def test_mid_drain_push_to_future_instant_preserved(self, sim):
        """From inside a batch at t, pushes for t' > t fire later, in order."""
        order = []

        def at_one(ev):
            order.append(("t1", ev.value))
            sim.timeout(1.0, value=ev.value).add_callback(
                lambda e: order.append(("t2", e.value)))

        for i in range(4):
            sim.timeout(1.0, value=i).add_callback(at_one)
        sim.run()
        assert order == [("t1", 0), ("t1", 1), ("t1", 2), ("t1", 3),
                         ("t2", 0), ("t2", 1), ("t2", 2), ("t2", 3)]

    def test_deep_zero_delay_recursion_stays_at_one_instant(self, sim):
        hits = []

        def again(ev):
            if len(hits) < 200:
                hits.append(sim.now)
                sim.timeout(0.0).add_callback(again)

        sim.timeout(2.0).add_callback(again)
        sim.run()
        assert len(hits) == 200
        assert set(hits) == {2.0}

    def test_giant_batch_beyond_compaction_bound_is_fifo(self, sim):
        """A batch of 64 Ki+ entries grown while it drains stays FIFO."""
        n = 65536 + 50
        got = []
        state = {"made": 0}

        def more(ev):
            got.append(ev.value)
            # keep appending while draining, crossing the compaction point
            if state["made"] < n:
                state["made"] += 1
                sim.timeout(0.0, value=state["made"]).add_callback(more)

        state["made"] = 1
        sim.timeout(1.0, value=1).add_callback(more)
        sim.run()
        assert got == list(range(1, n + 1))
        assert sim.processed_events == n
        assert sim.now == 1.0
        assert sim.peek() == float("inf")


class TestWatchMidBatch:
    def test_watched_event_returns_mid_batch_then_resumes(self, sim):
        """run_until_processed can stop inside a batch; run() finishes it."""
        order = []
        before = sim.timeout(1.0, value="before")
        watched = sim.timeout(1.0, value="w")
        after = sim.timeout(1.0, value="after")
        before.add_callback(lambda e: order.append(e.value))
        # watched sits between before and after at the same instant
        assert sim.run_until_processed(watched) == "w"
        assert order == ["before"]
        assert not after.processed
        after.add_callback(lambda e: order.append(e.value))
        sim.run()
        assert order == ["before", "after"]
        assert sim.processed_events == 3

    def test_step_after_watch_return_continues_batch(self, sim):
        watched = sim.timeout(1.0)
        tail = sim.timeout(1.0, value="t")
        sim.run_until_processed(watched)
        assert not tail.processed
        sim.step()
        assert tail.processed


class TestStepRunMixing:
    def test_peek_mid_batch_reports_current_instant(self, sim):
        sim.timeout(1.0)
        sim.timeout(1.0)
        sim.timeout(2.0)
        sim.step()
        assert sim.now == 1.0
        assert sim.peek() == 1.0  # second same-instant event still pending
        sim.step()
        assert sim.peek() == 2.0

    def test_step_drains_bucket_before_future_slot(self, sim):
        order = []

        def fanout(ev):
            order.append("root")
            sim.timeout(0.0, value="same").add_callback(
                lambda e: order.append(e.value))

        sim.timeout(1.0).add_callback(fanout)
        sim.timeout(5.0, value="far").add_callback(
            lambda e: order.append(e.value))
        while sim.peek() != float("inf"):
            sim.step()
        assert order == ["root", "same", "far"]


class TestPostGuard:
    def test_negative_post_delay_rejected(self, sim):
        ev = sim.event()
        ev._ok = True
        ev._value = None
        with pytest.raises(SimulationError, match="negative"):
            sim._post(ev, delay=-0.5)

    def test_post_zero_delay_fires_at_now(self, sim):
        sim.timeout(3.0)
        sim.run()
        got = []
        ev = sim.event()
        ev.add_callback(lambda e: got.append(sim.now))
        ev.succeed()  # routes through _post at the current instant
        sim.run()
        assert got == [3.0]
