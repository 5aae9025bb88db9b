"""Unit tests for the buffer-policy package and the reallocation engine."""

import itertools

import pytest

from repro.errors import ConfigError, ProtocolError
from repro.fm.config import FMConfig
from repro.fm.context import FMContext
from repro.fm.policies import (POLICIES, BShareDelay, DynamicThreshold,
                               FullBuffer, OccamyPreemptive, PolicyEngine,
                               StaticPartition, make_policy, policy_names)
from repro.faults.audit import credit_leaks
from repro.fm.packet import Packet, PacketType
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator()


class TestStaticPartitionZeroCredit:
    """Satellite regression: Br < n^2 * p must not silently yield C0 = 0."""

    def test_boundary_geometry_yields_one_credit(self):
        # Br = n^2 * p exactly: the smallest non-degenerate partition.
        cfg = FMConfig(max_contexts=2, num_processors=16,
                       recv_queue_packets=64)
        geo = StaticPartition().geometry(cfg)
        assert geo.recv_packets == 32
        assert geo.initial_credits == 1

    def test_below_boundary_raises_by_default(self):
        cfg = FMConfig(max_contexts=2, num_processors=16,
                       recv_queue_packets=63)
        with pytest.raises(ConfigError, match="zero credit window"):
            StaticPartition().geometry(cfg)

    def test_error_message_names_the_numbers(self):
        cfg = FMConfig(max_contexts=8, num_processors=16)
        with pytest.raises(ConfigError, match=r"Br=668 < n\^2\*p=1024"):
            StaticPartition().geometry(cfg)

    def test_report_mode_keeps_legacy_zero(self):
        cfg = FMConfig(max_contexts=8, num_processors=16)
        geo = StaticPartition(on_zero_credit="report").geometry(cfg)
        assert geo.initial_credits == 0

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError, match="on_zero_credit"):
            StaticPartition(on_zero_credit="explode")

    def test_paper_collapse_point_unchanged_at_seven_contexts(self):
        # 668 // 7 = 95 slots; 95 // 112 = 0 — the paper's first dead row.
        cfg = FMConfig(max_contexts=7, num_processors=16)
        with pytest.raises(ConfigError):
            StaticPartition().geometry(cfg)


class TestRegistry:
    def test_all_five_policies_registered(self):
        assert policy_names() == ["bshare", "dynamic-threshold",
                                  "full-buffer", "occamy",
                                  "static-partition"]

    def test_make_policy_by_name(self):
        assert isinstance(make_policy("occamy"), OccamyPreemptive)
        assert isinstance(make_policy("full-buffer"), FullBuffer)

    def test_make_policy_forwards_kwargs(self):
        policy = make_policy("dynamic-threshold", alpha_num=1, alpha_den=2)
        assert policy.alpha_den == 2

    def test_unknown_name_lists_available(self):
        with pytest.raises(ConfigError, match="bshare"):
            make_policy("lru")

    def test_dynamic_flags(self):
        for name, cls in POLICIES.items():
            assert cls().dynamic == (name in ("bshare", "dynamic-threshold",
                                              "occamy"))


class TestDynamicGeometry:
    def test_fair_share_start(self):
        cfg = FMConfig(max_contexts=4, num_processors=16)
        for policy in (DynamicThreshold(), OccamyPreemptive(), BShareDelay()):
            geo = policy.geometry(cfg)
            assert geo.recv_packets == 668 // 4
            assert geo.send_packets == 252 // 4
            assert geo.initial_credits == (668 // 4) // 16

    def test_too_many_contexts_rejected(self):
        # Fair share below p slots -> window 0 -> unusable start.
        cfg = FMConfig(max_contexts=64, num_processors=16)
        with pytest.raises(ConfigError, match="fair-share start window"):
            DynamicThreshold().geometry(cfg)


# ---------------------------------------------------------------- engine rig
def make_job_contexts(sim, config, policy, job_id):
    """One 2-rank job: rank r on node r, both contexts returned."""
    rank_to_node = {0: 0, 1: 1}
    return [FMContext.create(sim, node, job_id, node, rank_to_node,
                             config, policy)
            for node in (0, 1)]


_seqs = itertools.count()


def data_pkt(src=1, dst=0, job=1):
    return Packet(PacketType.DATA, src, dst, next(_seqs), payload_bytes=100,
                  job_id=job)


class TestPolicyEngine:
    def rig(self, sim, njobs=2, policy=None):
        config = FMConfig(max_contexts=njobs, num_processors=16)
        policy = policy or OccamyPreemptive()
        engine = PolicyEngine(sim, policy, config)
        contexts = {}
        for job in range(1, njobs + 1):
            for ctx in make_job_contexts(sim, config, policy, job):
                contexts[(job, ctx.node_id)] = ctx
                engine.register(ctx)
        return config, engine, contexts

    def test_register_attaches_observers(self, sim):
        _, engine, contexts = self.rig(sim)
        ctx = contexts[(1, 0)]
        assert ctx.recv_queue.wait_observer is not None
        ctx.recv_queue.append(data_pkt())
        assert ctx.recv_queue.wait_observer.enqueues == 1

    def test_duplicate_registration_rejected(self, sim):
        _, engine, contexts = self.rig(sim)
        with pytest.raises(ProtocolError, match="already registered"):
            engine.register(contexts[(1, 0)])

    def test_switch_reallocates_toward_running_job(self, sim):
        config, engine, contexts = self.rig(sim)
        for node in (0, 1):
            engine.on_context_switch(node, 7, out_job=1, in_job=2)
        running = contexts[(2, 0)]
        stored = contexts[(1, 0)]
        assert running.geometry.recv_packets > stored.geometry.recv_packets
        assert running.credits.c0 > stored.credits.c0
        assert engine.reallocations == 2  # one apply per node
        assert engine.plans_computed == 1  # plan memoised across nodes

    def test_switch_is_idempotent_per_node(self, sim):
        _, engine, _ = self.rig(sim)
        engine.on_context_switch(0, 7, out_job=1, in_job=2)
        before = engine.reallocations
        engine.on_context_switch(0, 7, out_job=1, in_job=2)
        assert engine.reallocations == before

    def test_window_backed_by_allocation(self, sim):
        config, engine, contexts = self.rig(sim, njobs=3)
        p = config.num_processors
        for seq, in_job in enumerate((2, 3, 1, 2), start=1):
            out_job = [1, 2, 3, 1][seq - 1]
            for node in (0, 1):
                engine.on_context_switch(node, seq, out_job, in_job)
            for ctx in contexts.values():
                assert ctx.credits.c0 * p <= ctx.geometry.recv_packets
                assert ctx.geometry.recv_packets >= len(ctx.recv_queue)

    def test_conservation_report_stays_ok(self, sim):
        _, engine, contexts = self.rig(sim, njobs=3)
        contexts[(1, 0)].recv_queue.append(data_pkt())
        for seq, in_job in enumerate((2, 3, 1), start=1):
            for node in (0, 1):
                engine.on_context_switch(node, seq, out_job=None,
                                         in_job=in_job)
            assert all(cell["ok"]
                       for cell in engine.conservation_report().values())

    def test_forget_detaches(self, sim):
        _, engine, contexts = self.rig(sim)
        ctx = contexts[(1, 0)]
        engine.forget(1, 0)
        assert ctx.recv_queue.wait_observer is None
        assert (1, 0) not in engine._alloc

    def test_counters_harvestable(self, sim):
        _, engine, _ = self.rig(sim)
        engine.on_context_switch(0, 1, out_job=1, in_job=2)
        counters = engine.counters()
        assert counters["plans_computed"] == 1
        assert counters["max_window"] >= counters["min_window"] >= 1


class TestFit:
    """``PolicyEngine._fit``: wants into a pool, floors first."""

    def test_wants_that_fit_are_granted(self):
        assert PolicyEngine._fit({1: 5, 2: 3}, {1: 2, 2: 2}, 10,
                                 [1, 2]) == {1: 5, 2: 3}

    def test_excess_is_scaled_and_the_remainder_goes_in_job_order(self):
        assert PolicyEngine._fit({1: 9, 2: 9}, {1: 2, 2: 2}, 9,
                                 [1, 2]) == {1: 5, 2: 4}

    def test_floors_above_the_pool_are_cut(self):
        assert PolicyEngine._fit({1: 5, 2: 5}, {1: 4, 2: 4}, 6,
                                 [1, 2]) == {1: 3, 2: 3}

    def test_floors_above_the_pool_with_nothing_to_scale_raise(self):
        with pytest.raises(ProtocolError,
                           match=r"\{1: 4, 2: 4\} \(total 8\) exceed the "
                                 r"pool of 6 slots"):
            PolicyEngine._fit({1: 4, 2: 4}, {1: 4, 2: 4}, 6, [1, 2])
        with pytest.raises(ProtocolError):   # no proposal: wants the floor
            PolicyEngine._fit({}, {1: 4, 2: 4}, 6, [1, 2])


class TestAuditLearnsPolicyWindows:
    """Satellite: the credit-conservation ledger must hold against the
    *live* window, for every policy, after the engine retargets C0."""

    @pytest.mark.parametrize("policy_name", ["bshare", "dynamic-threshold",
                                             "occamy"])
    def test_ledger_clean_after_retarget(self, sim, policy_name):
        policy = make_policy(policy_name)
        config = FMConfig(max_contexts=2, num_processors=4)
        ctxs = make_job_contexts(sim, config, policy, job_id=1)
        by_rank = {0: ctxs[0], 1: ctxs[1]}
        assert credit_leaks(by_rank) == {}
        # Retarget both directions: shrink on one side, grow on the other.
        old = ctxs[0].credits.c0
        ctxs[0].credits.set_window(max(1, old // 2))
        ctxs[1].credits.set_window(old + 5)
        assert credit_leaks(by_rank) == {}

    def test_ledger_clean_with_credits_in_flight(self, sim):
        """Shrink while some credits are spent: the identity must hold
        against the achieved (partial) reclaim, not the request."""
        policy = DynamicThreshold()
        config = FMConfig(max_contexts=2, num_processors=4)
        ctxs = make_job_contexts(sim, config, policy, job_id=1)
        by_rank = {0: ctxs[0], 1: ctxs[1]}
        sender = ctxs[0]
        spent = []

        def tx():
            for _ in range(2):
                while not sender.credits.try_acquire_send(1):
                    yield sender.credits.wait_send(1)
            spent.append(sender.credits.available(1))

        sim.process(tx())
        sim.run()
        assert spent  # two credits now held by queued-packet accounting
        # The two acquired credits are "in flight" from the ledger's view
        # only if a packet carries them; emulate by parking them in the
        # send queue so _credits_in_queue counts them.
        for _ in range(2):
            sender.send_queue.append(Packet(
                PacketType.DATA, 0, 1, next(_seqs), payload_bytes=64,
                job_id=1))
        achieved = sender.credits.set_window(1)
        assert achieved >= 1
        assert credit_leaks(by_rank) == {}


class TestEngineAdmissionControl:
    """Late registration: planning must reserve baseline room for every
    configured context that has not shown up yet, and a newcomer arriving
    after churn must be clamped into whatever room remains."""

    def partial_rig(self, sim, registered, max_contexts, policy=None,
                    tracer=None):
        config = FMConfig(max_contexts=max_contexts, num_processors=16)
        policy = policy or OccamyPreemptive()
        engine = PolicyEngine(sim, policy, config, tracer=tracer)
        contexts = {}
        for job in registered:
            for ctx in make_job_contexts(sim, config, policy, job):
                contexts[(job, ctx.node_id)] = ctx
                engine.register(ctx)
        return config, engine, contexts, policy

    def test_effective_pools_reserve_for_unregistered(self, sim):
        config, engine, _, _ = self.partial_rig(sim, (1, 2), max_contexts=3)
        base = engine._base
        recv_eff, send_eff = engine._effective_pools()
        assert recv_eff == engine.recv_pool - base.recv_packets
        assert send_eff == engine.send_pool - base.send_packets

    def test_reserve_released_once_all_contexts_seen(self, sim):
        config, engine, _, _ = self.partial_rig(sim, (1, 2, 3),
                                                max_contexts=3)
        assert engine._effective_pools() == (engine.recv_pool,
                                             engine.send_pool)
        # the reserve never comes back: jobs_seen is monotone
        engine.forget(1, 0)
        engine.forget(1, 1)
        assert engine._effective_pools() == (engine.recv_pool,
                                             engine.send_pool)

    def test_late_registration_after_realloc_fits_baseline(self, sim):
        """The crash mode this guards: two residents absorb the pool at a
        gang switch, then the third configured job registers with the
        baseline geometry — the reserve must have kept its room."""
        config, engine, contexts, policy = self.partial_rig(
            sim, (1, 2), max_contexts=3)
        for node in (0, 1):
            engine.on_context_switch(node, 1, out_job=1, in_job=2)
        for ctx in make_job_contexts(sim, config, policy, 3):
            engine.register(ctx)     # must not raise over-commit
        assert all(cell["ok"]
                   for cell in engine.conservation_report().values())

    def test_churn_newcomer_clamped_into_remaining_room(self, sim):
        """After every configured job has been seen the reserve is gone;
        a replacement job admitted under churn is shrunk, not the cause
        of an over-commit."""
        config, engine, contexts, policy = self.partial_rig(
            sim, (1, 2), max_contexts=2)
        for node in (0, 1):
            engine.on_context_switch(node, 1, out_job=1, in_job=2)
        grown = contexts[(2, 0)].geometry.recv_packets
        engine.forget(1, 0)
        engine.forget(1, 1)
        p = config.num_processors
        newcomers = make_job_contexts(sim, config, policy, 3)
        baseline = newcomers[0].geometry.recv_packets
        for ctx in newcomers:
            engine.register(ctx)     # must not raise
        for ctx in newcomers:
            room = engine.recv_pool - grown
            assert ctx.geometry.recv_packets <= room
            assert ctx.geometry.recv_packets < baseline    # actually clamped
            assert ctx.credits.c0 >= 1
            assert ctx.credits.c0 * p <= ctx.geometry.recv_packets
        assert all(cell["ok"]
                   for cell in engine.conservation_report().values())


    def test_readmission_into_an_exhausted_pool_waits_for_the_switch(
            self, sim):
        """Every configured job seen, one leaves, the residents absorb the
        whole pool, the job comes back: it is admitted with what is left
        (nothing: a zero window) and the next flushed switch floors it at
        p slots and a window of one — the node is never over-committed."""
        config, engine, contexts, policy = self.partial_rig(
            sim, (1, 2, 3), max_contexts=3, policy=DynamicThreshold())
        engine.forget(1, 0)
        engine.forget(1, 1)
        for node in (0, 1):
            engine.on_context_switch(node, 1, out_job=None, in_job=2)
        assert engine._node_totals(0)[0] == engine.recv_pool
        returning = make_job_contexts(sim, config, policy, 1)
        for ctx in returning:
            engine.register(ctx)     # must not raise
        assert all(ctx.credits.c0 == 0 for ctx in returning)
        assert all(cell["ok"]
                   for cell in engine.conservation_report().values())
        for node in (0, 1):
            engine.on_context_switch(node, 2, out_job=2, in_job=1)
        p = config.num_processors
        for ctx in returning:
            assert ctx.credits.c0 >= 1
            assert ctx.recv_queue.capacity >= ctx.credits.c0 * p
        assert all(cell["ok"]
                   for cell in engine.conservation_report().values())


class TestEngineTraceRecords:
    """The tracer hook: plan / window-set / apply records feed the causal
    layer's reallocation spans and window timelines."""

    def traced_rig(self, sim):
        from repro.sim.trace import Tracer
        tracer = Tracer(clock=lambda: sim.now)
        config = FMConfig(max_contexts=2, num_processors=16)
        policy = OccamyPreemptive()
        engine = PolicyEngine(sim, policy, config, tracer=tracer)
        contexts = {}
        for job in (1, 2):
            for ctx in make_job_contexts(sim, config, policy, job):
                contexts[(job, ctx.node_id)] = ctx
                engine.register(ctx)
        return engine, tracer, contexts

    def test_plan_apply_and_window_records(self, sim):
        engine, tracer, _ = self.traced_rig(sim)
        for node in (0, 1):
            engine.on_context_switch(node, 7, out_job=1, in_job=2)
        kinds = [r.kind for r in tracer.records]
        assert kinds.count("realloc-plan") == 1    # plan memoised
        assert kinds.count("realloc-apply") == 2   # one apply per node
        plans = [r for r in tracer.records if r.kind == "realloc-plan"]
        assert plans[0].fields["sequence"] == 7
        assert plans[0].fields["jobs"] == 2
        applies = [r for r in tracer.records if r.kind == "realloc-apply"]
        assert sorted(a.fields["node"] for a in applies) == [0, 1]
        window_sets = [r for r in tracer.records if r.kind == "window-set"]
        assert window_sets, "a preemptive switch must retarget windows"
        for rec in window_sets:
            f = rec.fields
            assert (f["recv"], f["send"], f["window"]) != \
                (f["old_recv"], f["old_send"], f["old_window"])

    def test_no_records_when_tracing_off(self, sim):
        config = FMConfig(max_contexts=2, num_processors=16)
        policy = OccamyPreemptive()
        engine = PolicyEngine(sim, policy, config)   # no tracer
        for job in (1, 2):
            for ctx in make_job_contexts(sim, config, policy, job):
                engine.register(ctx)
        for node in (0, 1):
            engine.on_context_switch(node, 7, out_job=1, in_job=2)
        assert engine.tracer is None
