"""Property tests: every dynamic buffer policy conserves the physical pools.

The engine's contract (satellite #4 of the policy-engine work): at every
reallocation event, the sum of per-context allocations on a node never
exceeds the NIC SRAM / host-region pool — including *during* a preemptive
reclaim, where the engine orders shrinks before grows and re-checks the
ledger after every single queue resize (a transient over-commit raises
``ProtocolError`` from inside ``_apply_node``, so these tests double as
the no-transient-over-commit check).
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.fm.config import FMConfig
from repro.fm.context import FMContext
from repro.fm.packet import Packet, PacketType
from repro.fm.policies import (BShareDelay, DynamicThreshold,
                               OccamyPreemptive, PolicyEngine)
from repro.sim import Simulator

POLICY_FACTORIES = (DynamicThreshold, OccamyPreemptive, BShareDelay)


def build_rig(njobs, policy):
    """njobs 2-rank jobs across two nodes, all registered with an engine."""
    sim = Simulator()
    config = FMConfig(max_contexts=njobs, num_processors=16)
    engine = PolicyEngine(sim, policy, config)
    contexts = {}
    rank_to_node = {0: 0, 1: 1}
    for job in range(1, njobs + 1):
        for node in (0, 1):
            ctx = FMContext.create(sim, node, job, node, rank_to_node,
                                   config, policy)
            contexts[(job, node)] = ctx
            engine.register(ctx)
    return sim, config, engine, contexts


def fill(ctx, count):
    """Queue ``count`` resident packets (clamped to current capacity)."""
    for _ in range(min(count, ctx.recv_queue.free_slots)):
        ctx.recv_queue.append(Packet(PacketType.DATA, 1 - ctx.node_id,
                                     ctx.node_id, payload_bytes=64,
                                     job_id=ctx.job_id))


@settings(max_examples=60, deadline=None)
@given(
    njobs=st.integers(min_value=2, max_value=4),
    policy_idx=st.integers(min_value=0, max_value=2),
    occupancies=st.lists(st.integers(min_value=0, max_value=40),
                         min_size=2, max_size=8),
    schedule=st.lists(st.integers(min_value=1, max_value=4),
                      min_size=1, max_size=6),
)
def test_pools_conserved_at_every_switch(njobs, policy_idx, occupancies,
                                         schedule):
    policy = POLICY_FACTORIES[policy_idx]()
    sim, config, engine, contexts = build_rig(njobs, policy)
    for (job, node), ctx in sorted(contexts.items()):
        fill(ctx, occupancies[(job + node) % len(occupancies)])

    p = config.num_processors
    prev = None
    for seq, pick in enumerate(schedule, start=1):
        in_job = (pick % njobs) + 1
        for node in (0, 1):
            # A transient over-commit would raise ProtocolError here.
            engine.on_context_switch(node, seq, out_job=prev, in_job=in_job)
        prev = in_job

        report = engine.conservation_report()
        assert report, "both nodes must appear in the ledger"
        for cell in report.values():
            assert cell["ok"], f"pool over-committed: {cell}"
        for ctx in contexts.values():
            # Every context keeps room for what it already holds and for
            # its full credit exposure (p peers x window).
            assert ctx.geometry.recv_packets >= len(ctx.recv_queue)
            assert ctx.credits.c0 * p <= ctx.geometry.recv_packets
            assert ctx.credits.c0 >= 1


@settings(max_examples=25, deadline=None)
@given(njobs=st.integers(min_value=2, max_value=4),
       drain=st.integers(min_value=0, max_value=30))
def test_preemptive_reclaim_never_overcommits(njobs, drain):
    """Occamy's aggressive arm: stored jobs squeezed to their floor while
    packets drain between switches — allocations still sum within pools."""
    policy = OccamyPreemptive()
    sim, config, engine, contexts = build_rig(njobs, policy)
    for ctx in contexts.values():
        fill(ctx, 40)

    prev = None
    for seq in range(1, 2 * njobs + 1):
        in_job = ((seq - 1) % njobs) + 1
        for node in (0, 1):
            engine.on_context_switch(node, seq, out_job=prev, in_job=in_job)
        prev = in_job
        for ctx in contexts.values():
            for _ in range(min(drain, len(ctx.recv_queue))):
                ctx.recv_queue.try_pop()
        for cell in engine.conservation_report().values():
            assert cell["ok"]
    counters = engine.counters()
    assert counters["reallocations"] == 2 * 2 * njobs
    assert counters["recv_packets_reclaimed"] > 0


def assert_indexes_match_scans(engine):
    """The engine's per-node / per-job key indexes equal sorted scans."""
    keys = sorted(engine._contexts)
    nodes = sorted({node for _, node in keys})
    jobs = sorted({job for job, _ in keys})
    assert sorted(engine._node_keys) == nodes
    for node in nodes:
        assert engine._node_keys[node] == [k for k in keys if k[1] == node]
        assert engine._node_totals(node) == (
            sum(engine._alloc[k][0] for k in keys if k[1] == node),
            sum(engine._alloc[k][1] for k in keys if k[1] == node))
    assert engine._job_ids() == jobs
    assert sorted(engine._job_keys) == jobs
    for job in jobs:
        assert engine._job_keys[job] == [k for k in keys if k[0] == job]
        assert engine._contexts_of(job) == [engine._contexts[k]
                                            for k in keys if k[0] == job]


_churn_op = st.one_of(
    st.tuples(st.just("register"), st.integers(min_value=1, max_value=5)),
    st.tuples(st.just("forget"), st.integers(min_value=1, max_value=5),
              st.sampled_from((0, 1, None))),
    st.tuples(st.just("switch"), st.integers(min_value=1, max_value=5)),
)


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(_churn_op, min_size=1, max_size=25),
       policy_idx=st.integers(min_value=0, max_value=2))
# Re-admission after the residents absorbed the whole pool (the shrunk
# failures of hypothesis seeds 9/23 and 12): the returning job must be
# clamped into the room left, not over-commit the node.
@example(ops=[("register", 1), ("register", 2), ("register", 3),
              ("forget", 1, None), ("switch", 1), ("register", 1)],
         policy_idx=0)
@example(ops=[("register", 1), ("register", 2), ("register", 3),
              ("forget", 2, None), ("switch", 1), ("register", 2)],
         policy_idx=0)
def test_engine_indexes_survive_churn(ops, policy_idx):
    """Register, late newcomers, forget (one rank or both) and
    re-register: after every step the indexes equal brute-force sorted
    scans, the pools stay conserved, and a forced over-commit still
    raises from the per-resize conservation check."""
    policy = POLICY_FACTORIES[policy_idx]()
    sim = Simulator()
    config = FMConfig(max_contexts=3, num_processors=16)
    engine = PolicyEngine(sim, policy, config)
    rank_to_node = {0: 0, 1: 1}
    seq = 0
    for op in ops:
        kind, job = op[0], op[1]
        if kind == "register":
            live = {j for j, _ in engine._contexts}
            if job in live or len(live) >= config.max_contexts:
                continue
            for node in (0, 1):
                engine.register(FMContext.create(
                    sim, node, job, node, rank_to_node, config, policy))
        elif kind == "forget":
            for node in ((0, 1) if op[2] is None else (op[2],)):
                engine.forget(job, node)
        else:
            seq += 1
            in_job = job if (job, 0) in engine._contexts else None
            for node in (0, 1):
                engine.on_context_switch(node, seq, out_job=None,
                                         in_job=in_job)
        assert_indexes_match_scans(engine)
        assert all(cell["ok"]
                   for cell in engine.conservation_report().values())

    # Force an over-commit through a tampered plan: the resize that
    # breaks the pool must raise, whatever the churn left behind.
    node_keys = engine._node_keys.get(0)
    if not node_keys:
        return
    key = node_keys[0]
    ctx = engine._contexts[key]
    seq += 1
    engine._plans[seq] = {key: (engine.recv_pool + 1,
                                ctx.send_queue.capacity, ctx.credits.c0)}
    with pytest.raises(ProtocolError, match="over-committed"):
        engine.on_context_switch(0, seq, out_job=None, in_job=key[0])
