"""Property-based tests of the flush protocol's state machine.

Figure 3's guarantee: whatever order local halts and arriving halts
interleave in, every node reaches the fully-halted state (H, p) exactly
once per round, and the release barrier never releases anyone early.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.gluefm.conftest import GlueRig


@settings(max_examples=15, deadline=None)
@given(
    nodes=st.integers(min_value=2, max_value=6),
    delays=st.lists(st.floats(min_value=0.0, max_value=0.003),
                    min_size=6, max_size=6),
    rounds=st.integers(min_value=1, max_value=3),
)
def test_flush_always_completes_under_arbitrary_skew(nodes, delays, rounds):
    rig = GlueRig(nodes)
    sim = rig.sim

    for round_index in range(rounds):
        flush_done = {}
        release_done = {}

        def switcher(i, delay):
            yield sim.timeout(delay)
            yield from rig.glue[i].COMM_halt_network()
            flush_done[i] = sim.now
            yield from rig.glue[i].COMM_release_network()
            release_done[i] = sim.now

        procs = [sim.process(switcher(i, delays[i % len(delays)]))
                 for i in range(nodes)]
        for p in procs:
            sim.run_until_processed(p, max_events=10_000_000)

        # Everyone flushed, reaching (H, p) -- and nobody's release
        # completed before every node had flushed (the barrier property).
        assert set(flush_done) == set(range(nodes))
        for g in rig.glue:
            assert g.flush.state == ("H", nodes) or not g.node.nic.halted
        last_flush = max(flush_done.values())
        assert all(t >= last_flush for t in release_done.values())
        # All gates re-opened for the next round.
        assert all(not g.node.nic.halted for g in rig.glue)


def test_ah_before_lh_edge_banks_and_caps_across_rounds():
    """Deterministic replay of Figure 3's awkward interleaving: a fast
    neighbour's HALT ("ah") lands before our local halt ("lh"), and a
    next-round HALT lands while this round is still releasing.  The
    banked-halt arithmetic in ``FlushProtocol.state`` must keep
    0 <= banked <= peers in S and 1 <= k <= p in H through every arrival,
    over at least three rounds — the cumulative counters must never leak
    the surplus into the wrong round nor go negative."""
    from repro.fm.packet import Packet, PacketType

    rounds = 3
    rig = GlueRig(3)
    me = rig.glue[2]
    flush = me.flush
    peers = flush.peers  # 2
    p = peers + 1
    edges = {"banked": False, "capped": False}

    def check():
        phase, k = flush.state
        if phase == "H":
            assert 1 <= k <= p, f"H-state k={k} out of Figure 3's range"
            in_round = (flush._halts_received
                        - peers * (flush._halt_round - 1))
            if in_round > peers:
                edges["capped"] = True  # surplus banked, not reported
        else:
            assert 0 <= k <= peers, f"S-state bank={k} out of range"
            if k > 0:
                edges["banked"] = True  # ah before lh

    def halt_from(src):
        flush._on_halt(Packet(PacketType.HALT, src_node=src, dst_node=2))
        check()

    def ready_from(src):
        flush._on_ready(Packet(PacketType.READY, src_node=src, dst_node=2))
        check()

    for r in range(1, rounds + 1):
        # "ah" first: one peer halts this round before we do.  (From
        # round 2 on, the *other* peer's halt is already banked from the
        # capped arrival below, so the bank peaks at exactly `peers`.)
        halt_from(1 if r > 1 else 0)
        if r == 1:
            halt_from(1)
        me.node.nic.set_halt_bit()
        flush_ev = flush.begin_flush()
        check()
        assert flush_ev.triggered  # all halts were already in
        assert flush.state == ("H", p)

        release_ev = flush.begin_release()
        check()
        ready_from(0)
        assert not release_ev.triggered
        # The capped edge: peer 0 races ahead into round r+1 while our
        # release is still pending — its HALT must be banked.
        halt_from(0)
        assert flush.state == ("H", p), "surplus must not exceed (H, p)"
        ready_from(1)
        assert release_ev.triggered
        # Released: the early round-r+1 halt sits in the bank.
        assert flush.state == ("S", 1)
        me.node.nic.clear_halt_bit()

    assert edges["banked"] and edges["capped"], \
        "the scripted schedule must exercise both Figure 3 edges"


@settings(max_examples=20, deadline=None)
@given(
    nodes=st.integers(min_value=2, max_value=5),
    traffic_pairs=st.lists(
        st.tuples(st.integers(min_value=0, max_value=4),
                  st.integers(min_value=0, max_value=4)),
        max_size=6),
)
def test_flush_quiesces_live_traffic(nodes, traffic_pairs):
    """After a flush completes, no data packet is in flight anywhere:
    every packet sent before the halt has been delivered."""
    from repro.fm.api import FMLibrary
    from repro.fm.policies.static import FullBuffer

    rig = GlueRig(nodes)
    sim = rig.sim
    rank_to_node = {r: r for r in range(nodes)}
    libs = {}

    def init(i):
        ctx, _ = yield from rig.glue[i].COMM_init_job(
            1, i, rank_to_node, FullBuffer())
        libs[i] = FMLibrary(rig.nodes[i], rig.glue[i].firmware, ctx)

    procs = [sim.process(init(i)) for i in range(nodes)]
    for p in procs:
        sim.run_until_processed(p)

    sent = 0
    send_procs = []
    for src, dst in traffic_pairs:
        src %= nodes
        dst %= nodes
        if src == dst:
            continue
        sent += 1

        def one_send(src=src, dst=dst):
            yield from libs[src].send(dst, 900)

        send_procs.append(sim.process(one_send()))

    def halts(i):
        yield from rig.glue[i].COMM_halt_network()

    hprocs = [sim.process(halts(i)) for i in range(nodes)]
    for p in hprocs:
        sim.run_until_processed(p, max_events=10_000_000)
    # A send that was still host-side when the halt hit finishes into the
    # (now gated) send queue; flush only quiesces what was in flight.
    for p in send_procs:
        sim.run_until_processed(p, max_events=10_000_000)

    # Flushed: every sent packet has landed in some receive queue.
    landed = sum(libs[i].context.recv_queue.valid_packets
                 for i in range(nodes))
    in_send_queues = sum(libs[i].context.send_queue.valid_packets
                         for i in range(nodes))
    assert landed + in_send_queues == sent
    for g in rig.glue:
        assert len(g.firmware.dropped_packets) == 0


#: (operation, node) at node 0 of a 4-node rig, weighted toward arrivals
#: so that banked and straggling control packets are common.  Node 4
#: never participates, so its control packets are always stale;
#: "halts"/"readys" deliver one packet from each participant at once.
_FLUSH_OPS = (("halt",) * 5 + ("ready",) * 4 + ("halts", "readys")
              + ("local-halt",) * 2 + ("release",) * 2
              + ("force-remove", "reset"))
_flush_op = st.tuples(st.sampled_from(_FLUSH_OPS),
                      st.integers(min_value=1, max_value=4))


@settings(max_examples=150, deadline=None)
@given(ops=st.lists(_flush_op, max_size=40))
def test_completion_equals_brute_force_count_scan(ops):
    """The waiting-set barrier completes exactly when every surviving peer's
    cumulative count has reached the round.

    Replays arbitrary arrivals (banked next-round HALTs and READYs that
    beat our own release included), local halts, releases, stale control
    from a non-participant, mid-round evictions and recovery resets, and
    after every step compares each pending event's state with a
    brute-force scan over an independent model of the counters."""
    from repro.fm.packet import Packet, PacketType

    nodes = 4
    rig = GlueRig(nodes)
    glue = rig.glue[0]
    flush = glue.flush
    participants = set(range(nodes))
    halts: dict = {}
    readys: dict = {}
    rounds = {"halt": 0, "ready": 0}
    pending = {"flush": None, "release": None}

    def all_reached(counts, round_):
        return all(counts.get(n, 0) >= round_ for n in participants if n)

    def check():
        flush_ev, release_ev = pending["flush"], pending["release"]
        if flush_ev is not None:
            assert flush_ev.triggered == all_reached(halts, rounds["halt"])
        if release_ev is not None:
            assert release_ev.triggered == all_reached(readys,
                                                       rounds["ready"])
            if release_ev.triggered:   # the round is over
                pending["flush"] = pending["release"] = None
                glue.node.nic.clear_halt_bit()

    stale = 0

    def arrive(kind, src):
        nonlocal stale
        ptype = PacketType.HALT if kind == "halt" else PacketType.READY
        packet = Packet(ptype, src_node=src, dst_node=0)
        if src in participants:
            counts = halts if kind == "halt" else readys
            counts[src] = counts.get(src, 0) + 1
        else:
            stale += 1
        (flush._on_halt if kind == "halt" else flush._on_ready)(packet)

    for op in ops:
        kind = op[0]
        if kind in ("halt", "ready"):
            arrive(kind, op[1])
        elif kind in ("halts", "readys"):
            for src in sorted(participants - {0}):
                arrive(kind[:-1], src)
                check()
        elif kind == "local-halt":
            if pending["flush"] is not None:
                continue
            glue.node.nic.set_halt_bit()
            rounds["halt"] += 1
            pending["flush"] = flush.begin_flush()
        elif kind == "release":
            flush_ev = pending["flush"]
            if (flush_ev is None or not flush_ev.triggered
                    or pending["release"] is not None):
                continue
            rounds["ready"] += 1
            pending["release"] = flush.begin_release()
        elif kind == "force-remove":
            node = op[1]
            if node == 4:
                continue
            if node in participants:
                participants.discard(node)
                halts.pop(node, None)
                readys.pop(node, None)
            flush.force_remove_node(node)
        else:  # reset: a recovery epoch, only legal between rounds
            if pending["flush"] is not None:
                continue
            participants = set(range(nodes))
            halts.clear()
            readys.clear()
            rounds["halt"] = rounds["ready"] = 0
            flush.reset(range(nodes))
        check()
    assert flush.stale_control == stale
