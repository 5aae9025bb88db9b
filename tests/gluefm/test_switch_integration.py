"""Integration: the full three-stage context switch under live traffic.

This is the paper's core claim exercised end-to-end without the ParPar
daemons: two jobs share two nodes; job A communicates, is stopped and
switched out mid-flight; job B communicates; A is switched back in and
finishes — with zero packet loss and all in-buffer packets preserved.
"""

import pytest

from repro.errors import ProtocolError
from repro.fm.api import FMLibrary
from repro.fm.policies.static import FullBuffer
from repro.gluefm.switch import FullCopy, ValidOnlyCopy
from tests.gluefm.conftest import GlueRig


def build_job(rig, job_id, install):
    """COMM_init_job on both nodes; returns [(ctx, lib), ...] per node."""
    rank_to_node = {0: 0, 1: 1}
    out = []

    def init(i):
        ctx, env = yield from rig.glue[i].COMM_init_job(
            job_id, rank=i, rank_to_node=rank_to_node,
            policy=FullBuffer(), install=install)
        lib = FMLibrary(rig.nodes[i], rig.glue[i].firmware, ctx)
        out.append((ctx, lib))

    procs = [rig.sim.process(init(i)) for i in range(2)]
    for p in procs:
        rig.sim.run_until_processed(p)
    out.sort(key=lambda pair: pair[0].node_id)
    return out


def traffic(lib, peer, count, nbytes=1000):
    """Send `count` messages and receive `count`, extracting as we go.

    (FM requires the host to keep extracting to make progress — two
    processes that both send their full quota before extracting would
    exhaust each other's credit windows and deadlock.)
    """
    received = 0
    for _ in range(count):
        yield from lib.send(peer, nbytes)
        while lib.pending_packets:
            msg = yield from lib.extract()
            if msg is not None:
                received += 1
    while received < count:
        msg = yield from lib.extract()
        if msg is not None:
            received += 1


def three_stage_switch(rig, out_job, in_job):
    """Run the noded's switch sequence concurrently on both nodes."""
    reports = {}

    def switch_on(i):
        glue = rig.glue[i]
        halt = yield from glue.COMM_halt_network()
        report = yield from glue.COMM_context_switch(out_job, in_job)
        release = yield from glue.COMM_release_network()
        reports[i] = (halt, report, release)

    procs = [rig.sim.process(switch_on(i)) for i in range(2)]
    for p in procs:
        rig.sim.run_until_processed(p, max_events=20_000_000)
    return reports


@pytest.mark.parametrize("algo_cls", [FullCopy, ValidOnlyCopy])
def test_switch_between_live_jobs_no_loss(algo_cls):
    rig = GlueRig(2, switch_algorithm=algo_cls())
    sim = rig.sim
    job_a = build_job(rig, job_id=1, install=True)
    job_b = build_job(rig, job_id=2, install=False)

    count = 400
    a_procs = [sim.process(traffic(lib, peer=1 - i, count=count), name=f"A{i}")
               for i, (_ctx, lib) in enumerate(job_a)]
    b_procs = [sim.process(traffic(lib, peer=1 - i, count=count), name=f"B{i}")
               for i, (_ctx, lib) in enumerate(job_b)]
    for p in b_procs:
        p.suspend()  # job B's slot is not active yet

    # Let A communicate for a while, then gang-switch A -> B mid-stream.
    sim.run(until=0.002)
    assert not all(p.processed for p in a_procs), "switch must interrupt A mid-run"
    for p in a_procs:
        p.suspend()  # SIGSTOP
    three_stage_switch(rig, out_job=1, in_job=2)
    for p in b_procs:
        p.resume()  # SIGCONT

    # B runs its full workload in its quantum.
    for p in b_procs:
        sim.run_until_processed(p, max_events=50_000_000)

    # Switch back B -> A; A finishes.
    three_stage_switch(rig, out_job=2, in_job=1)
    for p in a_procs:
        p.resume()
    for p in a_procs:
        sim.run_until_processed(p, max_events=50_000_000)

    for ctx, lib in job_a + job_b:
        assert lib.messages_sent == count
        assert lib.messages_received == count
    for g in rig.glue:
        assert len(g.firmware.dropped_packets) == 0


def test_packets_in_buffers_survive_switch():
    """Packets parked in A's queues at switch-out reappear at switch-in."""
    rig = GlueRig(2, switch_algorithm=ValidOnlyCopy())
    sim = rig.sim
    job_a = build_job(rig, job_id=1, install=True)
    build_job(rig, job_id=2, install=False)

    # A(0) sends 30 messages that A(1) never extracts before the switch:
    # they sit in A(1)'s receive queue.
    ctx0, lib0 = job_a[0]
    ctx1, lib1 = job_a[1]

    def sender():
        for _ in range(30):
            yield from lib0.send(1, 500)

    sp = sim.process(sender())
    sim.run_until_processed(sp, max_events=5_000_000)
    sim.run(until=sim.now + 0.002)  # drain the network
    parked = ctx1.recv_queue.valid_packets
    assert parked == 30

    reports = three_stage_switch(rig, out_job=1, in_job=2)
    assert reports[1][1].out_recv_valid == 30
    assert ctx1.recv_queue.valid_packets == 30  # preserved while stored

    three_stage_switch(rig, out_job=2, in_job=1)

    def receiver():
        msgs = yield from lib1.extract_messages(30)
        return msgs

    rp = sim.process(receiver())
    msgs = sim.run_until_processed(rp, max_events=5_000_000)
    assert len(msgs) == 30
    assert all(m.nbytes == 500 for m in msgs)


def test_switch_out_not_installed_rejected():
    rig = GlueRig(2)
    build_job(rig, job_id=1, install=True)
    build_job(rig, job_id=2, install=False)

    def bad(i):
        glue = rig.glue[i]
        yield from glue.COMM_halt_network()
        # Job 2 was never installed; switching it out is a protocol error.
        yield from glue.COMM_context_switch(2, 1)

    procs = [rig.sim.process(bad(i)) for i in range(2)]
    with pytest.raises(ProtocolError):
        for p in procs:
            rig.sim.run_until_processed(p, max_events=5_000_000)


def test_context_switch_requires_flush():
    rig = GlueRig(2)
    build_job(rig, job_id=1, install=True)

    def bad():
        yield from rig.glue[0].COMM_context_switch(1, None)

    p = rig.sim.process(bad())
    with pytest.raises(ProtocolError, match="flushed"):
        rig.sim.run_until_processed(p, max_events=1_000_000)


def test_end_job_cleans_up():
    rig = GlueRig(2)
    job = build_job(rig, job_id=1, install=True)

    def end(i):
        yield from rig.glue[i].COMM_end_job(1)

    procs = [rig.sim.process(end(i)) for i in range(2)]
    for p in procs:
        rig.sim.run_until_processed(p)
    for i, g in enumerate(rig.glue):
        assert g.firmware.installed_context(1) is None
        with pytest.raises(ProtocolError):
            g.context_of(1)
    # SRAM was freed: a new full-buffer job fits again.
    build_job(rig, job_id=3, install=True)
