"""The crown-jewel property: arbitrary gang switching never loses packets.

The paper: "This context switch mechanism was found to be robust, and
withstood thorough testing without packet loss."  Here hypothesis drives
the testing: random message sizes, random switch instants, both switch
algorithms — every message sent must be received, nothing dropped, and
the backing-store integrity checks must stay silent.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fm.api import FMLibrary
from repro.fm.policies.static import FullBuffer
from repro.gluefm.switch import FullCopy, ValidOnlyCopy
from tests.gluefm.conftest import GlueRig


@settings(max_examples=12, deadline=None)
@given(
    nbytes=st.integers(min_value=1, max_value=6000),
    count=st.integers(min_value=20, max_value=120),
    switch_times=st.lists(
        st.floats(min_value=0.0002, max_value=0.004), min_size=1, max_size=3),
    algo=st.sampled_from([FullCopy, ValidOnlyCopy]),
)
def test_random_switching_never_loses_messages(nbytes, count, switch_times, algo):
    rig = GlueRig(2, switch_algorithm=algo(), strict=True)
    sim = rig.sim
    rank_to_node = {0: 0, 1: 1}
    jobs = {}
    for job_id, install in ((1, True), (2, False)):
        pairs = []

        def init(i, job_id=job_id, install=install, pairs=pairs):
            ctx, _env = yield from rig.glue[i].COMM_init_job(
                job_id, rank=i, rank_to_node=rank_to_node,
                policy=FullBuffer(), install=install)
            pairs.append((i, FMLibrary(rig.nodes[i], rig.glue[i].firmware, ctx)))

        procs = [sim.process(init(i)) for i in range(2)]
        for p in procs:
            sim.run_until_processed(p)
        pairs.sort()
        jobs[job_id] = [lib for _i, lib in pairs]

    def traffic(lib, peer):
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
        return received

    app_procs = {}
    for job_id, libs in jobs.items():
        app_procs[job_id] = [
            sim.process(traffic(lib, 1 - i), name=f"j{job_id}r{i}")
            for i, lib in enumerate(libs)
        ]
    for p in app_procs[2]:
        p.suspend()

    def switch_all(out_job, in_job):
        for p in app_procs[out_job]:
            p.suspend()
        done = []

        def one(i):
            glue = rig.glue[i]
            yield from glue.COMM_halt_network()
            yield from glue.COMM_context_switch(out_job, in_job)
            yield from glue.COMM_release_network()
            done.append(i)

        procs = [sim.process(one(i)) for i in range(2)]
        for p in procs:
            sim.run_until_processed(p, max_events=50_000_000)
        for p in app_procs[in_job]:
            p.resume()

    running = 1
    for t in sorted(switch_times):
        if sim.now < t:
            sim.run(until=t)
        other = 2 if running == 1 else 1
        switch_all(running, other)
        running = other

    # Let the running job finish, then switch once more for the other.
    sim.run(max_events=200_000_000)
    other = 2 if running == 1 else 1
    if any(p.is_alive for p in app_procs[other]):
        switch_all(running, other)
        sim.run(max_events=200_000_000)

    for job_id, procs in app_procs.items():
        for p in procs:
            assert p.processed, f"job {job_id} wedged"
            assert p.value == count
    for g in rig.glue:
        assert len(g.firmware.dropped_packets) == 0
