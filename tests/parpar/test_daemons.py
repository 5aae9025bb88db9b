"""Edge-case tests for masterd / noded / jobrep protocol handling."""

import pytest

from repro.errors import SchedulingError
from repro.parpar.cluster import ClusterConfig, ParParCluster
from repro.parpar.job import JobSpec, JobState
from repro.parpar.masterd import MasterDaemon
from repro.workloads.bandwidth import bandwidth_benchmark


def cluster4(**overrides):
    defaults = dict(num_nodes=4, time_slots=2, quantum=0.005)
    defaults.update(overrides)
    return ParParCluster(ClusterConfig(**defaults))


def switch_in_flight(masterd):
    return masterd._wait is not None and masterd._wait.kind == "switch-done"


class TestMasterd:
    def test_unknown_message_rejected(self):
        cluster = cluster4()
        with pytest.raises(SchedulingError, match="unknown message"):
            cluster.masterd._on_message(0, ("bogus",))

    def test_stale_switch_ack_tolerated(self):
        # A late switch-done (its switch already completed, or a retry
        # raced the original) must be counted, never crash the masterd:
        # with barrier retries in play duplicates are a fact of life.
        cluster = cluster4()
        masterd = cluster.masterd
        masterd._on_message(0, ("switch-done", 99, 0))
        assert masterd.stale_switch_acks == 1
        # Still live: a real switch completes normally afterwards.
        from repro.workloads.alltoall import alltoall_stream

        w = alltoall_stream(until=float("inf"), message_bytes=1000)
        for i in range(2):
            cluster.submit(JobSpec(f"a2a{i}", 4, w))
        cluster.run_for(0.02)
        assert masterd.switches_completed > 0
        assert masterd.stale_switch_acks == 1

    def test_stale_ack_after_completed_switch_tolerated(self):
        from repro.workloads.alltoall import alltoall_stream

        cluster = cluster4()
        w = alltoall_stream(until=float("inf"), message_bytes=1000)
        for i in range(2):
            cluster.submit(JobSpec(f"a2a{i}", 4, w))
        cluster.run_for(0.02)
        masterd = cluster.masterd
        assert masterd.switches_completed > 0
        # Replay the last completed sequence's ack: no switch in flight.
        masterd._on_message(0, ("switch-done", masterd._switch_seq, 0))
        assert masterd.stale_switch_acks == 1
        before = masterd.switches_completed
        cluster.run_for(0.02)
        assert masterd.switches_completed > before

    def test_done_event_unknown_job(self):
        cluster = cluster4()
        with pytest.raises(SchedulingError):
            cluster.masterd.done_event(42)

    def test_invalid_quantum_rejected(self):
        from repro.hardware.ethernet import ControlNetwork
        from repro.sim import Simulator

        sim = Simulator()
        with pytest.raises(SchedulingError):
            MasterDaemon(sim, ControlNetwork(sim), 4, 2, quantum=0)

    def test_rotation_pause_stops_switches(self):
        cluster = cluster4()
        from repro.workloads.alltoall import alltoall_stream

        w = alltoall_stream(until=float("inf"), message_bytes=1000)
        for i in range(2):
            cluster.submit(JobSpec(f"a2a{i}", 4, w))
        cluster.run_for(0.02)
        assert cluster.masterd.switches_completed > 0
        before = cluster.masterd.switches_completed
        cluster.masterd.pause_rotation()
        cluster.run_for(0.05)
        # At most one already-queued switch completes after the pause.
        assert cluster.masterd.switches_completed <= before + 1
        cluster.masterd.resume_rotation()
        cluster.run_for(0.03)
        assert cluster.masterd.switches_completed > before

    def test_end_job_arriving_mid_switch_retires_after_barrier(self):
        # A job's last rank can finish while a slot switch is mid-flight.
        # The resulting "end" op must queue behind the switch op and the
        # job must still retire once the barrier completes — never race
        # the context rotation or get lost.
        from repro.workloads.alltoall import alltoall_stream

        cluster = cluster4()
        masterd = cluster.masterd
        w = alltoall_stream(until=float("inf"), message_bytes=1000)
        cluster.submit(JobSpec("bg", 4, w))
        b = cluster.submit(JobSpec("bw", 2, bandwidth_benchmark(40, 500)))

        # Buffer b's rank-finished reports so we control when the "end"
        # op is enqueued relative to the switch in flight.
        real = masterd._on_job_finished
        buffered = []
        masterd._on_job_finished = lambda *args: buffered.append(args)
        while len(buffered) < 2:
            cluster.sim.step()
        while not switch_in_flight(masterd):
            cluster.sim.step()
        masterd._on_job_finished = real
        for args in buffered:
            real(*args)
        # Mid-switch: the end op is queued, the job not yet retired.
        assert switch_in_flight(masterd)
        assert b.state is not JobState.FINISHED
        cluster.run_for(0.05)
        assert b.state is JobState.FINISHED
        assert b.finished_at is not None

    def test_pause_rotation_with_switch_already_queued(self):
        # pause_rotation() arriving after the quantum timer queued (or
        # launched) a switch: exactly that one switch completes, rotation
        # then stays parked until resume_rotation().
        from repro.workloads.alltoall import alltoall_stream

        cluster = cluster4()
        masterd = cluster.masterd
        w = alltoall_stream(until=float("inf"), message_bytes=1000)
        for i in range(2):
            cluster.submit(JobSpec(f"a2a{i}", 4, w))
        while not masterd._switch_queued and masterd._wait is None:
            cluster.sim.step()
        before = masterd.switches_completed
        masterd.pause_rotation()
        cluster.run_for(0.05)  # ten quanta of silence
        assert masterd.switches_completed == before + 1
        assert masterd._wait is None
        assert not masterd._switch_queued
        masterd.resume_rotation()
        cluster.run_for(0.03)
        assert masterd.switches_completed > before + 1

    def test_job_states_progress(self):
        cluster = cluster4()
        job = cluster.submit(JobSpec("bw", 2, bandwidth_benchmark(20, 500)))
        assert job.state is JobState.READY
        assert job.ready_at is not None and job.ready_at > job.submitted_at
        cluster.run_until_finished([job])
        assert job.state is JobState.FINISHED
        assert job.finished_at > job.ready_at

    def test_sequential_job_ids(self):
        cluster = cluster4()
        j1 = cluster.submit(JobSpec("a", 2, bandwidth_benchmark(5, 100)))
        j2 = cluster.submit(JobSpec("b", 2, bandwidth_benchmark(5, 100)))
        assert j2.job_id == j1.job_id + 1


class TestNoded:
    def test_unknown_message_rejected(self):
        cluster = cluster4()
        with pytest.raises(SchedulingError, match="unknown message"):
            cluster.nodeds[0]._on_message(999, ("bogus",))

    def test_end_unknown_job_rejected(self):
        cluster = cluster4()
        gen = cluster.nodeds[0]._end_job(123)
        with pytest.raises(SchedulingError, match="unknown job"):
            next(gen)

    def test_hosted_jobs_tracking(self):
        cluster = cluster4()
        job = cluster.submit(JobSpec("bw", 2, bandwidth_benchmark(20, 500)))
        assert cluster.nodeds[0].hosted_jobs == [job.job_id]
        assert cluster.nodeds[2].hosted_jobs == []
        cluster.run_until_finished([job])
        # Records survive teardown for inspection.
        assert cluster.nodeds[0].hosted_jobs == [job.job_id]
        assert cluster.nodeds[0].local_job(job.job_id).finished

    def test_workload_crash_propagates(self):
        cluster = cluster4()

        def crashing(ep):
            yield ep.library.sim.timeout(0.0001)
            raise RuntimeError("application bug")

        job = cluster.submit(JobSpec("bad", 2, crashing))
        with pytest.raises(RuntimeError, match="application bug"):
            cluster.run_until_finished([job])


class TestJobrep:
    def test_allocation_error_reaches_submitter(self):
        cluster = cluster4()
        from repro.errors import AllocationError

        # Fill the whole matrix.
        from repro.workloads.alltoall import alltoall_stream
        w = alltoall_stream(until=float("inf"), message_bytes=1000)
        cluster.submit(JobSpec("fill1", 4, w))
        cluster.submit(JobSpec("fill2", 4, w))
        with pytest.raises(AllocationError):
            cluster.submit(JobSpec("extra", 4, w))

    def test_unknown_reply_rejected(self):
        cluster = cluster4()
        with pytest.raises(SchedulingError):
            cluster.jobrep._on_message(999, ("bogus", None, None))
