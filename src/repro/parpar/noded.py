"""The node daemon.

One noded runs on every worker node.  It fields masterd messages from the
control network and performs the node-local halves of the protocols:

- **job loading** (paper Figure 2): call ``COMM_init_job`` *before*
  forking (so early packets can already be received), fork the
  application process with the FM_* environment, notify the masterd, and
  deliver the global-sync "pipe byte" when the masterd says everyone is
  up; the process's modified ``FM_initialize`` completes only then.
- **context switching**: on a slot-switch notification, SIGSTOP the
  outgoing process, run glueFM's three stages (halt / buffer switch /
  release), SIGCONT the incoming process, and report per-stage timings —
  these records are the raw data of Figures 7, 8 and 9.
- **job teardown**: ``COMM_end_job`` when the masterd retires a job.

In ``resident`` mode (the original-FM baseline) contexts stay installed
on the NIC permanently — the static partitioning makes them all fit — and
a slot switch is just SIGSTOP/SIGCONT with no network flush or copying.

With recovery enabled the noded also renews its lease (heartbeats), and
implements the node-local halves of the failure protocols: *fail-stop*
(processes die, installed contexts are paged out, the NIC powers off,
and the daemon goes silent mid-anything), *eviction of a peer* (drop it
from the flush set, possibly unwedging an in-progress round), *job
kill* (teardown ordered by the masterd's failure policy), and
*reintegration* (restore-verify stored contexts, reset the flush
protocol to the new participant set, resynchronise the active slot).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.errors import InterruptError, SchedulingError
from repro.fm.api import FMLibrary
from repro.fm.context import FMContext
from repro.fm.harness import Endpoint
from repro.fm.policies.base import BufferPolicy
from repro.gluefm.api import GlueFM
from repro.gluefm.env import parse_environment
from repro.hardware.ethernet import ControlNetwork
from repro.hardware.node import HostNode
from repro.metrics.counters import SwitchRecord, SwitchRecorder
from repro.parpar.job import Workload
from repro.parpar.recovery import RecoveryConfig
from repro.sim.core import Event, Simulator
from repro.sim.process import Process
from repro.units import US


@dataclass
class _LocalJob:
    """The noded's record of one process it hosts."""

    job_id: int
    slot: int
    rank: int
    context: FMContext
    workload: Workload
    sync_event: Event
    process: Optional[Process] = None
    endpoint: Optional[Endpoint] = None
    result: Any = None
    finished: bool = field(default=False)


class NodeDaemon:
    """noded for one worker node."""

    FORK_TIME = 400 * US       # fork + exec + environment setup
    FM_INIT_TIME = 80 * US     # open the LANai, map the queues
    SIGNAL_TIME = 5 * US       # SIGSTOP/SIGCONT delivery

    def __init__(self, sim: Simulator, node: HostNode, glue: GlueFM,
                 control_net: ControlNetwork, master_endpoint: int,
                 policy: BufferPolicy, recorder: SwitchRecorder,
                 resident_mode: bool = False, fault_injector=None,
                 spans=None, recovery: Optional[RecoveryConfig] = None):
        self.sim = sim
        #: Chaos-campaign hook: consulted once per switch for daemon
        #: stall/crash disruptions (see repro.faults.injector).
        self.fault_injector = fault_injector
        #: The run's SpanEmitter on traced runs (None otherwise): `_switch`
        #: traces the three-stage protocol through it.
        self.spans = spans
        self.node = node
        self.glue = glue
        self.control_net = control_net
        self.master_endpoint = master_endpoint
        self.policy = policy
        self.recorder = recorder
        self.resident_mode = resident_mode
        self.recovery = recovery
        self.current_slot = 0
        #: True between fail_stop() and rejoin(): the daemon is dead —
        #: inbound control traffic is dropped, nothing is ever sent.
        self.failed = False
        #: True between rejoin() and ``rejoin-ack``: the restarted daemon
        #: is no flush participant yet, so it must not open a flush round
        #: for a slot switch multicast before the masterd evicted it.
        self._rejoining = False
        self.dropped_messages = 0
        self._slot_jobs: dict[int, int] = {}   # slot -> job_id on this node
        self._jobs: dict[int, _LocalJob] = {}  # job_id -> local record
        #: In-flight daemon operations (loads, switches, teardowns);
        #: interrupted wholesale at fail-stop — a dead daemon finishes
        #: nothing.  Application processes are suspended, not tracked
        #: here.
        self._daemon_procs: list[Process] = []
        self._switching = False
        self._switch_idle_waiters: list[Event] = []
        #: Highest switch sequence started and finished here.  The
        #: masterd's sequences only grow and it opens switch n+1 only
        #: after switch n's barrier closed, so two integers dedupe its
        #: barrier retries.
        self._switch_started = -1
        self._switch_done = -1
        #: Tombstones for jobs the masterd killed; checked by a load
        #: still in flight when the kill arrived.
        self._killed_jobs: set[int] = set()
        control_net.register(node.node_id, self._on_message)
        if recovery is not None:
            sim.process(self._heartbeat_loop(),
                        name=f"noded{node.node_id}-heartbeat")

    # ------------------------------------------------------------------ dispatch
    def _on_message(self, src: int, message) -> None:
        if self.failed:
            self.dropped_messages += 1
            return
        kind = message[0]
        if kind == "load-job":
            _, job_id, slot, rank, rank_to_node, workload = message
            self._spawn(self._load_job(job_id, slot, rank, rank_to_node, workload),
                        name=f"noded{self.node.node_id}-load-j{job_id}")
        elif kind == "job-sync":
            self._jobs[message[1]].sync_event.succeed()
        elif kind == "switch-slot":
            if self._rejoining:
                return
            _, sequence, old_slot, new_slot = message
            self._spawn(self._switch(sequence, old_slot, new_slot),
                        name=f"noded{self.node.node_id}-switch{sequence}")
        elif kind == "end-job":
            self._spawn(self._end_job(message[1]),
                        name=f"noded{self.node.node_id}-end-j{message[1]}")
        elif kind == "kill-job":
            self._spawn(self._kill_job(message[1]),
                        name=f"noded{self.node.node_id}-kill-j{message[1]}")
        elif kind == "evict-node":
            # A peer died: drop it from the flush set.  This may complete
            # a round this node is currently blocked in.
            self.glue.flush.force_remove_node(message[1])
        elif kind == "reintegrate":
            _, new_node, participants = message
            self.glue.flush.reset(list(participants))
            self._send_master(("reintegrated", self.node.node_id, 0, 0))
        elif kind == "rejoin-ack":
            self._rejoining = False
            _, active_slot, participants, dead_jobs = message
            self._spawn(self._reintegrate(active_slot, participants, dead_jobs),
                        name=f"noded{self.node.node_id}-reintegrate")
        else:
            raise SchedulingError(f"noded {self.node.node_id}: unknown message "
                                  f"{message!r}")

    def _spawn(self, gen, name: str) -> Process:
        """Run a daemon operation as a process, tracked for fail-stop."""
        if len(self._daemon_procs) > 32:
            self._daemon_procs = [p for p in self._daemon_procs if p.is_alive]
        proc = self.sim.process(self._guarded(gen), name=name)
        self._daemon_procs.append(proc)
        return proc

    @staticmethod
    def _guarded(gen):
        try:
            yield from gen
        except InterruptError:
            pass  # fail-stop: the daemon died mid-operation

    def _send_master(self, message) -> None:
        if self.failed:
            return  # a dead daemon answers nothing
        self.control_net.send(self.node.node_id, self.master_endpoint, message)

    def _record_sched(self, kind: str, job_id: int) -> None:
        """Trace a SIGSTOP/SIGCONT edge (``job-stop``/``job-go``).

        The causal layer folds these into per-(node, job) descheduled
        windows; a repeated stop (fail-stop over an already-parked slot)
        is tolerated there, so this stays an unconditional record.
        """
        spans = self.spans
        if spans is not None:
            spans.tracer.record(kind, node=self.node.node_id, job=job_id)

    # ------------------------------------------------------------------ job loading
    def _load_job(self, job_id: int, slot: int, rank: int,
                  rank_to_node: dict[int, int], workload: Workload):
        if slot in self._slot_jobs:
            raise SchedulingError(
                f"noded {self.node.node_id}: slot {slot} already hosts job "
                f"{self._slot_jobs[slot]}"
            )
        install = self.resident_mode or slot == self.current_slot
        ctx, env = yield from self.glue.COMM_init_job(
            job_id, rank, rank_to_node, self.policy, install=install)
        yield self.node.cpu.busy(self.FORK_TIME)
        if job_id in self._killed_jobs:
            # The masterd killed this job while the fork was in flight
            # (a co-hosting node died).  Unwind quietly; the masterd
            # already counts this node out of the job.
            yield from self.glue.COMM_end_job(job_id)
            return
        local = _LocalJob(job_id=job_id, slot=slot, rank=rank, context=ctx,
                          workload=workload, sync_event=Event(self.sim))
        proc = self.sim.process(self._app_main(local, env),
                                name=f"app-j{job_id}-r{rank}")
        if not self.resident_mode and slot != self.current_slot:
            proc.suspend()  # the job's gang slot is not running
            self._record_sched("job-stop", job_id)
        proc.add_callback(lambda ev: self._on_app_done(local, ev))
        local.process = proc
        self._jobs[job_id] = local
        self._slot_jobs[slot] = job_id
        self._send_master(("loaded", job_id, self.node.node_id))

    def _app_main(self, local: _LocalJob, env: dict[str, str]):
        """The forked user process: FM_initialize, then the workload."""
        penv = parse_environment(env)  # what crosses the fork boundary
        yield self.node.cpu.busy(self.FM_INIT_TIME)
        # Block on the pipe until the noded forwards the masterd's
        # all-up signal; only then is sending safe.
        yield local.sync_event
        lib = FMLibrary(self.node, self.glue.firmware, local.context,
                        tracer=self.glue.tracer)
        local.endpoint = Endpoint(local.context, lib)
        result = yield from local.workload(local.endpoint)
        return result

    def _on_app_done(self, local: _LocalJob, event: Event) -> None:
        if event.ok is False:
            raise event.value  # surface workload crashes loudly
        local.finished = True
        local.result = event.value
        self._send_master(("job-finished", local.job_id, self.node.node_id,
                           local.rank, local.result))

    # ------------------------------------------------------------------ switching
    def _switch(self, sequence: int, old_slot: int, new_slot: int):
        if sequence <= self._switch_started:
            # A masterd barrier retry.  If the original already finished,
            # its ack raced the retry — just re-ack; otherwise the switch
            # is still in progress and will ack when done.
            if sequence <= self._switch_done:
                self._send_master(("switch-done", sequence, self.node.node_id))
            return
        self._switch_started = sequence
        self._switching = True
        try:
            yield from self._run_switch(sequence, old_slot, new_slot)
            self._switch_done = max(self._switch_done, sequence)
            self._send_master(("switch-done", sequence, self.node.node_id))
        finally:
            self._switching = False
            if self._switch_idle_waiters:
                waiters, self._switch_idle_waiters = self._switch_idle_waiters, []
                for waiter in waiters:
                    waiter.succeed()

    def _switch_idle(self):
        """Wait until no switch is in flight on this node (generator)."""
        while self._switching:
            gate = Event(self.sim)
            self._switch_idle_waiters.append(gate)
            yield gate

    def _run_switch(self, sequence: int, old_slot: int, new_slot: int):
        injector = self.fault_injector
        if injector is not None:
            # Daemon disruption: the switch message sat in a stalled (or
            # crashed-and-restarted) noded before the protocol started.
            # The gang quantum shrinks but the three-stage protocol below
            # runs unchanged — its safety must not depend on the daemon
            # being prompt.
            kind, delay = injector.daemon_disruption(self.node.node_id)
            if kind is not None:
                if delay > 0:
                    yield self.sim.timeout(delay)
                if kind == "crash":
                    yield self.node.cpu.busy(
                        injector.spec.daemon_restart_time)
        out_job = self._slot_jobs.get(old_slot)
        in_job = self._slot_jobs.get(new_slot)
        started = self.sim.now
        spans = self.spans
        switch_span = None
        if spans is not None:
            switch_span = spans.begin(
                "gang-switch", category="switch", node=self.node.node_id,
                sequence=sequence, out_job=out_job, in_job=in_job)

        out_local = self._jobs.get(out_job) if out_job is not None else None
        in_local = self._jobs.get(in_job) if in_job is not None else None

        if out_local is not None and out_local.process is not None:
            yield self.node.cpu.busy(self.SIGNAL_TIME)
            out_local.process.suspend()  # SIGSTOP
            self._record_sched("job-stop", out_job)

        if self.resident_mode:
            halt_s = switch_s = release_s = 0.0
            out_send = out_recv = 0
        else:
            if spans is not None:
                stage = spans.begin("halt", category="switch",
                                    parent=switch_span,
                                    node=self.node.node_id)
            halt_s = yield from self.glue.COMM_halt_network()
            if spans is not None:
                spans.end(stage)
                stage = spans.begin("swap", category="switch",
                                    parent=switch_span,
                                    node=self.node.node_id)
            report = yield from self.glue.COMM_context_switch(
                out_job, in_job, sequence=sequence)
            switch_s = report.duration
            out_send, out_recv = report.out_send_valid, report.out_recv_valid
            if spans is not None:
                spans.end(stage, out_send_valid=out_send,
                          out_recv_valid=out_recv)
                stage = spans.begin("release", category="switch",
                                    parent=switch_span,
                                    node=self.node.node_id)
            release_s = yield from self.glue.COMM_release_network()
            if spans is not None:
                spans.end(stage)

        if in_local is not None and in_local.process is not None:
            yield self.node.cpu.busy(self.SIGNAL_TIME)
            in_local.process.resume()  # SIGCONT
            self._record_sched("job-go", in_job)

        if switch_span is not None:
            spans.end(switch_span)
        self.current_slot = new_slot
        self.recorder.add(SwitchRecord(
            node_id=self.node.node_id, sequence=sequence,
            old_slot=old_slot, new_slot=new_slot,
            halt_seconds=halt_s, switch_seconds=switch_s,
            release_seconds=release_s,
            out_job=out_job, in_job=in_job,
            out_send_valid=out_send, out_recv_valid=out_recv,
            algorithm=("resident" if self.resident_mode
                       else self.glue.switch_algorithm.name),
            started_at=started,
        ))

    # ------------------------------------------------------------------ teardown
    def _end_job(self, job_id: int):
        # The record is kept (jobs ids are never reused) so experiments can
        # inspect endpoints post-mortem; only the slot mapping is cleared.
        local = self._jobs.get(job_id)
        if local is None or self._slot_jobs.get(local.slot) != job_id:
            raise SchedulingError(f"noded {self.node.node_id}: end-job for "
                                  f"unknown job {job_id}")
        del self._slot_jobs[local.slot]
        yield from self.glue.COMM_end_job(job_id)
        self._send_master(("ended", job_id, self.node.node_id))

    def _kill_job(self, job_id: int):
        """Masterd-ordered teardown of a job that lost a rank elsewhere.

        Serialised after any in-flight switch: the context teardown must
        not race ``COMM_context_switch`` on this node.
        """
        yield from self._switch_idle()
        self._killed_jobs.add(job_id)
        local = self._jobs.get(job_id)
        if local is None:
            # The kill raced the load-job; _load_job sees the tombstone
            # and unwinds itself.  Ack now — there is nothing to tear down.
            self._send_master(("killed", job_id, self.node.node_id))
            return
        if self._slot_jobs.get(local.slot) == job_id:
            del self._slot_jobs[local.slot]
        proc = local.process
        if proc is not None and proc.is_alive:
            yield self.node.cpu.busy(self.SIGNAL_TIME)
            proc.suspend()  # SIGKILL: stopped and never continued
            self._record_sched("job-stop", job_id)
        if self.glue.has_job(job_id):
            yield from self.glue.COMM_end_job(job_id)
        self._send_master(("killed", job_id, self.node.node_id))

    # ------------------------------------------------------------------ fail-stop
    def fail_stop(self) -> None:
        """Kill the node: daemon ops die, processes stop, the NIC goes dark.

        Installed contexts are paged out to the backing store *before*
        the card powers off, so the stored images fingerprint the queues
        exactly as they were at the moment of death — reintegration
        later restore-verifies against these (the residual-integrity
        audit).  The store models state on the node's local disk, which
        survives the crash.  Idempotent.
        """
        if self.failed:
            return
        self.failed = True
        for proc in self._daemon_procs:
            if proc.is_alive:
                proc.interrupt("fail-stop")
        self._daemon_procs.clear()
        for local in self._jobs.values():
            if local.process is not None and local.process.is_alive:
                local.process.suspend()
                self._record_sched("job-stop", local.job_id)
        self._switching = False
        self._switch_idle_waiters.clear()
        self.glue.flush.abandon_round()
        self.glue.page_out_installed()
        self.glue.firmware.power_off()

    def rejoin(self) -> None:
        """Restart after a fail-stop: power the NIC and re-register.

        The masterd answers with ``rejoin-ack`` carrying the active
        slot, the new participant set, and the jobs this node hosted
        that died with it; :meth:`_reintegrate` finishes the protocol.
        Idempotent (no-op unless failed).
        """
        if not self.failed:
            return
        self.failed = False
        self._rejoining = True
        self.glue.firmware.power_on()
        self._send_master(("register", self.node.node_id))

    def _reintegrate(self, active_slot: int, participants, dead_jobs):
        """Node-local half of reintegration (a daemon process).

        Every stored context is restore-verified against the image paged
        out at death — a mismatch raises ContextSwitchError, failing the
        run loudly — then discarded: the cluster already applied the
        failure policies, so these incarnations are gone regardless.
        """
        restored = discarded = 0
        for job_id in dead_jobs:
            local = self._jobs.get(job_id)
            if local is not None and self._slot_jobs.get(local.slot) == job_id:
                del self._slot_jobs[local.slot]
            self._killed_jobs.add(job_id)
            if not self.glue.has_job(job_id):
                continue
            if self.glue.backing.has_image(job_id):
                self.glue.backing.restore(self.glue.context_of(job_id))
                restored += 1
            else:
                discarded += 1
            yield from self.glue.COMM_end_job(job_id)
        self.glue.flush.reset(list(participants))
        self.current_slot = active_slot
        self._send_master(("reintegrated", self.node.node_id,
                           restored, discarded))

    def _heartbeat_loop(self):
        """Lease renewal: one unicast per interval, silent while failed.

        Deliberately *not* a tracked daemon proc — it must survive the
        fail-stop (the ``failed`` flag gates it) so the restarted daemon
        resumes breathing without respawning anything.
        """
        interval = self.recovery.heartbeat_interval
        while True:
            yield interval
            if not self.failed:
                self.control_net.send(self.node.node_id, self.master_endpoint,
                                      ("heartbeat", self.node.node_id))

    # ------------------------------------------------------------------ inspection
    def local_job(self, job_id: int) -> _LocalJob:
        return self._jobs[job_id]

    @property
    def hosted_jobs(self) -> list[int]:
        return sorted(self._jobs)
