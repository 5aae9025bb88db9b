"""The master daemon.

The masterd runs on the cluster host (which "is not used by the user
applications"): it owns the gang matrix, allocates nodes for submitted
jobs (DHC placement), coordinates the Figure-2 loading protocol, rotates
time slots round-robin, and retires finished jobs.

All global operations — load a job, switch slots, end a job, evict or
reintegrate a node — are serialised through one operation queue: the
real masterd is a single-threaded daemon, and this serialisation is also
what guarantees a slot switch never races a job load (the noded's
install-now decision depends on a stable notion of the active slot) and
that reintegration never races a flush round.

With a :class:`~repro.parpar.recovery.RecoveryConfig` the masterd also
survives fail-stop nodes: noded heartbeats renew leases in a
:class:`~repro.parpar.recovery.FailureDetector`, the switch barrier gets
a timeout with bounded exponential-backoff retries, and a suspect node
that still won't ack is **evicted** — survivors drop it from the flush
protocol, its matrix column is excluded, and each job that lost a rank
gets its per-job policy: ``kill`` retires it dead, ``requeue`` restarts
it from scratch on a fresh DHC allocation.  A restarted noded registers
back in and is reintegrated (see :meth:`MasterDaemon._do_rejoin`).

Every op that talks to the nodeds (load, switch, end, kill, reintegrate)
sends to a node set and waits for one ack from each: the op in progress
owns the one open :class:`_AckWait`.  The op queue means a wedged *op*
wedges the daemon, so a wait owed an ack by a node that died can only be
freed from *outside* the queue — the lease monitor's second job (see
:meth:`_unwedge_waits`); a switch's guarded barrier evicts its own dead.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from repro.errors import AllocationError, SchedulingError
from repro.hardware.ethernet import ControlNetwork
from repro.parpar.dhc import DHCAllocator
from repro.parpar.job import JobSpec, JobState, ParallelJob
from repro.parpar.matrix import GangMatrix
from repro.parpar.recovery import FailureDetector, RecoveryConfig, RecoveryStats
from repro.sim.core import Event, Simulator
from repro.sim.primitives import Store


@dataclass(slots=True)
class _AckWait:
    """The op in progress's barrier: one ``kind`` ack per ``owed`` node.

    ``key`` is the job id, the switch sequence, or None (reintegration).
    ``event`` fires once nothing is owed; ``acks`` says who answered.
    """

    kind: str
    key: object
    owed: set
    acks: set
    event: Event


class MasterDaemon:
    """masterd: matrix owner and global coordinator."""

    ENDPOINT = 999

    def __init__(self, sim: Simulator, control_net: ControlNetwork,
                 num_nodes: int, num_slots: int, quantum: float,
                 recovery: Optional[RecoveryConfig] = None,
                 recovery_stats: Optional[RecoveryStats] = None,
                 spans=None):
        if quantum <= 0:
            raise SchedulingError(f"quantum must be positive, got {quantum}")
        self.sim = sim
        self.control_net = control_net
        self.quantum = quantum
        self.matrix = GangMatrix(num_nodes, num_slots)
        self.allocator = DHCAllocator(self.matrix)
        self.worker_ids = list(range(num_nodes))
        self.active_slot = 0
        self.jobs: dict[int, ParallelJob] = {}
        self.switches_completed = 0
        #: Acks whose switch already completed (or a later one started).
        #: Tolerated and counted, never an error: with retries in play a
        #: retransmitted ack can always race its original.
        self.stale_switch_acks = 0
        #: Bumped on every eviction and reintegration; audit epochs.
        self.recovery_epoch = 0
        #: Jobs that lost a rank to an eviction (old incarnations only).
        self.failed_jobs: set[int] = set()

        self._job_ids = itertools.count(1)
        self._ops: Store = Store(sim)
        self._rotation_paused = False
        self._switch_queued = False
        self._switch_seq = 0
        self._switch_watchers: list[tuple[int, Event]] = []
        self._done_events: dict[int, Event] = {}
        self._eviction_pending: set[int] = set()
        #: The ack wait of the op in progress (None between waits).
        self._wait: Optional[_AckWait] = None

        self.recovery = recovery
        if recovery is not None:
            self.stats = (recovery_stats if recovery_stats is not None
                          else RecoveryStats(spans=spans))
            self.detector: Optional[FailureDetector] = FailureDetector(
                recovery, self.worker_ids, self.stats, now=sim.now)
        else:
            self.stats = recovery_stats
            self.detector = None

        control_net.register(self.ENDPOINT, self._on_message)
        self._main_proc = sim.process(self._main(), name="masterd")
        self._timer_proc = sim.process(self._quantum_timer(), name="masterd-quantum")
        if recovery is not None:
            self._monitor_proc = sim.process(self._lease_monitor(),
                                             name="masterd-lease")

    # ------------------------------------------------------------------ dispatch
    def _on_message(self, src: int, message) -> None:
        kind = message[0]
        if kind == "submit":
            _, spec, reply, reply_endpoint = message
            self._ops.put(("load", spec, reply, reply_endpoint))
        elif kind == "switch-done":
            if not self._ack(kind, message[1], src):
                # A late ack: its switch already completed (a retry raced
                # the original, or an evicted node's ack was in flight).
                self.stale_switch_acks += 1
                if self.stats is not None:
                    self.stats.stale_switch_acks += 1
        elif kind in ("loaded", "ended", "killed"):
            self._ack(kind, message[1], src)
        elif kind == "job-finished":
            self._on_job_finished(message[1], src, message[3], message[4])
        elif kind == "heartbeat":
            if self.detector is not None:
                self.detector.heartbeat(message[1], self.sim.now)
        elif kind == "register":
            self._on_register(message[1])
        elif kind == "reintegrated":
            if self._ack(kind, None, src):
                self.stats.contexts_restored += message[2]
                self.stats.contexts_discarded += message[3]
        else:
            raise SchedulingError(f"masterd: unknown message {message!r}")

    # ------------------------------------------------------------------ main loop
    def _main(self):
        while True:
            op = yield self._ops.get()
            if op[0] == "load":
                yield from self._do_load(op[1], op[2], op[3])
            elif op[0] == "switch":
                yield from self._do_switch()
            elif op[0] == "end":
                yield from self._do_end(op[1])
            elif op[0] == "recover":
                yield from self._do_recover(op[1], op[2])
            elif op[0] == "evict":
                self._do_evict(op[1])
            elif op[0] == "rejoin":
                yield from self._do_rejoin(op[1])
            else:  # pragma: no cover - defensive
                raise SchedulingError(f"masterd: unknown op {op!r}")

    def _quantum_timer(self):
        while True:
            yield self.quantum
            if self._rotation_paused:
                continue
            if not self._switch_queued:
                self._switch_queued = True
                self._ops.put(("switch",))

    def pause_rotation(self) -> None:
        """Stop initiating slot switches (drain/maintenance mode).

        Switches already queued or in flight still complete; the timer
        simply stops arming new ones until :meth:`resume_rotation`.
        """
        self._rotation_paused = True

    def resume_rotation(self) -> None:
        self._rotation_paused = False

    @staticmethod
    def _succeed_once(event: Event) -> None:
        """Ack paths may complete an event the unwedger already fired."""
        if not event.triggered:
            event.succeed()

    # ------------------------------------------------------------------ ack wait
    def _await(self, kind: str, key, nodes) -> _AckWait:
        """Open the op's wait; it sends, yields ``wait.event``, clears it."""
        self._wait = _AckWait(kind, key, set(nodes), set(), Event(self.sim))
        return self._wait

    def _ack(self, kind: str, key, node: int) -> bool:
        """Take ``node``'s ack; False if it belongs to no open wait."""
        wait = self._wait
        if wait is None or wait.kind != kind or wait.key != key:
            return False
        wait.acks.add(node)
        owed = wait.owed
        if node in owed:
            owed.discard(node)
            if not owed:
                self._succeed_once(wait.event)
        return True

    # ------------------------------------------------------------------ loading
    def _launch_job(self, spec: JobSpec):
        """Allocate, load and sync one job (generator; returns the job).

        Raises :class:`AllocationError` — before any state is created —
        when no DHC placement exists.  Shared by first submission and by
        the requeue policy, so a restarted job runs the very same
        Figure-2 protocol as a fresh one.
        """
        job_id = next(self._job_ids)
        slot, nodes = self.allocator.allocate(job_id, spec.num_procs)
        job = ParallelJob(job_id=job_id, spec=spec, slot=slot,
                          node_ids=tuple(nodes), state=JobState.LOADING,
                          submitted_at=self.sim.now)
        self.jobs[job_id] = job
        wait = self._await("loaded", job_id, nodes)
        self._done_events[job_id] = Event(self.sim)
        rank_to_node = job.rank_to_node
        for rank, node in enumerate(nodes):
            self.control_net.send(self.ENDPOINT, node,
                                  ("load-job", job_id, slot, rank, rank_to_node,
                                   spec.workload))
        # Wait for every noded to report the fork succeeded...
        yield wait.event
        self._wait = None
        # ...then give the global synchronisation point (Figure 2).
        self.control_net.multicast(self.ENDPOINT, nodes, ("job-sync", job_id))
        job.state = JobState.READY
        job.ready_at = self.sim.now
        return job

    def _do_load(self, spec: JobSpec, reply: Event, reply_endpoint: int):
        try:
            job = yield from self._launch_job(spec)
        except AllocationError as err:
            self.control_net.send(self.ENDPOINT, reply_endpoint,
                                  ("submit-reply", reply, err))
            return
        self.control_net.send(self.ENDPOINT, reply_endpoint,
                              ("submit-reply", reply, job))

    # ------------------------------------------------------------------ switching
    def _next_slot(self) -> Optional[int]:
        """Round-robin over occupied slots; None if no switch is needed."""
        occupied = self.matrix.occupied_slots
        if not occupied:
            return None
        after = [s for s in occupied if s > self.active_slot]
        nxt = after[0] if after else occupied[0]
        return None if nxt == self.active_slot else nxt

    def _do_switch(self):
        self._switch_queued = False
        nxt = self._next_slot()
        if nxt is None:
            return
        self._switch_seq += 1
        wait = self._await("switch-done", self._switch_seq, self.worker_ids)
        message = ("switch-slot", self._switch_seq, self.active_slot, nxt)
        self.control_net.multicast(self.ENDPOINT, self.worker_ids, message)
        if self.recovery is None:
            yield wait.event
        else:
            yield from self._guarded_barrier(wait, message)
        self._wait = None
        self.active_slot = nxt
        self.switches_completed += 1
        if self._switch_watchers:
            ripe = [w for w in self._switch_watchers
                    if w[0] <= self.switches_completed]
            if ripe:
                self._switch_watchers = [w for w in self._switch_watchers
                                         if w[0] > self.switches_completed]
                for _, watcher in ripe:
                    watcher.succeed(self.switches_completed)

    def _guarded_barrier(self, wait: _AckWait, message):
        """Wait for all switch acks — with timeout, retries, and eviction.

        The barrier is the deadlock wedge of the unguarded protocol: a
        node that dies mid-switch never acks, and its surviving peers
        are themselves stuck inside the flush waiting for its HALT.
        Each lap waits ``switch_timeout * backoff**attempt`` (capped);
        on expiry the masterd re-multicasts to the laggards, and once
        the retry budget is spent it evicts those the failure detector
        *independently* suspects — eviction tells survivors to drop the
        dead node from the flush set, which unwedges their rounds and
        lets the barrier complete with the surviving quorum.  Laggards
        with fresh leases (a stalled daemon, not a dead node) just get
        more patience.
        """
        cfg = self.recovery
        event = wait.event
        attempt = 0
        while not event.triggered:
            timeout = cfg.switch_timeout * (cfg.switch_backoff ** attempt)
            if timeout > cfg.max_switch_timeout:
                timeout = cfg.max_switch_timeout
            yield self.sim.any_of([event, self.sim.timeout(timeout)])
            if event.triggered:
                break
            pending = [n for n in self.worker_ids if n in wait.owed]
            # Re-multicast on *every* lap, not just the budgeted retries:
            # the nodeds dedupe by sequence and late acks are tolerated,
            # so at-least-once delivery is free — and it is what saves a
            # laggard that lost the original multicast (e.g. a node that
            # died and restarted between two laps).
            self.control_net.multicast(self.ENDPOINT, pending, message)
            if attempt < cfg.max_switch_retries:
                attempt += 1
                self.stats.switch_retries += 1
                continue
            suspects = [n for n in pending if self.detector.is_suspect(n)]
            if suspects:
                self._evict(suspects)

    # ------------------------------------------------------------------ recovery
    def _lease_monitor(self):
        """Sweep the failure detector once per heartbeat interval.

        Runs outside the op queue, which makes it the only context that
        can free a main loop wedged *inside* an op (see module
        docstring) — hence the ``_unwedge_waits`` call here rather than
        in the eviction op.
        """
        interval = self.recovery.heartbeat_interval
        while True:
            yield interval
            now = self.sim.now
            self.detector.sweep(now)
            for node in self.detector.overdue(now):
                if node not in self.worker_ids:
                    continue
                self._unwedge_waits(node)
                if node not in self._eviction_pending:
                    self._eviction_pending.add(node)
                    self._ops.put(("evict", node))

    def _do_evict(self, node: int) -> None:
        """Idle-path eviction op (no switch barrier involved)."""
        self._eviction_pending.discard(node)
        if node not in self.worker_ids:
            return  # a switch barrier got there first
        if not self.detector.is_suspect(node):
            return  # heartbeats resumed while the op was queued
        self._evict([node])

    def _evict(self, nodes) -> None:
        """Remove dead nodes from the cluster view, synchronously.

        Safe to call mid-switch: survivors are told to drop the nodes
        from the flush protocol (``evict-node`` unwedges any in-progress
        round), the matrix columns are excluded, and the per-job failure
        policies are deferred to a follow-up ``recover`` op — they
        involve waiting for teardown acks, which must not happen inside
        the switch barrier.
        """
        for node in nodes:
            if node not in self.worker_ids:
                continue
            self.worker_ids.remove(node)
            self.detector.mark_evicted(node)
            self.recovery_epoch += 1
            self.stats.evictions += 1
            self.stats.begin_evict(node)
            if self.worker_ids:
                self.control_net.multicast(self.ENDPOINT, list(self.worker_ids),
                                           ("evict-node", node))
            affected = self.matrix.evict_node(node)
            self.failed_jobs.update(affected)
            for job_id in affected:
                self.jobs[job_id].failed_node = node
            self._unwedge_waits(node)
            self._ops.put(("recover", node, tuple(affected)))
        wait = self._wait
        if wait is not None and wait.kind == "switch-done":
            # An evicted node owes the switch nothing any more.
            wait.owed.intersection_update(self.worker_ids)
            if not wait.owed:
                self._succeed_once(wait.event)

    def _do_recover(self, node: int, affected):
        """Apply per-job failure policies after ``node`` was evicted."""
        for job_id in affected:
            job = self.jobs[job_id]
            yield from self._retire_failed(job)
            if job.spec.on_failure == "requeue":
                fresh = yield from self._requeue(job)
                if fresh is not None:
                    job.state = JobState.REQUEUED
                    job.requeued_as = fresh.job_id
                    self.stats.jobs_requeued += 1
                    # The original's waiters resolve when the fresh
                    # incarnation does.
                    done = self._done_events[job_id]
                    self._done_events[fresh.job_id].add_callback(
                        lambda _ev, _done=done, _job=job: (
                            None if _done.triggered else _done.succeed(_job)))
                    continue
                self.stats.requeue_failures += 1
            job.state = JobState.KILLED
            job.finished_at = self.sim.now
            self.stats.jobs_killed += 1
            self._succeed_once(self._done_events[job_id])
        self.stats.end_evict(node, jobs=len(affected))

    def _retire_failed(self, job: ParallelJob):
        """Tear the failed job down on its surviving nodes (generator)."""
        survivors = [n for n in job.node_ids if n in self.worker_ids]
        if not survivors:
            return
        job_id = job.job_id
        wait = self._await("killed", job_id, survivors)
        for node in survivors:
            self.control_net.send(self.ENDPOINT, node, ("kill-job", job_id))
        yield wait.event
        self._wait = None

    def _requeue(self, failed: ParallelJob):
        """Requeue policy: fresh incarnation on a fresh DHC allocation.

        Returns the new job, or None when the shrunken cluster has no
        feasible placement (the caller falls back to kill).
        """
        try:
            fresh = yield from self._launch_job(failed.spec)
        except AllocationError:
            return None
        return fresh

    def _unwedge_waits(self, node: int) -> None:
        """Excuse a dead node from the open wait's ack it will never send.

        The load, end, kill and reintegrate waits otherwise wedge forever
        when a participant dies mid-protocol (the switch wait is the
        guarded barrier's business).  The jobs involved are not quietly
        blessed: any job with a rank on the dead node is retired for real
        by the eviction policies; this only restores liveness.  Each owed
        node is excused, and counted, once.
        """
        wait = self._wait
        if wait is None or wait.kind == "switch-done" or node not in wait.owed:
            return
        wait.owed.discard(node)
        self.stats.unwedged_waits += 1
        if not wait.owed:
            self._succeed_once(wait.event)

    # ------------------------------------------------------------------ rejoin
    def _on_register(self, node_id: int) -> None:
        if self.recovery is None:
            raise SchedulingError(
                f"masterd: node {node_id} registered but recovery is disabled")
        if node_id in self.worker_ids:
            # Fast rejoin: the node restarted before the detector evicted
            # it, so its resumed heartbeats are about to clear the very
            # suspicion an in-flight guarded barrier would need to evict
            # it — while the node, having lost the switch multicast, can
            # never ack.  Evict synchronously (safe mid-switch) so the
            # barrier completes with the survivors; the rejoin op below
            # then reintegrates through the same path as a slow rejoin.
            self._evict([node_id])
        self.stats.begin_reintegrate(node_id)
        self._ops.put(("rejoin", node_id))

    def _do_rejoin(self, node: int):
        """Reintegrate a restarted node (an op, serialised like any other).

        By the time this runs no switch is in flight and no flush round
        is open — exactly the window in which every participant's flush
        protocol may be reset.  The restarted node restores its stored
        contexts from the backing store (the residual-integrity audit),
        discards the dead jobs, and only after *every* participant acked
        the new epoch does the node become allocatable again.
        """
        if node in self.worker_ids:
            # Fast rejoin: the node restarted before the detector evicted
            # it.  Its processes died all the same — evict first so both
            # paths share one reintegration (the recover op this queues
            # runs after the present op and may even place requeued jobs
            # on the readmitted node).
            self._evict([node])
        self.recovery_epoch += 1
        participants = tuple(sorted(self.worker_ids + [node]))
        dead_jobs = tuple(sorted(
            job_id for job_id in self.failed_jobs
            if node in self.jobs[job_id].node_ids))
        wait = self._await("reintegrated", None, participants)
        for peer in self.worker_ids:
            self.control_net.send(self.ENDPOINT, peer,
                                  ("reintegrate", node, participants))
        self.control_net.send(self.ENDPOINT, node,
                              ("rejoin-ack", self.active_slot, participants,
                               dead_jobs))
        yield wait.event
        self._wait = None
        readmitted = node in wait.acks
        if readmitted:
            self.worker_ids.append(node)
            self.worker_ids.sort()
            self.matrix.readmit_node(node)
            self.detector.reinstate(node, self.sim.now)
            self.stats.reintegrations += 1
        # else: the node died again before completing reintegration; it
        # stays evicted and may register anew.
        self.stats.end_reintegrate(node, readmitted=readmitted)

    def resolve_job(self, job_id: int) -> ParallelJob:
        """Follow the requeue chain to the final incarnation of a job."""
        job = self.jobs[job_id]
        while job.requeued_as is not None:
            job = self.jobs[job.requeued_as]
        return job

    # ------------------------------------------------------------------ retirement
    def _on_job_finished(self, job_id: int, node_id: int, rank: int, result) -> None:
        job = self.jobs[job_id]
        if job.state in (JobState.KILLED, JobState.REQUEUED):
            return  # in-flight finish from a rank of a failed job
        job.finished_nodes.add(node_id)
        job.results[rank] = result
        if job.all_finished:
            self._ops.put(("end", job_id))

    def _do_end(self, job_id: int):
        job = self.jobs[job_id]
        if job_id in self.failed_jobs or job.state in (JobState.KILLED,
                                                       JobState.REQUEUED):
            return  # an eviction retired it while this op sat queued
        self.matrix.remove(job_id)
        wait = self._await("ended", job_id, job.node_ids)
        for node in job.node_ids:
            self.control_net.send(self.ENDPOINT, node, ("end-job", job_id))
        yield wait.event
        self._wait = None
        job.state = JobState.FINISHED
        job.finished_at = self.sim.now
        self._succeed_once(self._done_events[job_id])
        # If the active slot just emptied, the next quantum rotates away.

    # ------------------------------------------------------------------ waiting
    def done_event(self, job_id: int) -> Event:
        """Event that fires when the job is fully retired."""
        try:
            return self._done_events[job_id]
        except KeyError:
            raise SchedulingError(f"masterd: unknown job {job_id}") from None

    def switch_count_event(self, count: int) -> Event:
        """Event that fires when ``switches_completed`` reaches ``count``.

        Lets drivers wait for N rotations through the kernel's fast run
        loop instead of polling the counter with per-event ``step()``
        calls.  Fires immediately if the count has already been reached.
        """
        watcher = Event(self.sim)
        if self.switches_completed >= count:
            watcher.succeed(self.switches_completed)
        else:
            self._switch_watchers.append((count, watcher))
        return watcher
