"""Runtime reallocation engine for dynamic buffer policies.

The engine owns the *mechanism*; policies own the *policy*.  It

- registers every live context and attaches waiting-time observers to
  its queues (zero-cost for static policies, which never construct an
  engine);
- at each gang switch builds a :class:`~repro.fm.policies.base.SwitchView`
  snapshot, asks the policy for proposals, and **normalises** them into a
  feasible plan: every job is floored at its live occupancy, at p slots
  (a credit window of >= 1), and at the credit exposure that could not be
  reclaimed from in-flight windows; grants are fitted into the physical
  pools by proportional scaling of the above-floor excess;
- applies the plan per node inside the flushed switch window — the only
  instant the network is globally silent — shrinking windows first, then
  resizing queues smallest-delta-first, then growing windows, so the
  per-node pools are never over-committed even transiently.

The plan for a switch ``sequence`` is computed once (by whichever node's
swap runs first — the global flush barrier guarantees every queue is
frozen by then, so the snapshot is identical no matter which node
computes it) and memoised; the remaining nodes apply their share of the
same plan.

Safety argument for the floors: a job's receive allocation always
satisfies ``alloc >= max(occupancy, p x achieved_window)``.  Occupancy
covers packets already delivered; ``p x window`` covers the worst-case
credit exposure (at most p peer processes, each holding at most
``window`` credits toward any rank).  Feasibility (sum of floors <= pool)
holds inductively: each floor is bounded by the context's *current*
allocation — achieved windows only ever shrink toward targets backed by
reclaimed credits, occupancy can never exceed the capacity that admitted
it, and every published window is capped at ``grant / p`` so the
``alloc >= c0 x p`` bound survives each reallocation — and current
allocations summed to at most the pool.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from typing import Optional

from repro.errors import ProtocolError
from repro.fm.config import FMConfig
from repro.fm.policies.base import (RECV, SEND, BufferPolicy, ContextGeometry,
                                    JobView, SwitchView)

# NOTE: contexts are typed loosely (any FMContext-shaped object) rather
# than importing repro.fm.context, which imports repro.fm.policies.base
# and would close an import cycle through repro.fm.policies.


class QueueWaitObserver:
    """Per-queue waiting-time tap (installed as ``queue.wait_observer``).

    Stamps enqueue times FIFO (the queue is FIFO, so the head stamp
    always belongs to the popped packet) and integrates per-packet
    waiting time.  Epoch counters are reset by the engine at each
    reallocation; stamps persist across epochs so a packet that waits
    through a descheduled quantum is charged its full delay.
    """

    __slots__ = ("policy", "job_id", "kind", "_stamps", "wait_total",
                 "dequeues", "enqueues")

    def __init__(self, policy: BufferPolicy, job_id: int, kind: str):
        self.policy = policy
        self.job_id = job_id
        self.kind = kind
        self._stamps: deque[float] = deque()
        self.wait_total = 0.0
        self.dequeues = 0
        self.enqueues = 0

    def enqueued(self, now: float, occupancy: int) -> None:
        self._stamps.append(now)
        self.enqueues += 1
        self.policy.on_enqueue(self.job_id, self.kind, occupancy, now)

    def dequeued(self, now: float, occupancy: int) -> None:
        stamps = self._stamps
        waited = now - stamps.popleft() if stamps else 0.0
        self.wait_total += waited
        self.dequeues += 1
        self.policy.on_dequeue(self.job_id, self.kind, occupancy, waited, now)

    def drained(self) -> None:
        self._stamps.clear()

    def reset_epoch(self) -> None:
        self.wait_total = 0.0
        self.dequeues = 0
        self.enqueues = 0


class PolicyEngine:
    """Applies a dynamic :class:`BufferPolicy` to live contexts."""

    #: memoised plans kept around (each switch completes globally before
    #: the next begins; a handful is ample slack)
    PLAN_KEEP = 4

    def __init__(self, sim, policy: BufferPolicy, config: FMConfig,
                 tracer=None):
        self.sim = sim
        self.policy = policy
        self.config = config
        #: optional Tracer (falsy NullTracer when observability is off);
        #: plan/apply/window records feed the causal layer's reallocation
        #: spans and window timelines
        self.tracer = tracer
        self.recv_pool = config.recv_queue_packets
        self.send_pool = config.send_queue_packets
        #: baseline per-context geometry; the pool share reserved for
        #: every configured context that has not registered yet
        self._base = policy.geometry(config)
        self._jobs_seen: set[int] = set()
        self._contexts: dict[tuple[int, int], FMContext] = {}
        # Sorted (job, node) keys of the registered contexts, per node and
        # per job, plus the sorted live job ids: every per-switch pass
        # walks these in today's sorted-key order (float sums and resize
        # order depend on it) without sorting or scanning every context.
        self._node_keys: dict[int, list[tuple[int, int]]] = {}
        self._job_keys: dict[int, list[tuple[int, int]]] = {}
        self._job_order: list[int] = []
        self._observers: dict[tuple[int, int], tuple] = {}
        # (job, node) -> [recv_alloc, send_alloc]; the conservation ledger
        self._alloc: dict[tuple[int, int], list[int]] = {}
        self._plans: dict[int, dict] = {}       # sequence -> plan
        self._applied: set[tuple[int, int]] = set()
        self._auto_seq = -1
        # statistics (deterministic; harvested into telemetry)
        self.reallocations = 0
        self.plans_computed = 0
        self.recv_packets_reclaimed = 0
        self.recv_packets_granted = 0
        self.credits_reclaimed = 0
        self.credits_granted = 0
        self.min_window_seen: Optional[int] = None
        self.max_window_seen: Optional[int] = None

    # ------------------------------------------------------------------ registry
    def register(self, ctx: FMContext) -> None:
        key = (ctx.job_id, ctx.node_id)
        if key in self._contexts:
            raise ProtocolError(f"context {key} already registered with the "
                                f"policy engine")
        self._contexts[key] = ctx
        send_obs = QueueWaitObserver(self.policy, ctx.job_id, SEND)
        recv_obs = QueueWaitObserver(self.policy, ctx.job_id, RECV)
        ctx.send_queue.wait_observer = send_obs
        ctx.recv_queue.wait_observer = recv_obs
        self._observers[key] = (send_obs, recv_obs)
        self._jobs_seen.add(ctx.job_id)
        self._alloc[key] = list(self._fit_newcomer(ctx))
        insort(self._node_keys.setdefault(ctx.node_id, []), key)
        job_keys = self._job_keys.get(ctx.job_id)
        if job_keys is None:
            job_keys = self._job_keys[ctx.job_id] = []
            insort(self._job_order, ctx.job_id)
        insort(job_keys, key)
        self._note_window(ctx.credits.c0)
        self._check_conservation(ctx.node_id)

    def _fit_newcomer(self, ctx: FMContext) -> tuple[int, int]:
        """Clamp a late-registering context into the node's remaining room.

        Planning reserves a baseline share for every configured context
        that has not registered yet, so in the normal lifecycle the
        baseline geometry always fits.  Under churn (a job leaves, the
        residents absorb the pool at a switch, then a job is admitted or
        re-admitted) the newcomer is shrunk instead — it has no traffic
        yet, so its credit window and queue capacities can be cut
        safely.  With less than one credit slot per peer left its window
        is zero: legal, communication impossible (see
        :mod:`repro.fm.credits`), and a gang-scheduled job cannot run
        before the flushed switch that installs it, whose plan floors
        every job at p slots and a window of one.
        """
        recv_used, send_used = self._node_totals(ctx.node_id)
        recv = min(ctx.geometry.recv_packets, self.recv_pool - recv_used)
        send = min(ctx.geometry.send_packets, self.send_pool - send_used)
        if (recv == ctx.geometry.recv_packets
                and send == ctx.geometry.send_packets):
            return recv, send
        ctx.credits.set_window(
            min(ctx.credits.c0, recv // self.config.num_processors))
        ctx.recv_queue.set_capacity(recv)
        ctx.send_queue.set_capacity(send)
        ctx.geometry = ContextGeometry(
            recv_packets=recv, send_packets=send,
            initial_credits=ctx.credits.c0)
        return recv, send

    def forget(self, job_id: int, node_id: int) -> None:
        key = (job_id, node_id)
        ctx = self._contexts.pop(key, None)
        if ctx is None:
            return
        ctx.send_queue.wait_observer = None
        ctx.recv_queue.wait_observer = None
        self._observers.pop(key, None)
        self._alloc.pop(key, None)
        self._unindex(self._node_keys, node_id, key)
        if self._unindex(self._job_keys, job_id, key):
            self._job_order.remove(job_id)

    @staticmethod
    def _unindex(index: dict, owner: int, key: tuple) -> bool:
        """Drop ``key`` from ``index[owner]``; True if that emptied it."""
        keys = index[owner]
        keys.remove(key)
        if keys:
            return False
        del index[owner]
        return True

    def _note_window(self, window: int) -> None:
        if self.min_window_seen is None or window < self.min_window_seen:
            self.min_window_seen = window
        if self.max_window_seen is None or window > self.max_window_seen:
            self.max_window_seen = window

    # ------------------------------------------------------------------ ledger
    def _node_totals(self, node_id: int) -> tuple[int, int]:
        """(recv, send) slots allocated on ``node_id``."""
        recv = send = 0
        alloc = self._alloc
        for key in self._node_keys.get(node_id, ()):
            r, s = alloc[key]
            recv += r
            send += s
        return recv, send

    def conservation_report(self) -> dict:
        """Per-node allocation sums vs pools (the SRAM/host-region ledger)."""
        report = {}
        for node_id in sorted(self._node_keys):
            recv, send = self._node_totals(node_id)
            report[node_id] = {
                "recv_allocated": recv, "recv_pool": self.recv_pool,
                "send_allocated": send, "send_pool": self.send_pool,
                "ok": recv <= self.recv_pool and send <= self.send_pool,
            }
        return report

    def _check_conservation(self, node_id: int) -> None:
        recv, send = self._node_totals(node_id)
        if recv > self.recv_pool or send > self.send_pool:
            raise ProtocolError(
                f"policy {self.policy.name} over-committed node {node_id}: "
                f"recv {recv}/{self.recv_pool}, send {send}/{self.send_pool}")

    # ------------------------------------------------------------------ switch hook
    def on_context_switch(self, node_id: int, sequence: Optional[int],
                          out_job: Optional[int],
                          in_job: Optional[int]) -> None:
        """Reallocate at a flushed gang switch (idempotent per node/seq).

        Called from ``COMM_context_switch`` after the outgoing context is
        off the NIC and before the incoming one is installed — the only
        point a context's send-SRAM footprint may legally change.
        """
        if sequence is None:
            self._auto_seq += 1
            sequence = -1 - self._auto_seq  # private key space, never masterd's
        if (sequence, node_id) in self._applied:
            return
        plan = self._plans.get(sequence)
        tracer = self.tracer
        if plan is None:
            plan = self._compute_plan(out_job, in_job)
            self._plans[sequence] = plan
            while len(self._plans) > self.PLAN_KEEP:
                del self._plans[min(self._plans)]
            if tracer and plan:
                tracer.record(
                    "realloc-plan", node=node_id, sequence=sequence,
                    jobs=len({j for j, _ in plan}),
                    windows=[[j, w] for (j, n), (_, _, w)
                             in sorted(plan.items()) if n == node_id])
        self._applied.add((sequence, node_id))
        if plan:
            self._apply_node(node_id, plan, sequence)

    # ------------------------------------------------------------------ planning
    def _job_ids(self) -> list[int]:
        return list(self._job_order)

    def _contexts_of(self, job_id: int) -> list[FMContext]:
        contexts = self._contexts
        return [contexts[key] for key in self._job_keys[job_id]]

    def _effective_pools(self) -> tuple[int, int]:
        """Pools minus the baseline share of contexts still to come.

        A job that has not registered yet arrives with the baseline
        geometry; reallocating its share to the residents first would
        over-commit the node the moment it shows up.  Reserving per
        *never-seen* job (not per currently-registered one) means the
        reserve only shrinks — once every configured context has
        appeared, the full pool is in play forever.
        """
        pending = max(0, self.config.max_contexts - len(self._jobs_seen))
        return (self.recv_pool - pending * self._base.recv_packets,
                self.send_pool - pending * self._base.send_packets)

    def _build_view(self, out_job: Optional[int],
                    in_job: Optional[int]) -> SwitchView:
        views = []
        for job_id in self._job_ids():
            ctxs = self._contexts_of(job_id)
            recv_wait = 0.0
            dequeues = enqueues = 0
            for key in self._job_keys[job_id]:
                recv_obs = self._observers[key][1]
                recv_wait += recv_obs.wait_total
                dequeues += recv_obs.dequeues
                enqueues += recv_obs.enqueues
            views.append(JobView(
                job_id=job_id,
                running=(job_id == in_job),
                recv_capacity=max(c.recv_queue.capacity for c in ctxs),
                send_capacity=max(c.send_queue.capacity for c in ctxs),
                recv_occupancy=max(len(c.recv_queue) for c in ctxs),
                send_occupancy=max(len(c.send_queue) for c in ctxs),
                credit_window=max(c.credits.c0 for c in ctxs),
                recv_wait_us=int(recv_wait * 1e6),
                recv_dequeues=dequeues,
                recv_enqueues=enqueues,
            ))
        recv_pool, send_pool = self._effective_pools()
        return SwitchView(config=self.config, recv_pool=recv_pool,
                          send_pool=send_pool, in_job=in_job,
                          out_job=out_job, jobs=tuple(views))

    @staticmethod
    def _fit(proposals: dict, floors: dict, pool: int, order: list) -> dict:
        """Fit per-job wants into ``pool``, never below ``floors``.

        Feasibility (sum of floors <= pool) is the caller's invariant.
        Above-floor excess is scaled proportionally; rounding remainder
        goes to jobs in ``order`` (ascending job id) one slot at a time —
        deterministic and independent of dict iteration order.
        """
        want = {j: max(proposals.get(j, floors[j]), floors[j]) for j in order}
        if sum(want.values()) <= pool:
            return want
        floor_total = sum(floors.values())
        extra_budget = pool - floor_total
        extras = {j: want[j] - floors[j] for j in order}
        extra_total = sum(extras.values())
        grant = {j: floors[j] + extras[j] * extra_budget // extra_total
                 for j in order}
        remainder = pool - sum(grant.values())
        for j in order:
            if remainder <= 0:
                break
            room = want[j] - grant[j]
            take = min(room, remainder)
            grant[j] += take
            remainder -= take
        return grant

    def _compute_plan(self, out_job: Optional[int],
                      in_job: Optional[int]) -> dict:
        """One feasible allocation per registered context.

        Returns ``{(job, node): (recv, send, window)}`` — empty when the
        policy declines to reallocate.
        """
        view = self._build_view(out_job, in_job)
        proposals = self.policy.on_context_switch(view)
        for obs_pair in self._observers.values():
            obs_pair[0].reset_epoch()
            obs_pair[1].reset_epoch()
        if not proposals:
            return {}
        self.plans_computed += 1
        p = self.config.num_processors
        order = self._job_ids()
        job_view = {v.job_id: v for v in view.jobs}
        recv_pool, send_pool = self._effective_pools()

        recv_props = {j: g.recv_packets for j, g in proposals.items()}
        send_props = {j: g.send_packets for j, g in proposals.items()}

        # Preliminary recv grants -> window targets.
        floors0 = {j: max(job_view[j].recv_occupancy, p) for j in order}
        prelim = self._fit(recv_props, floors0, recv_pool, order)
        targets = {j: max(1, prelim[j] // p) for j in order}

        # Per-context achieved windows: shrink is limited by what can be
        # reclaimed right now (minimum availability across peers — in
        # flight or parked credits stay counted until they return).
        windows: dict[tuple[int, int], int] = {}
        achieved_max = {}
        for j in order:
            ach = 0
            for ctx in self._contexts_of(j):
                target = targets[j]
                c0 = ctx.credits.c0
                if target < c0:
                    reclaimable = ctx.credits.reclaimable()
                    if reclaimable is None:
                        reclaimable = c0 - target
                    w = c0 - min(c0 - target, reclaimable)
                else:
                    w = target
                windows[(j, ctx.node_id)] = w
                ach = max(ach, w)
            achieved_max[j] = ach

        floors = {j: max(job_view[j].recv_occupancy, p, achieved_max[j] * p)
                  for j in order}
        recv_grants = self._fit(recv_props, floors, recv_pool, order)
        send_floors = {j: job_view[j].send_occupancy for j in order}
        send_grants = self._fit(send_props, send_floors, send_pool, order)

        # Cap growth at what the *final* grant can back: the final fit can
        # squeeze a growing job below its preliminary grant (other jobs'
        # achieved-window floors eat the excess), and publishing
        # c0 > grant/p would break the alloc >= c0 x p invariant the next
        # plan's floors rely on.  Shrinking jobs are unaffected — their
        # floor already guarantees grant >= achieved x p.
        for key in windows:
            windows[key] = max(1, min(windows[key], recv_grants[key[0]] // p))

        plan = {}
        for (j, node_id), w in windows.items():
            plan[(j, node_id)] = (recv_grants[j], send_grants[j], w)
        return plan

    # ------------------------------------------------------------------ applying
    def _apply_node(self, node_id: int, plan: dict,
                    sequence: Optional[int] = None) -> None:
        contexts = self._contexts
        local = [(key, contexts[key], plan[key])
                 for key in self._node_keys.get(node_id, ()) if key in plan]
        if not local:
            return
        tracer = self.tracer
        old_geometry = None
        if tracer:
            old_geometry = {key: (ctx.recv_queue.capacity,
                                  ctx.send_queue.capacity, ctx.credits.c0)
                            for key, ctx, _ in local}
        # 1. shrink credit windows (frees exposure before capacity moves)
        for key, ctx, (_, _, window) in local:
            credits = ctx.credits
            if window < credits.c0:
                self.credits_reclaimed += credits.c0 - window
                achieved = credits.set_window(window)
                if achieved != window:
                    raise ProtocolError(
                        f"planned window {window} for job {key[0]} on node "
                        f"{node_id} but achieved {achieved}: plan raced "
                        f"live traffic (network not flushed?)")
        # 2. resize receive regions, shrinks first so the pool never
        #    over-commits even transiently
        alloc = self._alloc
        for idx in (0, 1):  # 0 = recv, 1 = send
            resizes = []
            for key, ctx, grant in local:
                queue = ctx.recv_queue if idx == 0 else ctx.send_queue
                new = grant[idx]
                delta = new - queue.capacity
                if delta:
                    resizes.append((delta, key, queue, new))
            # (delta, key) order; keys are unique, so the queues are
            # never compared.
            resizes.sort()
            for delta, key, queue, new in resizes:
                if idx == 0:
                    if delta < 0:
                        self.recv_packets_reclaimed += -delta
                    else:
                        self.recv_packets_granted += delta
                queue.set_capacity(new)
                alloc[key][idx] = new
                self._check_conservation(node_id)
        # 3. grow credit windows (capacity is in place to back them), and
        # 4. publish the new geometry (what firmware install / the switch
        #    algorithms / the audits read) where it changed
        for key, ctx, (recv, send, window) in local:
            credits = ctx.credits
            if window > credits.c0:
                self.credits_granted += window - credits.c0
                credits.set_window(window)
            c0 = credits.c0
            self._note_window(c0)
            geometry = ctx.geometry
            if (geometry.recv_packets != recv or geometry.send_packets != send
                    or geometry.initial_credits != c0):
                ctx.geometry = ContextGeometry(
                    recv_packets=recv, send_packets=send, initial_credits=c0)
        self.reallocations += 1
        if tracer:
            for key, ctx, _ in local:
                old_recv, old_send, old_window = old_geometry[key]
                new_recv = ctx.recv_queue.capacity
                new_send = ctx.send_queue.capacity
                new_window = ctx.credits.c0
                if (old_recv, old_send, old_window) != (new_recv, new_send,
                                                        new_window):
                    tracer.record("window-set", node=node_id, job=key[0],
                                  window=new_window, recv=new_recv,
                                  send=new_send, old_window=old_window,
                                  old_recv=old_recv, old_send=old_send)
            tracer.record("realloc-apply", node=node_id, sequence=sequence,
                          contexts=len(local))

    # ------------------------------------------------------------------ telemetry
    def counters(self) -> dict:
        """Deterministic counters for the telemetry harvest."""
        return {
            "reallocations": self.reallocations,
            "plans_computed": self.plans_computed,
            "recv_packets_reclaimed": self.recv_packets_reclaimed,
            "recv_packets_granted": self.recv_packets_granted,
            "credits_reclaimed": self.credits_reclaimed,
            "credits_granted": self.credits_granted,
            "min_window": (self.min_window_seen
                           if self.min_window_seen is not None else 0),
            "max_window": (self.max_window_seen
                           if self.max_window_seen is not None else 0),
        }
