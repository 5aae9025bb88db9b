"""Dynamic buffer-ownership race detector for the gang-switch protocol.

The paper's buffer-swapping design rests on an ownership discipline:
between ``COMM_halt_network`` and ``COMM_release_network`` only the
*incoming* job's context may touch NIC SRAM send slots and pinned
receive buffers; a switched-out (STORED) context's queues are frozen —
their fingerprint in the :class:`~repro.gluefm.backing.BackingStore`
must still match at restore time.  This module checks that discipline
*dynamically*, Eraser/FastTrack-style, while a real chaos or fail-stop
simulation runs.

**Happens-before.**  The simulation is a sequential DES, so sim-time
execution order is a linear extension of the event-causality partial
order (event scheduling edges plus the switch barrier acks) — if access
A executes before access B in the run, B cannot happen-before A.  Each
node carries an **ownership epoch**, bumped at every halt and release
barrier (the points where buffer ownership may legally change hands).
Every monitored access is tagged ``(sim_time, node_epoch)`` and judged
against the owning context's state at that instant:

- ``stored-access`` — any queue mutation (append/pop/drain/load) on a
  context in ``STORED`` state.  Nothing may order such an access into
  the context's ownership window: the save barrier already happened and
  the restore barrier has not, so the access races with the fingerprint.
- ``halted-send`` — a send-queue dequeue while the node's halt bit is
  set.  The send context must stop on a packet boundary; a pickup
  inside the halt window races with the flush protocol.
- ``sram-stored`` — an SRAM descriptor corruption landing in a STORED
  context's send queue (the fault injector must only target installed
  contexts, like real bit flips only hit resident state).

**Zero-cost / bit-identical.**  Instrumentation is installed by
monkey-patching the queue / NIC / backing-store methods and removed on
uninstall, so disabled runs execute the original bytecode untouched.
The monitor only *reads* simulation state and appends to its own
records — it schedules no events and draws no randomness — so enabled
runs are bit-identical to disabled ones (pinned by
``tests/analysis/simlint/test_racecheck.py``).

Run it with ``python -m repro racecheck`` over the chaos / fail-stop
presets; ``--plant`` schedules a deliberate out-of-window access that
must be caught (the detector's own positive control).
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import SimulationError
from repro.fm.context import ContextState, FMContext
from repro.fm.packet import Packet, PacketType
from repro.fm.queues import PacketQueue, SendQueue
from repro.gluefm.backing import BackingStore
from repro.hardware.nic import MyrinetNIC

#: Queue operations that remove packets (the firmware pickup side).
_POP_OPS = frozenset({"try_pop", "drain_all"})
#: All monitored queue mutators.
_QUEUE_OPS = ("append", "try_pop", "drain_all", "load_all")


@dataclass(frozen=True)
class RaceRecord:
    """One access observed outside its context's ownership window."""

    kind: str        # stored-access | halted-send | sram-stored
    time: float      # sim time of the access
    node_id: int
    job_id: int
    rank: int
    queue: str       # queue name, e.g. "sendq[j3r0]"
    op: str          # the mutator that fired
    epoch: int       # node ownership epoch at access time

    def to_dict(self) -> dict:
        return {
            "kind": self.kind, "time": self.time, "node_id": self.node_id,
            "job_id": self.job_id, "rank": self.rank, "queue": self.queue,
            "op": self.op, "epoch": self.epoch,
        }

    def render(self) -> str:
        return (f"RACE[{self.kind}] t={self.time:.6f} node={self.node_id} "
                f"job={self.job_id} rank={self.rank} {self.queue}.{self.op}() "
                f"epoch={self.epoch}")


#: The installed monitor, or None.  Module-global so the patched methods
#: can find it without closing over a particular instance.
_ACTIVE: Optional["BufferOwnershipMonitor"] = None


class BufferOwnershipMonitor:
    """Owner-epoch race detector over queues, NIC halt bits and backings.

    Use as a context manager (``with BufferOwnershipMonitor() as mon:``)
    or call :meth:`install` / :meth:`uninstall` explicitly.  Only one
    monitor may be installed at a time.

    ``plant_at`` schedules a deliberate single out-of-ownership-window
    access at that sim time — the positive control proving the detector
    is live.  ``plant_kind`` picks which race class the probe commits:

    - ``stored-access`` — append to a STORED context's send queue;
    - ``halted-send`` — dequeue from an ACTIVE context's send queue
      while its node's halt bit is raised.  Halt windows are far
      shorter than any polling interval and only the early switches are
      guaranteed to have an installed context, so this probe triggers
      from the first halt transition that has one, ignoring
      ``plant_at``;
    - ``sram-stored`` — flip a descriptor sitting in a STORED context's
      send queue.

    Every probe undoes its own mutation surgically (with queue
    signalling suppressed) so the run completes normally: the only
    observable effect is the one race report.
    """

    PLANT_KINDS = ("stored-access", "halted-send", "sram-stored")

    def __init__(self, plant_at: Optional[float] = None,
                 plant_kind: str = "stored-access"):
        if plant_kind not in self.PLANT_KINDS:
            raise SimulationError(
                f"unknown plant kind {plant_kind!r}; "
                f"expected one of {self.PLANT_KINDS}")
        self.races: list = []
        self.checked_ops = 0
        self.saves = 0
        self.restores = 0
        self.planted = 0
        self._contexts: list = []
        self._queue_owner: dict = {}   # id(queue) -> FMContext
        self._halted: dict = {}        # node_id -> bool
        self._epoch: dict = {}         # node_id -> ownership epoch
        self._nics: dict = {}          # node_id -> MyrinetNIC, seen at halts
        self._plant_at = plant_at
        self._plant_kind = plant_kind
        self._probe_scheduled = False
        self._busy = False             # reentrancy guard (load_all→append)
        self._originals: Optional[dict] = None

    # ------------------------------------------------------------ lifecycle
    def install(self) -> "BufferOwnershipMonitor":
        global _ACTIVE
        if _ACTIVE is not None:
            raise SimulationError("a BufferOwnershipMonitor is already installed")
        self._originals = {
            "ctx_init": FMContext.__init__,
            "set_halt": MyrinetNIC.set_halt_bit,
            "clear_halt": MyrinetNIC.clear_halt_bit,
            "corrupt": MyrinetNIC.corrupt_descriptor,
            "save": BackingStore.save,
            "restore": BackingStore.restore,
        }
        for op in _QUEUE_OPS:
            self._originals[f"q_{op}"] = getattr(PacketQueue, op)
        _ACTIVE = self
        self._apply_patches()
        return self

    def uninstall(self) -> None:
        global _ACTIVE
        if _ACTIVE is not self:
            raise SimulationError("this monitor is not installed")
        originals = self._originals
        FMContext.__init__ = originals["ctx_init"]
        MyrinetNIC.set_halt_bit = originals["set_halt"]
        MyrinetNIC.clear_halt_bit = originals["clear_halt"]
        MyrinetNIC.corrupt_descriptor = originals["corrupt"]
        BackingStore.save = originals["save"]
        BackingStore.restore = originals["restore"]
        for op in _QUEUE_OPS:
            setattr(PacketQueue, op, originals[f"q_{op}"])
        self._originals = None
        _ACTIVE = None

    def __enter__(self) -> "BufferOwnershipMonitor":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------ patches
    def _apply_patches(self) -> None:
        originals = self._originals

        ctx_init = originals["ctx_init"]

        def patched_init(ctx_self, *args, **kwargs):
            ctx_init(ctx_self, *args, **kwargs)
            mon = _ACTIVE
            if mon is not None:
                mon._register_context(ctx_self)

        FMContext.__init__ = patched_init

        def make_queue_patch(op, original):
            def patched(queue_self, *args, **kwargs):
                mon = _ACTIVE
                if mon is None or mon._busy:
                    return original(queue_self, *args, **kwargs)
                mon._on_queue_op(queue_self, op)
                mon._busy = True
                try:
                    return original(queue_self, *args, **kwargs)
                finally:
                    mon._busy = False
            return patched

        for op in _QUEUE_OPS:
            setattr(PacketQueue, op, make_queue_patch(op, originals[f"q_{op}"]))

        set_halt = originals["set_halt"]
        clear_halt = originals["clear_halt"]

        def patched_set_halt(nic_self):
            mon = _ACTIVE
            if mon is not None:
                mon._nics[nic_self.node_id] = nic_self
                mon._on_halt_transition(nic_self.node_id, halted=True)
            return set_halt(nic_self)

        def patched_clear_halt(nic_self):
            mon = _ACTIVE
            if mon is not None:
                mon._nics[nic_self.node_id] = nic_self
                mon._on_halt_transition(nic_self.node_id, halted=False)
            return clear_halt(nic_self)

        MyrinetNIC.set_halt_bit = patched_set_halt
        MyrinetNIC.clear_halt_bit = patched_clear_halt

        corrupt = originals["corrupt"]

        def patched_corrupt(nic_self, packet):
            mon = _ACTIVE
            if mon is not None:
                mon._on_sram_corrupt(nic_self, packet)
            return corrupt(nic_self, packet)

        MyrinetNIC.corrupt_descriptor = patched_corrupt

        save = originals["save"]
        restore = originals["restore"]

        def patched_save(store_self, ctx):
            mon = _ACTIVE
            if mon is not None:
                mon.saves += 1
            return save(store_self, ctx)

        def patched_restore(store_self, ctx):
            mon = _ACTIVE
            if mon is not None:
                mon.restores += 1
            return restore(store_self, ctx)

        BackingStore.save = patched_save
        BackingStore.restore = patched_restore

    # ------------------------------------------------------------ callbacks
    def _register_context(self, ctx: FMContext) -> None:
        self._contexts.append(ctx)
        self._queue_owner[id(ctx.send_queue)] = ctx
        self._queue_owner[id(ctx.recv_queue)] = ctx
        if self._plant_at is not None and not self._probe_scheduled \
                and self._plant_kind != "halted-send":
            # halted-send triggers from the halt transition itself; the
            # two STORED-window kinds poll from a scheduled probe.
            self._probe_scheduled = True
            ctx.sim.process(self._probe(ctx.sim, self._plant_at))

    def _record(self, kind: str, ctx: FMContext, queue_name: str,
                op: str) -> None:
        self.races.append(RaceRecord(
            kind=kind, time=ctx.sim.now, node_id=ctx.node_id,
            job_id=ctx.job_id, rank=ctx.rank, queue=queue_name, op=op,
            epoch=self._epoch.get(ctx.node_id, 0)))

    def _on_queue_op(self, queue: PacketQueue, op: str) -> None:
        self.checked_ops += 1
        ctx = self._queue_owner.get(id(queue))
        if ctx is None:
            return  # queue outside any registered context (unit scaffolding)
        if ctx.state is ContextState.STORED:
            self._record("stored-access", ctx, queue.name, op)
        elif (op in _POP_OPS and isinstance(queue, SendQueue)
                and self._halted.get(ctx.node_id, False)):
            self._record("halted-send", ctx, queue.name, op)

    def _on_halt_transition(self, node_id: int, halted: bool) -> None:
        self._halted[node_id] = halted
        self._epoch[node_id] = self._epoch.get(node_id, 0) + 1
        if (halted and self._plant_at is not None and self.planted == 0
                and self._plant_kind == "halted-send"):
            self._plant_halted_send(node_id)

    def _on_sram_corrupt(self, nic: MyrinetNIC, packet) -> None:
        # Attribute the flipped descriptor to whichever registered send
        # queue currently holds the packet (identity, not equality).
        for ctx in self._contexts:
            if any(p is packet for p in ctx.send_queue._items):
                if ctx.state is ContextState.STORED:
                    self._record("sram-stored", ctx, ctx.send_queue.name,
                                 "corrupt_descriptor")
                return

    # ------------------------------------------------------------ planted probe
    def _probe(self, sim, plant_at: float):
        """Wait for ``plant_at``, then retry briefly until a STORED
        context (and, for ``sram-stored``, a seen NIC) is available and
        commit the configured out-of-window access."""
        yield plant_at
        for _ in range(200):
            stored = [c for c in self._contexts
                      if c.state is ContextState.STORED
                      and not c.send_queue.is_full]
            if stored and (self._plant_kind != "sram-stored"
                           or self._nics):
                break
            yield 0.0005
        else:
            raise SimulationError(
                "racecheck --plant: no stored context became available")
        ctx = min(stored, key=lambda c: (c.job_id, c.rank, c.node_id))
        if self._plant_kind == "sram-stored":
            self._plant_sram_stored(ctx)
        else:
            self._plant_stored_access(ctx)

    class _FrozenSignalling:
        """Suspend a queue's wake-ups while a probe mutates and undoes.

        Saves and empties the nonempty callbacks/waiters, space waiters
        and the wait observer, and restores the peak-occupancy stat —
        the planted mutation must be invisible to the firmware, to
        blocked processes, and to the stats."""

        def __init__(self, queue):
            self.queue = queue

        def __enter__(self):
            q = self.queue
            self.saved = (q._nonempty_callbacks, q._nonempty_waiters,
                          q._space_waiters, q.wait_observer,
                          q.peak_occupancy)
            q._nonempty_callbacks = []
            q._nonempty_waiters = deque()
            q._space_waiters = deque()
            q.wait_observer = None
            return self

        def __exit__(self, *exc):
            q = self.queue
            (q._nonempty_callbacks, q._nonempty_waiters,
             q._space_waiters, q.wait_observer, q.peak_occupancy) = self.saved

    def _plant_stored_access(self, ctx: FMContext) -> None:
        """Append to a STORED context's send queue, then undo.

        The append goes through the *monitored* path — exactly the
        access the ownership protocol forbids — then the packet is
        removed again so the backing fingerprint still verifies."""
        queue = ctx.send_queue
        with self._FrozenSignalling(queue):
            packet = Packet(ptype=PacketType.DATA, src_node=ctx.node_id,
                            dst_node=ctx.node_id, job_id=ctx.job_id)
            queue.append(packet)   # <-- the monitored out-of-window access
            self.planted += 1
            queue._items.pop()
            queue.total_appended -= 1

    def _plant_sram_stored(self, ctx: FMContext) -> None:
        """Corrupt a descriptor parked in a STORED context's send queue.

        The dummy packet is slipped directly into the ring (bypassing
        the monitored ``append`` — this probe must trip only the SRAM
        check), the flip goes through the monitored
        ``corrupt_descriptor`` path, then both the packet and the NIC's
        fault counter are restored."""
        nic = self._nics.get(ctx.node_id) \
            or self._nics[min(self._nics)]
        queue = ctx.send_queue
        packet = Packet(ptype=PacketType.DATA, src_node=ctx.node_id,
                        dst_node=ctx.node_id, job_id=ctx.job_id)
        queue._items.append(packet)
        try:
            nic.corrupt_descriptor(packet)   # <-- the monitored flip
            self.planted += 1
        finally:
            queue._items.pop()
            nic.sram_faults -= 1

    def _plant_halted_send(self, node_id: int) -> None:
        """Dequeue from an ACTIVE send queue inside the halt window.

        Called from the halt transition itself (the only instant the
        window is provably open).  The monitor records the forbidden
        pickup before the underlying ``try_pop`` runs; if a packet
        actually came off, it is put back with signalling suppressed."""
        active = [c for c in self._contexts
                  if c.node_id == node_id
                  and c.state is ContextState.ACTIVE]
        if not active:
            return
        ctx = min(active, key=lambda c: (c.job_id, c.rank))
        queue = ctx.send_queue
        with self._FrozenSignalling(queue):
            packet = queue.try_pop()   # <-- the monitored halted pickup
            self.planted += 1
            if packet is not None:
                queue._items.appendleft(packet)
                queue.total_removed -= 1

    # ------------------------------------------------------------ report
    def report(self) -> dict:
        return {
            "races": [r.to_dict() for r in self.races],
            "race_count": len(self.races),
            "checked_ops": self.checked_ops,
            "contexts": len(self._contexts),
            "saves": self.saves,
            "restores": self.restores,
            "halt_epochs": sum(self._epoch.values()),
            "planted": self.planted,
        }


# ---------------------------------------------------------------------- runner
def preset_point(preset: str, seed: int = 0):
    """The chaos / fail-stop smoke configurations racecheck runs under.

    The ``repro chaos --smoke`` presets: ``chaos`` exercises the full
    fault mix (drops, dups, corruption, jitter, SRAM flips, daemon
    stalls/crashes); ``failstop`` exercises node death, eviction,
    requeue and rejoin — the paths that page contexts in and out
    hardest.
    """
    from repro.faults.chaos import smoke_point

    if preset in ("chaos", "failstop"):
        return smoke_point(preset == "failstop", seed=seed)
    raise SimulationError(f"unknown racecheck preset {preset!r}")


@dataclass
class RacecheckResult:
    """One monitored run: the chaos report plus the monitor's verdict."""

    preset: str
    seed: int
    plant: bool
    monitor: dict = field(default_factory=dict)
    run: dict = field(default_factory=dict)

    @property
    def race_count(self) -> int:
        return self.monitor.get("race_count", 0)

    def to_dict(self) -> dict:
        return {"preset": self.preset, "seed": self.seed,
                "plant": self.plant, "monitor": self.monitor,
                "run": self.run}


def run_racecheck(preset: str = "chaos", seed: int = 0,
                  plant: bool = False, plant_at: float = 0.006,
                  plant_kind: str = "stored-access") -> RacecheckResult:
    """Run one preset under the ownership monitor."""
    from repro.faults.chaos import run_chaos_point

    point = preset_point(preset, seed)
    monitor = BufferOwnershipMonitor(plant_at=plant_at if plant else None,
                                     plant_kind=plant_kind)
    with monitor:
        run_report = run_chaos_point(point)
    return RacecheckResult(preset=preset, seed=seed, plant=plant,
                           monitor=monitor.report(), run=run_report)


def run_racecheck_smoke(seed: int = 0) -> dict:
    """The CI gate: clean presets stay silent, the plant is caught,
    and monitoring leaves the experiment output bit-identical.

    Returns a JSON-ready summary with an overall ``"ok"`` verdict.
    """
    from repro.faults.chaos import run_chaos_point

    checks: list = []

    clean = {}
    for preset in ("chaos", "failstop"):
        result = run_racecheck(preset=preset, seed=seed)
        clean[preset] = result
        checks.append({
            "check": f"clean-{preset}",
            "ok": result.race_count == 0,
            "races": result.race_count,
            "checked_ops": result.monitor["checked_ops"],
        })

    # Positive controls: each race class must be caught exactly once
    # when deliberately committed.
    for kind in BufferOwnershipMonitor.PLANT_KINDS:
        planted = run_racecheck(preset="chaos", seed=seed, plant=True,
                                plant_kind=kind)
        checks.append({
            "check": f"planted-{kind}",
            "ok": (planted.monitor["planted"] == 1
                   and planted.race_count == 1
                   and planted.monitor["races"][0]["kind"] == kind),
            "races": planted.race_count,
            "planted": planted.monitor["planted"],
        })

    # Bit-identity: the monitored clean chaos run must match an
    # unmonitored run of the same point byte for byte.
    bare = run_chaos_point(preset_point("chaos", seed))
    identical = (json.dumps(bare, sort_keys=True)
                 == json.dumps(clean["chaos"].run, sort_keys=True))
    checks.append({"check": "bit-identical", "ok": identical})

    return {
        "seed": seed,
        "checks": checks,
        "ok": all(c["ok"] for c in checks),
        "runs": {preset: r.to_dict() for preset, r in clean.items()},
    }
