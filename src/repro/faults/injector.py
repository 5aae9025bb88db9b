"""Deterministic fault injection.

One :class:`FaultInjector` serves a whole cluster.  It plugs into three
layers:

- **fabric** (``MyrinetFabric.fault_injector``): :meth:`on_transmit` is
  consulted once per packet and decides drop / duplicate / corrupt /
  jitter from a single named RNG stream;
- **NIC** (:meth:`sram_flip_process`): a per-node Poisson process flips a
  bit in a queued send descriptor (``MyrinetNIC.corrupt_descriptor``);
- **noded** (:meth:`daemon_disruption`): per-switch stall or
  crash-restart decisions.

Every draw comes from a named substream of one
:class:`~repro.sim.rand.RandomStreams`, and draws happen in simulation
event order, so a campaign is bit-reproducible from its seed — the
foundation of the ``-j1`` vs ``-jN`` determinism guarantee.
Every injected fault is recorded through :mod:`repro.sim.trace`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Tuple

from repro.faults.model import FaultSpec
from repro.fm.packet import Packet, PacketType
from repro.hardware.link import LinkSpec
from repro.sim.rand import RandomStreams
from repro.sim.trace import NullTracer, Tracer


class FaultInjector:
    """The cluster's single source of injected misbehaviour."""

    def __init__(self, spec: FaultSpec, rng: RandomStreams,
                 tracer: Optional[Tracer] = None,
                 link: Optional[LinkSpec] = None):
        self.spec = spec
        self.rng = rng
        self.tracer = tracer if tracer is not None else NullTracer()
        self.link = link
        self._link_rng = rng.stream("faults:link")
        self._daemon_rng = rng.stream("faults:daemon")
        self._ber_active = link is not None and link.bit_error_rate > 0.0
        # counters (the "did the faults actually happen" evidence)
        self.drops = 0
        self.dups = 0
        self.corruptions = 0
        self.jitters = 0
        self.sram_flips = 0
        self.daemon_stalls = 0
        self.daemon_crashes = 0
        #: seqs whose first wire copy was destroyed (dropped or corrupted)
        #: — the auditor excuses FIFO reordering for exactly these plus the
        #: retransmitted set.
        self.faulted_seqs: set = set()

    # ------------------------------------------------------------------ link
    def on_transmit(self, packet: Packet, src: int,
                    dst: int) -> Tuple[int, Packet, float]:
        """Per-packet fault decision for the fabric.

        Returns ``(copies, packet, extra_delay)``: 0 copies = dropped, 2 =
        duplicated; the returned packet may be a corrupted-marked clone;
        ``extra_delay`` is the jitter added to the fall-through latency.
        """
        spec = self.spec
        rng = self._link_rng
        extra = 0.0
        if spec.jitter_rate and rng.random() < spec.jitter_rate:
            extra = rng.random() * spec.jitter_max
            self.jitters += 1
            if self.tracer:
                self.tracer.record("fault-jitter", src=src, dst=dst,
                                   ptype=packet.ptype.value, delay=extra)

        ptype = packet.ptype
        if ptype is not PacketType.DATA and ptype is not PacketType.ACK:
            # Flush/refill control traffic is exempt (see faults.model).
            return 1, packet, extra

        corrupt_p = spec.corrupt_rate
        if self._ber_active:
            wire_p = self.link.corruption_probability(packet.size_bytes)
            corrupt_p = 1.0 - (1.0 - corrupt_p) * (1.0 - wire_p)
        u = rng.random()
        if u < spec.drop_rate:
            self.drops += 1
            self.faulted_seqs.add(packet.seq)
            if self.tracer:
                self.tracer.record("fault-drop", src=src, dst=dst,
                                   ptype=ptype.value, seq=packet.seq,
                                   job=packet.job_id)
            return 0, packet, extra
        u -= spec.drop_rate
        if u < spec.dup_rate:
            self.dups += 1
            if self.tracer:
                self.tracer.record("fault-dup", src=src, dst=dst,
                                   ptype=ptype.value, seq=packet.seq,
                                   job=packet.job_id)
            return 2, packet, extra
        u -= spec.dup_rate
        if u < corrupt_p:
            self.corruptions += 1
            self.faulted_seqs.add(packet.seq)
            if self.tracer:
                self.tracer.record("fault-corrupt", src=src, dst=dst,
                                   ptype=ptype.value, seq=packet.seq,
                                   job=packet.job_id)
            return 1, replace(packet, corrupted=True), extra
        return 1, packet, extra

    # ------------------------------------------------------------------ NIC
    def sram_flip_process(self, firmware):
        """Generator: Poisson SRAM bit flips on one card.

        Each flip targets a random queued send descriptor of a random
        installed context; the descriptor stays structurally valid but
        its packet goes out corrupted (fails the receiver's CRC).  Flips
        that land in unoccupied SRAM are harmless and not modelled.
        """
        rate = self.spec.sram_flip_rate
        if rate <= 0:
            return
        nic = firmware.nic
        rng = self.rng.stream(f"faults:sram:{nic.node_id}")
        while True:
            yield firmware.sim.timeout(rng.exponential(1.0 / rate))
            jobs = firmware.installed_jobs
            if not jobs:
                continue
            ctx = firmware.installed_context(
                jobs[rng.integers(len(jobs))])
            queued = ctx.send_queue.snapshot()
            if not queued:
                continue
            packet = queued[rng.integers(len(queued))]
            if packet.corrupted:
                continue  # already hit; one descriptor can't get worse
            nic.corrupt_descriptor(packet)
            self.sram_flips += 1
            self.faulted_seqs.add(packet.seq)
            if self.tracer:
                self.tracer.record("fault-sram", node=nic.node_id,
                                   job=ctx.job_id, seq=packet.seq)

    # ------------------------------------------------------------------ noded
    def daemon_disruption(self, node_id: int) -> Tuple[Optional[str], float]:
        """Per-switch daemon fault decision for one noded.

        Returns ``(kind, stall_seconds)`` where kind is ``"stall"``,
        ``"crash"`` or None.  A crash additionally costs the daemon its
        restart time (billed by the caller as CPU busy time).
        """
        spec = self.spec
        if not spec.daemon_faults:
            return None, 0.0
        u = self._daemon_rng.random()
        if u < spec.daemon_crash_rate:
            delay = self._daemon_rng.random() * spec.daemon_stall_max
            self.daemon_crashes += 1
            if self.tracer:
                self.tracer.record("fault-daemon-crash", node=node_id,
                                   stall=delay)
            return "crash", delay
        if u < spec.daemon_crash_rate + spec.daemon_stall_rate:
            delay = self._daemon_rng.random() * spec.daemon_stall_max
            self.daemon_stalls += 1
            if self.tracer:
                self.tracer.record("fault-daemon-stall", node=node_id,
                                   stall=delay)
            return "stall", delay
        return None, 0.0

    # ------------------------------------------------------------------ reporting
    def counters(self) -> dict:
        """Injected-fault totals (JSON-ready)."""
        return {
            "drops": self.drops,
            "dups": self.dups,
            "corruptions": self.corruptions,
            "jitters": self.jitters,
            "sram_flips": self.sram_flips,
            "daemon_stalls": self.daemon_stalls,
            "daemon_crashes": self.daemon_crashes,
        }
