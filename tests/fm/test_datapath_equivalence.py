"""Event-level pins for the firmware arms no end-to-end golden covers.

Each test runs a small fixed two-node job and digests what a change to
the per-packet data path must not move: ``sim.processed_events``, the
final ``sim.now`` and the per-delivery ``(now, seq, node)`` stream.

The expected digests were recorded before the DATA receive path lost
its per-packet sub-generator; a refactor that keeps every simulated
event keeps every digest.
"""

import hashlib

from repro.alternatives.coscheduling import DemandScheduler
from repro.alternatives.pm_nack import PMNetwork
from repro.faults.injector import FaultInjector
from repro.faults.model import FaultSpec
from repro.faults.retransmit import ReliableFirmware
from repro.fm.config import FMConfig
from repro.fm.harness import FMNetwork
from repro.fm.policies.static import FullBuffer, StaticPartition
from repro.sim import Simulator
from repro.sim.rand import RandomStreams
from repro.sim.trace import Tracer

#: message sizes cycled by each sender: single- and multi-fragment
SIZES = (96, 1536, 6144, 200)


class Recorder:
    """Taps every firmware's delivery hook; digests the run."""

    def __init__(self, sim, firmwares):
        self.sim = sim
        self.deliveries = []
        for fw in firmwares:
            fw.data_delivery_hooks.append(self._make_hook(fw.nic.node_id))

    def _make_hook(self, node):
        def hook(ctx, packet):
            # Seqs counted from 1: the digests were recorded when seqs
            # were taken relative to a probe packet built before the run.
            self.deliveries.append(
                (self.sim.now.hex(), packet.seq + 1, node))
        return hook

    def digest(self):
        blob = repr((self.sim.processed_events, self.sim.now.hex(),
                     self.deliveries))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def exchange(sim, endpoints, count, both_ways=True):
    """Rank 0 (and rank 1 too, ``both_ways``) sends ``count`` messages
    to its peer, which extracts them."""
    procs = []
    for ep in endpoints[:2 if both_ways else 1]:
        sender, receiver = ep.library, endpoints[1 - ep.rank].library

        def tx(lib=sender, peer=1 - ep.rank):
            for i in range(count):
                yield from lib.send(peer, SIZES[i % len(SIZES)])

        def rx(lib=receiver):
            yield from lib.extract_messages(count)

        sim.process(tx(), name=f"app-tx-{ep.rank}")
        procs.append(sim.process(rx(), name=f"app-rx-{1 - ep.rank}"))
    sim.run_until_processed(sim.all_of(procs), max_events=5_000_000)
    sim.run()  # settle timers and trailing control packets


def test_base_firmware():
    # A 24-credit window: refills both piggyback and go out explicitly.
    sim = Simulator()
    net = FMNetwork(sim, num_nodes=2,
                    config=FMConfig(num_processors=2, recv_queue_packets=48),
                    strict_no_loss=True)
    rec = Recorder(sim, net.firmwares.values())
    exchange(sim, net.create_job(1, [0, 1], FullBuffer()), 40)
    assert len(rec.deliveries) == 140
    assert rec.digest() == "3b504b54cad16566"


def test_base_firmware_traced():
    sim = Simulator()
    tracer = Tracer(clock=lambda: sim.now)
    # An 8-credit window: explicit refills, and the sender stalls.
    net = FMNetwork(sim, num_nodes=2,
                    config=FMConfig(num_processors=2, recv_queue_packets=16),
                    tracer=tracer, strict_no_loss=True)
    rec = Recorder(sim, net.firmwares.values())
    # One way: the receiver sends explicit refills and the sender stalls.
    exchange(sim, net.create_job(1, [0, 1], FullBuffer()), 40,
             both_ways=False)
    kinds = sorted({r.kind for r in tracer})
    counts = [len(tracer.of_kind(k)) for k in kinds]
    assert (kinds, counts) == TRACED_KINDS
    assert rec.digest() == "12894937fb47069f"


TRACED_KINDS = (
    ["ctx-install", "msg-recv", "msg-send", "msg-start", "pkt-deliver",
     "pkt-enq", "pkt-tx", "stall"],
    [2, 40, 40, 40, 70, 70, 87, 14],
)


def test_reliable_firmware_under_drop_and_dup():
    sim = Simulator()
    net = FMNetwork(sim, num_nodes=2, config=FMConfig(num_processors=2),
                    firmware_class=ReliableFirmware)
    injector = FaultInjector(FaultSpec(drop_rate=0.05, dup_rate=0.05),
                             RandomStreams(7))
    net.fabric.fault_injector = injector
    rec = Recorder(sim, net.firmwares.values())
    exchange(sim, net.create_job(1, [0, 1], FullBuffer()), 40)
    assert injector.drops and injector.dups
    assert sum(fw.dup_discards for fw in net.firmwares.values())
    assert rec.digest() == "fda110ae560c5cb3"


def test_pm_firmware_with_nacks():
    # A 12-packet receive queue under a burst well past it: NACKs fire.
    sim = Simulator()
    net = PMNetwork(sim, num_nodes=2,
                    config=FMConfig(num_processors=2, recv_queue_packets=12,
                                    send_queue_packets=64))
    rec = Recorder(sim, net.firmwares.values())
    a, b = net.create_job(1, [0, 1], FullBuffer())

    def tx():
        for _ in range(60):
            yield from a.library.send(1, 1400)

    def rx():
        yield sim.timeout(0.002)
        yield from b.library.extract_messages(60)

    sim.process(tx(), name="app-tx")
    done = sim.process(rx(), name="app-rx")
    sim.run_until_processed(done, max_events=5_000_000)
    sim.run(until=sim.now + 0.01)
    assert a.firmware.nacks_received
    assert a.firmware.outstanding == 0
    assert rec.digest() == "802b7a28823318fc"


def test_demand_scheduler_delivery_hook():
    # Two ping-pong jobs time-shared on two nodes under anti-phased
    # demand schedulers, which preempt on data delivery.
    sim = Simulator()
    net = FMNetwork(sim, num_nodes=2,
                    config=FMConfig(max_contexts=2, num_processors=2))
    jobs = {jid: net.create_job(jid, [0, 1], StaticPartition())
            for jid in (1, 2)}
    schedulers = []
    for node_id in range(2):
        sched = DemandScheduler(sim, quantum=0.004, phase=node_id * 0.002,
                                wakeup_delay=100e-6)
        sched.attach(net.firmware(node_id))
        schedulers.append(sched)
    rec = Recorder(sim, net.firmwares.values())

    def player(ep, starts):
        lib = ep.library
        peer = 1 - ep.rank
        while True:
            if starts:
                yield from lib.send(peer, 1000)
                yield from lib.extract_messages(1)
            else:
                yield from lib.extract_messages(1)
                yield from lib.send(peer, 1000)

    for jid, eps in jobs.items():
        for ep in eps:
            proc = sim.process(player(ep, starts=(ep.rank == 0)),
                               name=f"app-pp-{jid}-{ep.rank}")
            schedulers[ep.node_id].register(jid, proc)
    sim.run(until=0.03, max_events=5_000_000)
    assert sum(s.demand_wakeups for s in schedulers)
    assert rec.digest() == "1aeeba868f87658b"
