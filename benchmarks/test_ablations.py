"""Ablation benchmarks: the paper's design choices vs Section 5's
alternatives.

1. **Flush vs no-flush (SHARE)** — switching without the flush protocol
   drops in-flight packets; under FM's credit flow control each drop is
   a permanently leaked credit.  The flushed design loses nothing.
2. **Credits vs ack/nack (PM/SCore-D)** — PM's flush is broadcast-free
   and stays flat in the cluster size, but its transport pays per-packet
   ack processing; FM's credit scheme has cheaper steady-state sends and
   a flush whose cost grows with the node count.
3. **Gang vs dynamic coscheduling** — message-triggered wakeups recover
   much of what uncoordinated local time-slicing loses on ping-pong
   traffic, at the price of per-message preemptions; gang scheduling
   avoids the pathology by construction.
"""

from benchmarks.conftest import run_once
from repro.experiments.report import format_table


def run_share_vs_flushed():
    from tests.alternatives.test_share import run_switching
    from repro.alternatives.share import ShareNodeDaemon

    rows = []
    for label, noded_class, strict in (("flushed (paper)", None, True),
                                       ("share (no flush)", ShareNodeDaemon, False)):
        cluster = run_switching(noded_class, strict, num_switches=8, nodes=8)
        drops = cluster.total_dropped()
        switches = len(cluster.recorder.with_outgoing_job())
        rows.append((label, switches, drops,
                     f"{drops / max(switches, 1):.1f}"))
    return rows


def test_share_ablation(benchmark, publish):
    rows = run_once(benchmark, run_share_vs_flushed)
    publish("ablation_share",
            "Ablation 1 - flush protocol vs SHARE-style unflushed switching "
            "(8 nodes, all-to-all)\n"
            + format_table(["scheme", "switches", "dropped pkts", "drops/switch"],
                           rows))
    flushed, share = rows
    assert flushed[2] == 0
    assert share[2] > 0


def run_pm_flush_scaling():
    """PM's local drain vs the halt-broadcast flush across cluster sizes."""
    from repro.alternatives.pm_nack import PMNetwork
    from repro.fm.config import FMConfig
    from repro.fm.policies.static import FullBuffer
    from repro.sim import Simulator
    from tests.gluefm.conftest import GlueRig

    rows = []
    for nodes in (2, 4, 8, 16):
        # Halt-broadcast flush (idle network: pure protocol cost).
        rig = GlueRig(nodes)
        durations = rig.run_all(lambda g: (yield from g.COMM_halt_network()))
        halt_flush = max(durations)

        # PM drain with a comparable in-flight window (one packet out).
        sim = Simulator()
        pm = PMNetwork(sim, nodes, FMConfig(num_processors=nodes))
        eps = pm.create_job(1, list(range(nodes)), FullBuffer())
        results = {}

        def scenario(ep=eps[0]):
            yield from ep.library.send(1, 1400)
            # Wait for the LANai to actually inject the packet so the
            # drain measures a real outstanding window.
            while ep.firmware.outstanding == 0 and ep.firmware.acks_received == 0:
                yield sim.timeout(1e-6)
            results["drain"] = yield from pm.pm_flush(ep.context.node_id)

        proc = sim.process(scenario())
        sim.run_until_processed(proc, max_events=1_000_000)
        rows.append((nodes, f"{halt_flush * 1e6:.1f}",
                     f"{results['drain'] * 1e6:.1f}"))
    return rows


def test_pm_flush_ablation(benchmark, publish):
    rows = run_once(benchmark, run_pm_flush_scaling)
    publish("ablation_pm_flush",
            "Ablation 2 - network flush cost [us]: halt broadcast (FM+glueFM) "
            "vs local ack drain (PM)\n"
            + format_table(["nodes", "halt-broadcast[us]", "pm-drain[us]"], rows))
    halt = [float(r[1]) for r in rows]
    drain = [float(r[2]) for r in rows]
    # The broadcast flush grows with the cluster; PM's drain does not.
    assert halt[-1] > 1.5 * halt[0]
    assert drain[-1] < 3 * drain[0] + 50


def run_pm_vs_fm_bandwidth():
    from repro.alternatives.pm_nack import PMNetwork
    from repro.fm.config import FMConfig
    from repro.fm.harness import FMNetwork
    from repro.fm.policies.static import FullBuffer
    from repro.sim import Simulator
    from repro.units import mb_per_second

    def measure(make_net):
        sim = Simulator()
        net = make_net(sim)
        a, b = net.create_job(1, [0, 1], FullBuffer())
        count, nbytes = 400, 16384
        start = {}

        def tx():
            start["t"] = sim.now
            for _ in range(count):
                yield from a.library.send(1, nbytes)

        def rx():
            yield from b.library.extract_messages(count)

        sim.process(tx())
        done = sim.process(rx())
        sim.run_until_processed(done, max_events=100_000_000)
        return mb_per_second(count * nbytes, sim.now - start["t"])

    config = FMConfig(num_processors=2)
    fm = measure(lambda sim: FMNetwork(sim, 2, config=config))
    pm = measure(lambda sim: PMNetwork(sim, 2, config=config))
    return [("FM credits", f"{fm:.1f}"), ("PM ack/nack", f"{pm:.1f}")], fm, pm


def test_pm_bandwidth_ablation(benchmark, publish):
    rows, fm, pm = run_once(benchmark, run_pm_vs_fm_bandwidth)
    publish("ablation_pm_bandwidth",
            "Ablation 2b - p2p bandwidth [MB/s], 16 KB messages\n"
            + format_table(["transport", "MB/s"], rows))
    # Both transports sustain PIO-ceiling-class bandwidth on p2p; the ack
    # stream costs the receiving LANai extra work but does not halve it.
    assert pm > 0.7 * fm


def run_coscheduling():
    from repro.alternatives.coscheduling import DemandScheduler, LocalRoundRobin
    from tests.alternatives.test_coscheduling import pingpong_throughput

    blind, _ = pingpong_throughput(LocalRoundRobin)
    demand, scheds = pingpong_throughput(DemandScheduler)
    wakeups = sum(s.demand_wakeups for s in scheds)
    return [("uncoordinated RR", blind, "-"),
            ("dynamic coscheduling", demand, wakeups)], blind, demand


def test_coscheduling_ablation(benchmark, publish):
    rows, blind, demand = run_once(benchmark, run_coscheduling)
    publish("ablation_coscheduling",
            "Ablation 3 - ping-pong round trips in 80 ms, two time-shared jobs\n"
            + format_table(["scheduler", "round trips", "demand wakeups"], rows))
    assert demand > 1.25 * blind
