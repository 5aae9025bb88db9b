"""Exercises Table 1 — the complete glueFM management API — in one
scripted scenario, timing the full lifecycle.

Table 1 is an API listing rather than a results table; reproducing it
means demonstrating that all eight entry points exist with the documented
split (initialisation / process control / context-switch control) and
drive a working lifecycle: node init -> topology update -> job init ->
traffic -> halt/switch/release -> job teardown.
"""

import pytest

from benchmarks.conftest import run_once
from repro.experiments.report import format_table
from repro.fm.api import FMLibrary
from repro.fm.config import FMConfig
from repro.fm.policies.static import FullBuffer
from repro.gluefm.api import GlueFM
from repro.hardware.network import MyrinetFabric
from repro.hardware.node import HostNode
from repro.sim import Simulator

API = [
    ("COMM_init_node", "initialize LANai, contexts, routing table"),
    ("COMM_add_node", "update topology"),
    ("COMM_remove_node", "update topology"),
    ("COMM_init_job", "allocate context, prepare environment variables"),
    ("COMM_end_job", "cleanup"),
    ("COMM_halt_network", "stop sending and perform global network flush"),
    ("COMM_context_switch", "swap buffers"),
    ("COMM_release_network", "synchronize and restart sending"),
]


def full_lifecycle():
    """Drive every Table 1 function; returns per-call wall (sim) times."""
    sim = Simulator()
    config = FMConfig(num_processors=2)
    fabric = MyrinetFabric(sim)
    nodes = [HostNode(sim, i) for i in range(2)]
    for node in nodes:
        fabric.register(node.nic)
    glue = [GlueFM(sim, node, fabric, config) for node in nodes]
    timings: dict[str, float] = {}

    # Initialisation group.
    for g in glue:
        g.COMM_init_node([0, 1])
    timings["COMM_init_node"] = sim.now
    for g in glue:
        g.COMM_add_node(99)
        g.COMM_remove_node(99)
    timings["COMM_add_node"] = 0.0
    timings["COMM_remove_node"] = 0.0

    rank_to_node = {0: 0, 1: 1}
    libs = {}

    def scenario(i):
        g = glue[i]
        t0 = sim.now
        ctx, env = yield from g.COMM_init_job(1, i, rank_to_node, FullBuffer())
        timings["COMM_init_job"] = sim.now - t0
        libs[i] = FMLibrary(nodes[i], g.firmware, ctx)
        ctx2, _ = yield from g.COMM_init_job(2, i, rank_to_node, FullBuffer(),
                                             install=False)
        if i == 0:
            yield from libs[i].send(1, 4000)
        t0 = sim.now
        halt = yield from g.COMM_halt_network()
        timings["COMM_halt_network"] = halt
        t0 = sim.now
        yield from g.COMM_context_switch(1, 2)
        timings["COMM_context_switch"] = sim.now - t0
        release = yield from g.COMM_release_network()
        timings["COMM_release_network"] = release
        # Switch back so job 1's context is installed for teardown, then
        # end both jobs.
        yield from g.COMM_halt_network()
        yield from g.COMM_context_switch(2, 1)
        yield from g.COMM_release_network()
        t0 = sim.now
        yield from g.COMM_end_job(1)
        yield from g.COMM_end_job(2)
        timings["COMM_end_job"] = sim.now - t0

    procs = [sim.process(scenario(i)) for i in range(2)]
    for p in procs:
        sim.run_until_processed(p, max_events=10_000_000)
    return timings


def test_table1_api(benchmark, publish):
    timings = run_once(benchmark, full_lifecycle)
    rows = [(name, desc, f"{timings.get(name, 0.0) * 1e6:.1f}")
            for name, desc in API]
    publish("table1_api", "Table 1 - glueFM API lifecycle (measured, us)\n"
            + format_table(["function", "role", "time[us]"], rows))
    # Every documented entry point ran.
    for name, _ in API:
        assert name in timings, f"{name} was never exercised"
    # The buffer switch is the expensive call, as the paper measures.
    assert timings["COMM_context_switch"] > timings["COMM_halt_network"]


def test_api_is_complete():
    """The GlueFM class exposes exactly the Table 1 surface."""
    exported = {name for name in dir(GlueFM) if name.startswith("COMM_")}
    assert exported == {name for name, _ in API}
