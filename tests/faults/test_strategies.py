"""Pluggable reliability strategies: recovery, protocol safety, wiring.

Every strategy rides the same two-node FM rig as the retransmit tests
(deterministic scripted faults, no RNG), plus end-to-end fail-stop
campaigns through the chaos layer.  The PM reconciliation test at the
bottom pins the layering claim in :mod:`repro.alternatives.pm_nack`:
over a lossless link, the PM transport and FM-plus-NackSelective
deliver identical payload sequences while the strategy's NACK machinery
stays completely idle.
"""

from dataclasses import replace

import pytest

from repro.errors import ConfigError
from repro.faults.retransmit import ReliableFirmware, RetransmitPolicy
from repro.faults.strategies import (DEFAULT_STRATEGY, STRATEGIES,
                                     STRATEGY_NAMES, AdaptiveBackoff,
                                     CumulativeAck, NackSelective,
                                     PerPacketAck, make_strategy)
from repro.fm.config import FMConfig
from repro.fm.harness import FMNetwork
from repro.fm.packet import PacketType
from repro.fm.policies.static import FullBuffer
from repro.sim import Simulator
from tests.helpers import audit_credit_leaks
from tests.faults.test_retransmit import DropAllData, ScriptedInjector


@pytest.fixture
def sim():
    return Simulator()


def rig(sim, strategy=None, policy=None, injector=None):
    kwargs = {}
    if policy is not None:
        kwargs["retransmit"] = policy
    if strategy is not None:
        kwargs["strategy"] = strategy
    net = FMNetwork(sim, num_nodes=2, config=FMConfig(num_processors=2),
                    strict_no_loss=True,
                    firmware_class=ReliableFirmware,
                    firmware_kwargs=kwargs or None)
    net.fabric.fault_injector = injector
    sender, receiver = net.create_job(1, [0, 1], FullBuffer())
    return net, sender, receiver


def exchange(sim, sender, receiver, count=1, nbytes=200):
    def tx():
        for _ in range(count):
            yield from sender.library.send(1, nbytes)

    def rx():
        yield from receiver.library.extract_messages(count)

    sim.process(tx())
    done = sim.process(rx())
    sim.run_until_processed(done, max_events=10_000_000)
    sim.run()  # settle outstanding ack/nack timers


# ===================================================================== registry
class TestRegistry:
    def test_names_and_classes(self):
        assert STRATEGY_NAMES == ("per-packet", "cumulative", "nack",
                                  "adaptive")
        assert STRATEGIES["per-packet"] is PerPacketAck
        assert STRATEGIES["cumulative"] is CumulativeAck
        assert STRATEGIES["nack"] is NackSelective
        assert STRATEGIES["adaptive"] is AdaptiveBackoff
        assert DEFAULT_STRATEGY == "per-packet"

    def test_make_strategy_unknown_name(self):
        with pytest.raises(ConfigError, match="unknown reliability strategy"):
            make_strategy("quantum-ack", RetransmitPolicy())

    def test_cli_choices_mirror_registry(self):
        from repro.cli import STRATEGY_CHOICES
        assert STRATEGY_CHOICES == STRATEGY_NAMES

    def test_default_firmware_runs_per_packet(self, sim):
        net, _, _ = rig(sim)
        assert net.firmware(0).strategy.name == DEFAULT_STRATEGY


# ================================================================ config wiring
class TestConfigWiring:
    def test_fm_config_rejects_non_string(self):
        with pytest.raises(ConfigError, match="strategy name string"):
            FMConfig(reliability_strategy=7)

    def test_cluster_resolution_order(self):
        from repro.parpar.cluster import ClusterConfig
        assert ClusterConfig().resolved_strategy() == DEFAULT_STRATEGY
        fm = FMConfig(reliability_strategy="cumulative")
        assert ClusterConfig(fm=fm).resolved_strategy() == "cumulative"
        # The cluster-level name wins over the FM-level one.
        assert ClusterConfig(fm=fm, reliability_strategy="nack") \
            .resolved_strategy() == "nack"

    def test_cluster_rejects_unknown_name(self):
        from repro.parpar.cluster import ClusterConfig
        with pytest.raises(ConfigError, match="unknown reliability strategy"):
            ClusterConfig(reliability_strategy="nope").resolved_strategy()

    def test_firmware_accepts_name_and_instance(self, sim):
        net, _, _ = rig(sim, strategy="adaptive")
        assert isinstance(net.firmware(0).strategy, AdaptiveBackoff)
        net2 = FMNetwork(Simulator(), num_nodes=1,
                         config=FMConfig(num_processors=1),
                         firmware_class=ReliableFirmware,
                         firmware_kwargs={
                             "strategy": CumulativeAck(RetransmitPolicy())})
        assert isinstance(net2.firmware(0).strategy, CumulativeAck)


# ====================================================== recovery, every strategy
@pytest.mark.parametrize("name", STRATEGY_NAMES)
class TestEveryStrategyRecovers:
    """The protocol-safety floor no strategy may sink below."""

    def test_clean_path(self, sim, name):
        net, sender, receiver = rig(sim, strategy=name)
        exchange(sim, sender, receiver, count=6)
        fw0, fw1 = net.firmware(0), net.firmware(1)
        assert fw0.retransmits == 0
        assert fw0.outstanding == 0
        assert fw1.nacks_sent == 0
        assert receiver.library.messages_received == 6
        assert audit_credit_leaks(
            {0: sender.context, 1: receiver.context}) == {}

    def test_dropped_data_recovered(self, sim, name):
        net, sender, receiver = rig(sim, strategy=name,
                                    injector=ScriptedInjector(["drop"]))
        exchange(sim, sender, receiver, count=4)
        fw0 = net.firmware(0)
        assert fw0.retransmits >= 1
        assert fw0.outstanding == 0
        assert fw0.permanent_losses == 0
        assert receiver.library.messages_received == 4
        assert audit_credit_leaks(
            {0: sender.context, 1: receiver.context}) == {}

    def test_duplicate_delivered_once(self, sim, name):
        net, sender, receiver = rig(sim, strategy=name,
                                    injector=ScriptedInjector(["dup"]))
        exchange(sim, sender, receiver, count=4)
        fw1 = net.firmware(1)
        assert fw1.dup_discards == 1
        assert receiver.library.messages_received == 4
        assert net.firmware(0).outstanding == 0
        assert audit_credit_leaks(
            {0: sender.context, 1: receiver.context}) == {}

    def test_corrupt_discarded_then_recovered(self, sim, name):
        net, sender, receiver = rig(sim, strategy=name,
                                    injector=ScriptedInjector(["corrupt"]))
        exchange(sim, sender, receiver, count=4)
        fw0, fw1 = net.firmware(0), net.firmware(1)
        assert fw1.corrupt_discards == 1
        assert fw0.retransmits >= 1
        assert fw0.outstanding == 0
        assert receiver.library.messages_received == 4
        assert audit_credit_leaks(
            {0: sender.context, 1: receiver.context}) == {}

    def test_no_timers_leak_at_quiescence(self, sim, name):
        net, sender, receiver = rig(
            sim, strategy=name,
            injector=ScriptedInjector(["drop", None, "corrupt"]))
        exchange(sim, sender, receiver, count=5)
        assert net.firmware(0).active_timers() == 0
        assert net.firmware(1).active_timers() == 0


# ================================================================== cumulative
class TestCumulativeAck:
    def test_acks_coalesce(self, sim):
        """One frontier ack covers a batch — far fewer acks than packets."""
        net, sender, receiver = rig(sim, strategy="cumulative")
        exchange(sim, sender, receiver, count=12)
        fw0, fw1 = net.firmware(0), net.firmware(1)
        assert receiver.library.messages_received == 12
        assert fw0.outstanding == 0
        assert fw1.acks_sent < 12            # per-packet would send 12
        stats = fw1.strategy_stats()
        assert stats["cum_acks"] + stats["delayed_acks"] == fw1.acks_sent
        assert stats["cum_acks"] >= 1

    def test_delayed_ack_timer_flushes_stragglers(self, sim):
        """A lone message below the batch threshold still gets acked —
        by the max-ack-delay timer, not a data-triggered batch ack."""
        net, sender, receiver = rig(sim, strategy="cumulative")
        exchange(sim, sender, receiver, count=1)
        fw0, fw1 = net.firmware(0), net.firmware(1)
        assert fw0.outstanding == 0
        stats = fw1.strategy_stats()
        assert stats["delayed_acks"] >= 1
        assert stats["cum_acks"] == 0

    def test_duplicate_restates_frontier(self, sim):
        """A dup means the ack was lost or throttled: the receiver must
        re-emit the frontier so the sender's timer settles."""
        net, sender, receiver = rig(sim, strategy="cumulative",
                                    injector=ScriptedInjector([], ack_drops=1))
        exchange(sim, sender, receiver, count=5)
        fw0, fw1 = net.firmware(0), net.firmware(1)
        assert fw0.outstanding == 0
        assert receiver.library.messages_received == 5

    def test_validation(self):
        policy = RetransmitPolicy()
        with pytest.raises(ConfigError, match="ack_every_n"):
            CumulativeAck(policy, ack_every_n=0)
        with pytest.raises(ConfigError, match="max_ack_delay"):
            CumulativeAck(policy, max_ack_delay=0.0)
        with pytest.raises(ConfigError, match="below the"):
            CumulativeAck(policy, max_ack_delay=policy.timeout)


# ======================================================================== nack
class TestNackSelective:
    def test_gap_triggers_fast_retransmit(self, sim):
        """A hole in the rel_seq space is NACKed as soon as a later
        packet exposes it; the sender resends without waiting out the
        stretched safety timeout."""
        net, sender, receiver = rig(sim, strategy="nack",
                                    injector=ScriptedInjector(["drop"]))
        exchange(sim, sender, receiver, count=4)
        fw0, fw1 = net.firmware(0), net.firmware(1)
        assert fw1.nacks_sent >= 1
        assert fw0.nacks_received >= 1
        assert fw0.retransmits >= 1
        assert fw0.outstanding == 0
        assert receiver.library.messages_received == 4
        stats = fw0.strategy_stats()
        assert stats["nack_retransmits"] >= 1

    def test_nacks_debounced_per_gap(self, sim):
        """A burst of arrivals above the same hole NACKs it once, not
        once per packet (the arrivals land well inside the debounce)."""
        net, sender, receiver = rig(sim, strategy="nack",
                                    injector=ScriptedInjector(["drop"]))
        exchange(sim, sender, receiver, count=6)
        fw1 = net.firmware(1)
        assert fw1.strategy_stats()["nacks_emitted"] == 1

    def test_tail_loss_recovered_by_safety_timer(self, sim):
        """The last packet of a burst has nothing behind it to expose
        the gap — only the stretched timer can recover it."""
        net, sender, receiver = rig(
            sim, strategy="nack",
            injector=ScriptedInjector([None, None, "drop"]))
        exchange(sim, sender, receiver, count=3)
        fw0, fw1 = net.firmware(0), net.firmware(1)
        assert fw1.strategy_stats()["nacks_emitted"] == 0
        assert fw0.retransmits == 1     # timer-driven, not NACK-driven
        assert fw0.outstanding == 0
        assert receiver.library.messages_received == 3

    def test_validation(self):
        policy = RetransmitPolicy()
        with pytest.raises(ConfigError, match="nack_debounce"):
            NackSelective(policy, nack_debounce=-1.0)
        with pytest.raises(ConfigError, match="stall_factor"):
            NackSelective(policy, stall_factor=0.5)


# ==================================================================== adaptive
class TestAdaptiveBackoff:
    def test_rtt_sampling_on_clean_link(self, sim):
        net, sender, receiver = rig(sim, strategy="adaptive")
        exchange(sim, sender, receiver, count=8)
        strat = net.firmware(0).strategy
        assert strat.rtt_samples == 8
        assert strat.srtt > 0.0
        assert strat.floor <= strat.current_base() <= strat.ceiling

    def test_karn_rule_excludes_retransmitted_samples(self, sim):
        """The dropped packet's eventual ack is ambiguous (attempts=2)
        and must not contribute an RTT sample."""
        net, sender, receiver = rig(sim, strategy="adaptive",
                                    injector=ScriptedInjector(["drop"]))
        exchange(sim, sender, receiver, count=1)
        strat = net.firmware(0).strategy
        assert strat.rtt_samples == 0
        assert net.firmware(0).retransmits == 1
        assert receiver.library.messages_received == 1

    def test_dead_peer_degrades_to_ceiling(self, sim):
        policy = RetransmitPolicy(timeout=100e-6, backoff=1.0,
                                  max_timeout=400e-6, max_retries=2)
        net, sender, receiver = rig(sim, strategy="adaptive", policy=policy,
                                    injector=DropAllData())

        def tx():
            yield from sender.library.send(1, 200)
            yield from sender.library.send(1, 200)

        sim.process(tx())
        sim.run()
        fw0 = net.firmware(0)
        strat = fw0.strategy
        assert fw0.permanent_losses == 2
        assert strat.stats()["suspected_peers"] == 1
        # The peer now looks dead: a fresh send skips the backoff ladder
        # and waits the full ceiling straight away.
        def tx2():
            yield from sender.library.send(1, 200)

        sim.process(tx2())
        sim.run()
        assert strat.stats()["degraded_sends"] >= 1

    def test_controller_math(self):
        strat = AdaptiveBackoff(RetransmitPolicy(timeout=2e-3))
        assert strat.current_base() == 2e-3       # no samples: policy base
        strat._observe(1e-3)
        assert strat.srtt == 1e-3
        assert strat.rttvar == 0.5e-3
        strat._observe(2e-3)
        assert strat.srtt == pytest.approx(0.875e-3 + 0.125 * 2e-3)
        assert strat.rtt_samples == 2
        # base = srtt + 4*rttvar, clamped into [floor, ceiling]
        assert strat.floor <= strat.current_base() <= strat.ceiling

    def test_clamps(self):
        policy = RetransmitPolicy(timeout=2e-3, max_timeout=10e-3)
        strat = AdaptiveBackoff(policy)
        strat._observe(1e-9)                       # absurdly fast ack
        assert strat.current_base() == strat.floor
        strat2 = AdaptiveBackoff(policy)
        strat2._observe(1.0)                       # absurdly slow ack
        assert strat2.current_base() == strat2.ceiling == policy.max_timeout

    def test_floor_div_validation(self):
        with pytest.raises(ConfigError, match="floor_div"):
            AdaptiveBackoff(RetransmitPolicy(), floor_div=0.5)


# ================================================================ timer service
class TestTimerService:
    def test_cancel_prevents_hook(self, sim):
        net, _, _ = rig(sim)
        fw = net.firmware(0)
        fired = []
        fw.strategy.on_timer = lambda tag: fired.append(tag)
        fw.start_timer(("t", 1), 1e-3)
        assert fw.active_timers() == 1
        fw.cancel_timer(("t", 1))
        assert fw.active_timers() == 0
        sim.run()
        assert fired == []

    def test_rearm_stales_previous_epoch(self, sim):
        net, _, _ = rig(sim)
        fw = net.firmware(0)
        fired = []
        fw.strategy.on_timer = lambda tag: fired.append((tag, sim.now))
        fw.start_timer(("t", 1), 1e-3)
        fw.start_timer(("t", 1), 5e-3)   # re-arm: the 1 ms wakeup is stale
        sim.run()
        assert len(fired) == 1
        assert fired[0][1] == pytest.approx(5e-3)
        assert fw.active_timers() == 0

    def test_power_off_kills_timers_and_strategy_state(self, sim):
        net, sender, receiver = rig(sim, strategy="adaptive",
                                    injector=DropAllData())

        def tx():
            yield from sender.library.send(1, 200)

        sim.process(tx())
        sim.run(until=1e-3)      # the packet is out, its timer armed
        fw = net.firmware(0)
        assert fw.active_timers() >= 1
        fw.power_off()
        assert fw.active_timers() == 0
        assert fw.outstanding == 0
        assert fw.strategy.rtt_samples == 0
        sim.run()                # stale wakeups fire and no-op
        assert fw.active_timers() == 0


# ============================================================== zombie purge
class TestZombiePurge:
    """A retransmit clone whose ack lands while the clone still sits in
    the send queue becomes a *zombie* once the job ends: nothing will
    ever drain the dead context's queue, and the clone double-counts its
    committed credit and piggyback refill against the conservation
    audit.  ``forget_job`` must sweep exactly these."""

    def _zombie(self, job_id=1):
        from repro.fm.packet import Packet
        # rel_seq >= 0 marks a clone (stamped at first transmission);
        # its seq is not outstanding, i.e. the original was acked.
        return Packet(PacketType.DATA, src_node=0, dst_node=1,
                      job_id=job_id, src_rank=0, dst_rank=1,
                      payload_bytes=64, msg_id=9000, frag_index=0,
                      frag_count=1, rel_seq=0, piggyback_refill=1)

    def test_forget_job_sweeps_released_clones(self, sim):
        net, sender, receiver = rig(sim, strategy="cumulative")
        exchange(sim, sender, receiver, count=2)
        fw0 = net.firmware(0)
        ctx = sender.context
        ctx.send_queue.append(self._zombie())
        assert ctx.send_queue.valid_packets == 1
        fw0.forget_job(1)
        assert fw0.zombies_purged == 1
        assert ctx.send_queue.valid_packets == 0

    def test_untransmitted_original_survives_the_sweep(self, sim):
        from dataclasses import replace
        net, sender, receiver = rig(sim)
        exchange(sim, sender, receiver, count=1)
        fw0 = net.firmware(0)
        ctx = sender.context
        # An original awaiting first transmission carries rel_seq == -1;
        # the sweep must not touch it (it holds a real credit).
        ctx.send_queue.append(replace(self._zombie(), rel_seq=-1))
        ctx.send_queue.append(self._zombie())
        fw0.forget_job(1)
        assert fw0.zombies_purged == 1
        [kept] = ctx.send_queue.snapshot()
        assert kept.rel_seq == -1


# ======================================================== PM reconciliation
class TestPMReconciliation:
    """Satellite check for :mod:`repro.alternatives.pm_nack`: PM is a
    *transport* (NACK = back-pressure), NackSelective is a *fault layer*
    (NACK = loss signal).  On a lossless link both must deliver the
    identical payload sequence — and the strategy's NACK path must be
    provably idle while PM acks every single packet."""

    SIZES = (200, 5000, 1536, 3000, 1, 2048)

    @staticmethod
    def _normalize(seq):
        """msg_id is a process-global counter, so absolute ids differ
        between the two rigs: rebase them to dense per-run indices."""
        ids = {}
        return [(src, nbytes, ids.setdefault(mid, len(ids)))
                for src, nbytes, mid in seq]

    def _pm_sequence(self):
        from repro.alternatives.pm_nack import PMNetwork

        sim = Simulator()
        net = PMNetwork(sim, num_nodes=2, config=FMConfig(num_processors=2))
        sender, receiver = net.create_job(1, [0, 1])
        got = []

        def tx():
            for nbytes in self.SIZES:
                yield from sender.library.send(1, nbytes)

        def rx():
            while len(got) < len(self.SIZES):
                msg = yield from receiver.library.extract()
                if msg is not None:
                    got.append((msg.src_rank, msg.nbytes, msg.msg_id))

        sim.process(tx())
        done = sim.process(rx())
        sim.run_until_processed(done, max_events=10_000_000)
        sim.run()
        total_data = sum(FMConfig(num_processors=2).packets_for(n)
                         for n in self.SIZES)
        assert sender.firmware.acks_received == total_data  # PM acks all
        assert sender.firmware.outstanding == 0
        return got

    def _fm_nack_sequence(self):
        sim = Simulator()
        net, sender, receiver = rig(sim, strategy="nack")
        messages = {}

        def tx():
            for nbytes in self.SIZES:
                yield from sender.library.send(1, nbytes)

        def rx():
            messages["got"] = yield from receiver.library.extract_messages(
                len(self.SIZES))

        sim.process(tx())
        done = sim.process(rx())
        sim.run_until_processed(done, max_events=10_000_000)
        sim.run()
        fw0, fw1 = net.firmware(0), net.firmware(1)
        assert fw1.nacks_sent == 0                  # lossless: never fires
        assert fw1.strategy_stats()["nacks_emitted"] == 0
        assert fw0.retransmits == 0
        assert fw0.outstanding == 0
        return [(m.src_rank, m.nbytes, m.msg_id) for m in messages["got"]]

    def test_lossless_link_identical_payload_sequences(self):
        assert self._normalize(self._pm_sequence()) \
            == self._normalize(self._fm_nack_sequence())


# ============================================================ fail-stop chaos
@pytest.mark.parametrize("name", STRATEGY_NAMES)
class TestStrategyFailStop:
    """Satellite: every strategy survives a fail-stop kill/requeue with
    the auditor green and no orphaned timers on the dead card."""

    def test_failstop_requeue_audits_green(self, name):
        from repro.faults.chaos import ChaosPoint, run_chaos_point

        result = run_chaos_point(ChaosPoint(
            seed=1, nodes=4, time_slots=2, jobs=2, quantum=0.004,
            rounds=600, message_bytes=1024, failstops=1, requeue=True,
            strategy=name))
        assert result["error"] is None
        assert result["audit"]["ok"], result["audit"]
        assert result["recovery"]["evictions"] == 1

    def test_dead_card_holds_no_timers(self, name):
        from repro.faults.model import FailStop, FaultSpec
        from repro.parpar.cluster import ClusterConfig, ParParCluster
        from repro.parpar.job import JobSpec
        from repro.workloads.alltoall import alltoall_benchmark

        config = ClusterConfig(
            num_nodes=4, time_slots=2, quantum=0.004, seed=2,
            faults=FaultSpec(drop_rate=0.01,
                             failstop=(FailStop(3, 0.012, None),)),
            retransmit=RetransmitPolicy(),
            reliability_strategy=name,
        )
        cluster = ParParCluster(config)
        workload = alltoall_benchmark(rounds=200, message_bytes=512)
        jobs = [cluster.submit(JobSpec(f"fs{i}", 2, workload,
                                       on_failure="requeue"))
                for i in range(2)]
        cluster.run_until_finished(jobs)
        cluster.masterd.pause_rotation()
        cluster.run_for(0.4)
        dead = cluster.glue[3].firmware
        assert dead._dead
        assert dead.active_timers() == 0
        assert dead.outstanding == 0
        assert dead.parked_count() == 0
