"""Reliability-layer tests: ack/retransmit recovery over a lossy fabric.

Each test drives a two-node FM rig whose firmware is
:class:`ReliableFirmware` and scripts the fabric's fault decisions with a
deterministic stand-in injector — no RNG, so every scenario is exact.
"""

from dataclasses import replace

import pytest

from repro.faults.retransmit import ReliableFirmware, RetransmitPolicy
from repro.fm.config import FMConfig
from repro.fm.harness import FMNetwork
from repro.fm.packet import PacketType
from repro.fm.policies.static import FullBuffer
from repro.sim import Simulator
from tests.helpers import audit_credit_leaks


class ScriptedInjector:
    """Applies a fixed action script to successive DATA packets."""

    def __init__(self, actions, ack_drops=0):
        self.actions = list(actions)   # "drop" | "dup" | "corrupt" | None
        self.ack_drops = ack_drops
        self.log = []

    def on_transmit(self, packet, src, dst):
        if packet.ptype is PacketType.ACK and self.ack_drops:
            self.ack_drops -= 1
            self.log.append(("ack-drop", packet.ack_seq))
            return 0, packet, 0.0
        if packet.ptype is PacketType.DATA and self.actions:
            action = self.actions.pop(0)
            self.log.append((action, packet.seq))
            if action == "drop":
                return 0, packet, 0.0
            if action == "dup":
                return 2, packet, 0.0
            if action == "corrupt":
                return 1, replace(packet, corrupted=True), 0.0
        return 1, packet, 0.0


class DropAllData:
    def on_transmit(self, packet, src, dst):
        if packet.ptype is PacketType.DATA:
            return 0, packet, 0.0
        return 1, packet, 0.0


@pytest.fixture
def sim():
    return Simulator()


def rig(sim, policy=None, injector=None):
    net = FMNetwork(sim, num_nodes=2, config=FMConfig(num_processors=2),
                    strict_no_loss=True,
                    firmware_class=ReliableFirmware,
                    firmware_kwargs={"retransmit": policy} if policy else None)
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
    sim.run()  # settle outstanding ack timers


class TestPolicy:
    def test_backoff_schedule(self):
        p = RetransmitPolicy(timeout=1e-3, backoff=2.0, max_timeout=5e-3)
        assert p.timeout_for(1) == 1e-3
        assert p.timeout_for(2) == 2e-3
        assert p.timeout_for(3) == 4e-3
        assert p.timeout_for(4) == 5e-3  # capped
        assert p.timeout_for(9) == 5e-3

    def test_default_schedule_units(self):
        """Regression pin for the max_timeout unit bug: the default cap
        is 50 *milliseconds* (0.05 s), not 50 microseconds — a cap below
        the base timeout silently collapsed the whole backoff ladder."""
        p = RetransmitPolicy()
        assert p.timeout == 2e-3
        assert p.max_timeout == 0.05
        assert p.max_timeout > p.timeout
        # exact doubling until the cap, then pinned at exactly 0.05
        assert [p.timeout_for(k) for k in range(1, 8)] == [
            0.002, 0.004, 0.008, 0.016, 0.032, 0.05, 0.05]

    def test_cap_below_base_rejected(self):
        from repro.errors import ConfigError
        with pytest.raises(ConfigError, match="check the units"):
            RetransmitPolicy(timeout=2e-3, max_timeout=50e-6)
        with pytest.raises(ConfigError, match="timeout must be positive"):
            RetransmitPolicy(timeout=0.0)
        with pytest.raises(ConfigError, match="max_retries"):
            RetransmitPolicy(max_retries=0)


class TestRecovery:
    def test_clean_path_no_retransmits(self, sim):
        net, sender, receiver = rig(sim)
        exchange(sim, sender, receiver, count=5)
        fw0, fw1 = net.firmware(0), net.firmware(1)
        assert fw0.retransmits == 0
        assert fw0.outstanding == 0
        assert fw1.acks_sent == fw0.acks_received > 0
        assert receiver.library.messages_received == 5

    def test_dropped_data_is_retransmitted(self, sim):
        net, sender, receiver = rig(
            sim, injector=ScriptedInjector(["drop"]))
        exchange(sim, sender, receiver)
        fw0 = net.firmware(0)
        assert fw0.retransmits == 1
        assert fw0.outstanding == 0
        assert fw0.permanent_losses == 0
        assert receiver.library.messages_received == 1
        assert audit_credit_leaks(
            {0: sender.context, 1: receiver.context}) == {}

    def test_duplicate_delivered_once(self, sim):
        net, sender, receiver = rig(
            sim, injector=ScriptedInjector(["dup"]))
        exchange(sim, sender, receiver)
        fw1 = net.firmware(1)
        assert fw1.dup_discards == 1
        assert receiver.library.messages_received == 1
        assert len(receiver.context.recv_queue) == 0
        assert audit_credit_leaks(
            {0: sender.context, 1: receiver.context}) == {}

    def test_corrupt_discarded_then_recovered(self, sim):
        net, sender, receiver = rig(
            sim, injector=ScriptedInjector(["corrupt"]))
        exchange(sim, sender, receiver)
        fw0, fw1 = net.firmware(0), net.firmware(1)
        assert fw1.corrupt_discards == 1
        assert fw0.retransmits == 1
        assert fw0.outstanding == 0
        assert receiver.library.messages_received == 1
        assert audit_credit_leaks(
            {0: sender.context, 1: receiver.context}) == {}

    def test_lost_ack_triggers_spurious_retransmit(self, sim):
        """The original arrives; only its ack is lost.  The sender must
        retransmit, and the receiver must dup-discard but re-ack so the
        timer finally settles — the application sees the message once."""
        net, sender, receiver = rig(
            sim, injector=ScriptedInjector([], ack_drops=1))
        exchange(sim, sender, receiver)
        fw0, fw1 = net.firmware(0), net.firmware(1)
        assert fw0.retransmits == 1
        assert fw1.dup_discards == 1
        assert fw0.outstanding == 0
        assert receiver.library.messages_received == 1
        assert audit_credit_leaks(
            {0: sender.context, 1: receiver.context}) == {}

    def test_burst_of_faults_all_recovered(self, sim):
        net, sender, receiver = rig(
            sim, injector=ScriptedInjector(
                ["drop", "dup", None, "corrupt", "drop", None, "dup"]))
        exchange(sim, sender, receiver, count=10)
        fw0 = net.firmware(0)
        assert fw0.retransmits >= 3
        assert fw0.outstanding == 0
        assert receiver.library.messages_received == 10
        assert audit_credit_leaks(
            {0: sender.context, 1: receiver.context}) == {}


class TestGiveUp:
    def test_permanent_loss_after_max_retries(self, sim):
        policy = RetransmitPolicy(timeout=100e-6, backoff=1.0,
                                  max_timeout=100e-6, max_retries=3)
        net, sender, receiver = rig(sim, policy=policy,
                                    injector=DropAllData())

        def tx():
            yield from sender.library.send(1, 200)

        sim.process(tx())
        sim.run()  # drains: 3 transmissions, then the timer gives up
        fw0 = net.firmware(0)
        assert fw0.permanent_losses == 1
        assert fw0.retransmits == policy.max_retries - 1
        assert fw0.outstanding == 0
        assert receiver.library.messages_received == 0


class TestParking:
    def test_retransmit_due_while_stored_is_parked_then_drained(self, sim):
        policy = RetransmitPolicy(timeout=1e-3)
        net, sender, receiver = rig(sim, policy=policy,
                                    injector=ScriptedInjector(["drop"]))
        fw0 = net.firmware(0)

        def driver():
            yield from sender.library.send(1, 200)
            # Let the (doomed) wire copy go out, then switch the context
            # off the card before the ack timer fires.
            yield sim.timeout(100e-6)
            fw0.remove_context(sender.context)

        sim.process(driver())
        sim.run(until=0.01)  # RTO fires at ~1 ms with nowhere to requeue
        assert fw0.parked_count() == 1
        assert fw0.outstanding == 1
        assert receiver.library.messages_received == 0

        # Switching the context back in drains the parked clone.
        fw0.install_context(sender.context)

        def rx():
            yield from receiver.library.extract_messages(1)

        done = sim.process(rx())
        sim.run_until_processed(done, max_events=1_000_000)
        sim.run()
        assert fw0.parked_count() == 0
        assert fw0.outstanding == 0
        assert receiver.library.messages_received == 1
        assert audit_credit_leaks(
            {0: sender.context, 1: receiver.context}) == {}
