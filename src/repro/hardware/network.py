"""The Myrinet fabric: source-routed, per-pair FIFO, no loss.

Two properties of Myrinet matter to the paper's protocols and are the
contract this model provides:

1. **Per-pair FIFO**: FM uses a single precomputed route between each pair
   of nodes and Myrinet preserves order along a route, so a halt message
   broadcast after the last data packet arrives after it (Section 3.2).
2. **No broadcast in hardware**: "the broadcast is implemented by a serial
   loop" — the firmware sends p-1 unicasts; the fabric only ever moves
   unicast packets.

Contention is modelled at both endpoints: a card injects one packet at a
time at link rate, and deliveries into one card are spaced at least a wire
time apart (fan-in saturation), which is what fills receive queues during
the all-to-all experiments (Figure 8).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import RoutingError
from repro.hardware.link import LinkSpec
from repro.hardware.nic import MyrinetNIC
from repro.sim.core import Event, Simulator, Timeout


class MyrinetFabric:
    """Moves packets between registered NICs with realistic timing.

    The per-packet path (:meth:`transmit`) is branch-minimal: the hop
    count is validated and the path latency and bandwidth reciprocal are
    precomputed here, at construction, so moving a packet is a handful of
    multiplies and dict lookups.
    """

    def __init__(self, sim: Simulator, link: LinkSpec = LinkSpec(), hops: int = 1):
        if hops < 0:
            raise RoutingError(f"negative hop count {hops}")
        self.sim = sim
        self.link = link
        self.hops = hops
        self._wire_inv = link.inv_bandwidth
        self._path_latency = link.latency(hops)
        self._nics: dict[int, MyrinetNIC] = {}
        self._rx_free_at: dict[int, float] = {}
        self._deliver_cbs: dict[int, Callable] = {}
        self.packets_moved: int = 0
        self.bytes_moved: int = 0
        # Optional observer for tests/traces: fn(packet, depart, arrive).
        self.observer: Optional[Callable] = None
        #: Optional fault-injection hook (:mod:`repro.faults.injector`).
        #: ``None`` on the perfect fabric — the per-packet fast path pays
        #: exactly one attribute test for it.  When set, its
        #: ``on_transmit(packet, src, dst)`` decides per packet how many
        #: copies arrive (0 = dropped in the switch, 2 = duplicated), with
        #: what extra delay (jitter), and whether the delivered bytes are
        #: corrupted.
        self.fault_injector: Optional[object] = None

    # -- topology -----------------------------------------------------------
    def register(self, nic: MyrinetNIC) -> None:
        if nic.node_id in self._nics:
            raise RoutingError(f"node {nic.node_id} already on the fabric")
        self._nics[nic.node_id] = nic
        self._rx_free_at[nic.node_id] = 0.0
        self._deliver_cbs[nic.node_id] = nic.deliver_event

    def unregister(self, node_id: int) -> None:
        """Remove a node (COMM_remove_node topology update)."""
        if node_id not in self._nics:
            raise RoutingError(f"node {node_id} not on the fabric")
        del self._nics[node_id]
        del self._rx_free_at[node_id]
        del self._deliver_cbs[node_id]

    @property
    def node_ids(self) -> list[int]:
        return sorted(self._nics)

    def nic(self, node_id: int) -> MyrinetNIC:
        try:
            return self._nics[node_id]
        except KeyError:
            raise RoutingError(f"node {node_id} not on the fabric") from None

    # -- data movement ------------------------------------------------------
    def injection_time(self, nbytes: int) -> float:
        """How long the sending card is busy injecting one packet."""
        return nbytes * self._wire_inv

    def transmit(self, src: int, dst: int, packet) -> Event:
        """Launch ``packet`` from src to dst; returns the *arrival* event.

        The caller (the firmware send context) must already have spent the
        injection time — this method handles the network part: fall-through
        latency plus serialisation onto the destination link.  Per-pair
        order is preserved because the source injects serially and the
        destination port is FIFO.
        """
        # One dict serves both endpoint checks (it has the same keys as
        # _nics); the destination lookup doubles as its check.
        deliver_cbs = self._deliver_cbs
        if src == dst:
            raise RoutingError(f"node {src} attempted to transmit to itself")
        if src not in deliver_cbs:
            raise RoutingError(f"source node {src} not on the fabric")
        try:
            deliver_cb = deliver_cbs[dst]
        except KeyError:
            raise RoutingError(f"node {dst} not on the fabric") from None

        nbytes = packet.size_bytes
        sim = self.sim
        now = sim._now

        if self.fault_injector is not None:
            return self._transmit_faulty(packet, dst, deliver_cb, nbytes, now)

        earliest = now + self._path_latency
        # Destination link busy until _rx_free_at: fan-in serialisation.
        rx_free_at = self._rx_free_at
        busy = rx_free_at[dst]
        if busy > earliest:
            earliest = busy
        deliver_at = earliest + nbytes * self._wire_inv
        rx_free_at[dst] = deliver_at

        self.packets_moved += 1
        self.bytes_moved += nbytes
        if self.observer is not None:
            self.observer(packet, now, deliver_at)

        # The arrival event carries the packet; the NIC's pre-bound
        # delivery callback reads it off the event — no per-packet closure.
        arrival = Timeout(sim, deliver_at - now, packet)
        arrival.callbacks = [deliver_cb]
        return arrival

    def _transmit_faulty(self, packet, dst: int, deliver_cb, nbytes: int,
                         now: float) -> Event:
        """Slow-path transmit consulted by the fault injector.

        Jitter delays the fall-through but never reorders: deliveries per
        destination stay serialised through ``_rx_free_at``, which is
        monotone in transmit order, so the per-pair FIFO contract (which
        the flush protocol's correctness rests on) survives every fault
        model.  A dropped packet vanishes in the switch — it consumes no
        receive-side wire time and the returned event never delivers.
        """
        copies, packet, extra_delay = self.fault_injector.on_transmit(
            packet, packet.src_node, dst)
        self.packets_moved += 1
        self.bytes_moved += nbytes
        if copies == 0:
            return self.sim.timeout(self._path_latency, value=packet)
        arrival: Optional[Event] = None
        for _ in range(copies):
            earliest = now + self._path_latency + extra_delay
            busy = self._rx_free_at[dst]
            if busy > earliest:
                earliest = busy
            deliver_at = earliest + nbytes * self._wire_inv
            self._rx_free_at[dst] = deliver_at
            if self.observer is not None:
                self.observer(packet, now, deliver_at)
            arrival = self.sim.timeout(deliver_at - now, value=packet)
            arrival.callbacks.append(deliver_cb)
        return arrival
