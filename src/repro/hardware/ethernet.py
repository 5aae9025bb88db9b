"""The control network: 10 Mb switched Ethernet between daemons.

ParPar reserves the Myrinet for application data; masterd <-> noded
traffic (job loading, context-switch notifications) rides a slower
Ethernet.  The masterd's slot-switch notification is a broadcast [Kavas
et al. 2001]; receivers see it with a small skew, which is what makes the
halt protocol's "local halt" and "arriving halt" transitions interleave
arbitrarily (Figure 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import ConfigError, RoutingError
from repro.sim.core import Simulator
from repro.sim.rand import RandomStreams
from repro.units import MS, US


@dataclass(frozen=True)
class EthernetSpec:
    """Latency model for one daemon-to-daemon message."""

    base_latency: float = 0.3 * MS   # kernel UDP path + 10 Mb wire for a small message
    per_byte: float = 0.8e-6         # 10 Mb/s ~ 1.25 MB/s -> 0.8 us/byte
    broadcast_skew: float = 50 * US  # max extra jitter between broadcast receivers

    def __post_init__(self):
        if self.base_latency < 0 or self.per_byte < 0 or self.broadcast_skew < 0:
            raise ConfigError("Ethernet latencies must be >= 0")


class ControlNetwork:
    """Best-effort ordered unicast + skewed broadcast between daemons."""

    def __init__(self, sim: Simulator, spec: EthernetSpec = EthernetSpec(),
                 rng: RandomStreams | None = None):
        self.sim = sim
        self.spec = spec
        self._rng = (rng or RandomStreams(0)).stream("control-ethernet")
        self._handlers: dict[int, Callable] = {}
        self.messages_sent: int = 0

    def register(self, node_id: int, handler: Callable) -> None:
        """``handler(src_id, message)`` runs on each delivery."""
        if node_id in self._handlers:
            raise RoutingError(f"control endpoint {node_id} already registered")
        self._handlers[node_id] = handler

    def unregister(self, node_id: int) -> None:
        self._handlers.pop(node_id, None)

    @property
    def endpoints(self) -> list[int]:
        return sorted(self._handlers)

    def _latency(self, nbytes: int) -> float:
        return self.spec.base_latency + nbytes * self.spec.per_byte

    def send(self, src: int, dst: int, message, nbytes: int = 64) -> None:
        """Deliver ``message`` to ``dst`` after the modelled latency."""
        if dst not in self._handlers:
            raise RoutingError(f"control endpoint {dst} not registered")
        handler = self._handlers[dst]
        self.messages_sent += 1
        ev = self.sim.timeout(self._latency(nbytes), value=message)
        ev.add_callback(lambda _ev: handler(src, message))

    def broadcast(self, src: int, message, nbytes: int = 64) -> None:
        """Deliver to every endpoint except ``src``, with per-receiver skew."""
        self.multicast(src, [d for d in self._handlers if d != src], message, nbytes)

    def multicast(self, src: int, dsts, message, nbytes: int = 64) -> None:
        """One wire-level broadcast delivered to the ``dsts`` group.

        This is how the masterd notifies the nodeds of a slot switch [the
        multicast preloading mechanism of Kavas et al. 2001]: one message,
        received by each group member with independent small skew.
        """
        base = self._latency(nbytes)
        for dst in sorted(dsts):
            if dst == src:
                continue
            if dst not in self._handlers:
                raise RoutingError(f"control endpoint {dst} not registered")
            handler = self._handlers[dst]
            skew = self._rng.uniform(0.0, self.spec.broadcast_skew)
            self.messages_sent += 1
            ev = self.sim.timeout(base + skew, value=message)
            ev.add_callback(lambda _ev, h=handler: h(src, message))
