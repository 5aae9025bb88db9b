"""The paper's two fixed-geometry schemes (Sections 2.2 and 3.3).

*Original FM* (:class:`StaticPartition`): the card's send buffer and the
pinned receive buffer are divided **equally among the maximum number of
contexts**, whether or not they are active (Section 2.2, Figure 1).  The
worst case "everyone sends to one node" sizing then gives each pair

    C0 = (Br / n) / (n * p)  =  Br / (n^2 * p)

credits — the inverse-square collapse that produces Figure 5.

*The paper's scheme* (:class:`FullBuffer`): gang scheduling guarantees
only one job communicates per node at a time, so the running process gets
the whole buffer and only its own job's p processes can send to it:

    C0 = Br / p

independent of the number of time-sliced jobs (Section 3.3).
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.fm.config import FMConfig
from repro.fm.policies.base import BufferPolicy, ContextGeometry

#: accepted ``on_zero_credit`` modes for :class:`StaticPartition`
ZERO_CREDIT_MODES = ("error", "report")


class StaticPartition(BufferPolicy):
    """Original FM: divide by the fixed maximum number of contexts.

    When ``Br < n^2 * p`` the inverse-square sizing yields
    ``initial_credits == 0`` — every sender would fail before the first
    packet.  Historically this was silent (callers discovered it as zero
    bandwidth); ``on_zero_credit`` now controls what happens:

    - ``"error"`` (default): raise :class:`ConfigError` at geometry time,
      i.e. before any context is built on the doomed configuration;
    - ``"report"``: keep the legacy zero-credit geometry so experiments
      can measure the collapse (Figure 5's n >= 7 rows).
    """

    name = "static-partition"

    def __init__(self, on_zero_credit: str = "error"):
        if on_zero_credit not in ZERO_CREDIT_MODES:
            raise ConfigError(
                f"on_zero_credit must be one of {ZERO_CREDIT_MODES}, "
                f"got {on_zero_credit!r}")
        self.on_zero_credit = on_zero_credit

    def geometry(self, config: FMConfig) -> ContextGeometry:
        n, p = config.max_contexts, config.num_processors
        recv = config.recv_queue_packets // n
        send = config.send_queue_packets // n
        credits = recv // (n * p)
        if credits == 0 and self.on_zero_credit == "error":
            raise ConfigError(
                f"static partition yields a zero credit window: "
                f"Br={config.recv_queue_packets} < n^2*p={n * n * p} "
                f"(n={n} contexts, p={p} processors) — no sender could "
                f"ever transmit.  Use fewer contexts, FullBuffer, or "
                f"StaticPartition(on_zero_credit='report') to measure "
                f"the collapse deliberately")
        return ContextGeometry(recv_packets=recv, send_packets=send,
                               initial_credits=credits)


class FullBuffer(BufferPolicy):
    """The paper's scheme: the running process owns the entire buffers.

    Safe only under gang scheduling with buffer switching; at most p
    senders (the job's own processes) target any receive queue.
    """

    name = "full-buffer"

    def geometry(self, config: FMConfig) -> ContextGeometry:
        recv = config.recv_queue_packets
        send = config.send_queue_packets
        credits = recv // config.num_processors
        return ContextGeometry(recv_packets=recv, send_packets=send,
                               initial_credits=credits)
