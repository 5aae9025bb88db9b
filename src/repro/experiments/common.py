"""Shared experiment plumbing.

The paper's measurements push 10^5-10^6 packets per data point on real
hardware; a Python DES cannot, so every experiment takes a *scale* knob:
``target_packets`` bounds the packets per measurement and quanta are tens
of milliseconds rather than seconds.  Bandwidths are steady-state rates
and switch costs are per-event, so the *shapes* are scale-invariant;
EXPERIMENTS.md tabulates the scaling factor used for each figure.

Sweeps fan out over independent data points, each a hermetic simulation
(fresh :class:`~repro.sim.core.Simulator`, own config, own RNG streams),
so :func:`run_points` can run them through a process pool: results are
bit-identical to a serial run because nothing but the point's own
arguments — including its :func:`point_seed`-derived RNG seed, which
depends only on the point's identity, never on execution order — feeds
the simulation.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Sequence, TypeVar

from repro.errors import ConfigError
from repro.fm.config import FMConfig

_T = TypeVar("_T")
_R = TypeVar("_R")


#: Message sizes for the Figure 5 sweep (its axis runs 1 byte to 64K).
FIG5_MESSAGE_SIZES = (64, 256, 1024, 4096, 16384, 65536)
#: Message sizes for the Figure 6 sweep (its axis runs 96 bytes to 96K).
FIG6_MESSAGE_SIZES = (96, 384, 1536, 6144, 24576, 98304)
#: Cluster sizes for the Figures 7-9 sweep ("Nodes" axis, 2..16).
NODE_SWEEP = (2, 4, 8, 12, 16)


def messages_for_size(config: FMConfig, message_bytes: int,
                      target_packets: int) -> int:
    """Pick a message count so each point moves ~target_packets packets.

    Mirrors the paper's "500,000 for small messages and 100,000 for large
    ones", scaled to simulation budgets.  At least 20 messages keeps the
    finish-message overhead amortised.
    """
    if target_packets <= 0:
        raise ConfigError(f"target_packets must be positive, got {target_packets}")
    per_message = config.packets_for(message_bytes)
    return max(20, target_packets // per_message)


def packets_for_messages(config: FMConfig, message_bytes: int, messages: int) -> int:
    """Packets a point actually moves with ``messages`` messages.

    :func:`messages_for_size` floors the message count at 20, so for large
    messages the real packet volume can exceed ``target_packets`` by a
    wide margin; result records carry this actual count rather than the
    nominal target.
    """
    return messages * config.packets_for(message_bytes)


def point_seed(root_seed: int, label: str) -> int:
    """Derive a sweep point's RNG seed from the root seed and its identity.

    Hash-derived (not sequential), so the seed depends only on *which*
    point this is — adding, removing, reordering, or parallelising points
    never changes any other point's stream.
    """
    digest = hashlib.sha256(f"{root_seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def effective_workers(workers: int | None) -> int:
    """A user's ``-j`` request capped at ``os.cpu_count()``.

    A pool wider than the machine only adds fork and pickle overhead (on
    a one-core box a 4-worker pool made the Figure 6 sweep *slower* than
    serial), so the CLI applies this cap where ``-j`` enters.  Library
    callers and the ``--smoke`` gates pass their worker count straight
    to :func:`run_points`, which honours it.
    """
    import os

    if workers is None or workers <= 1:
        return 1
    return min(workers, os.cpu_count() or 1)


def run_points(worker: Callable[[_T], _R], items: Sequence[_T],
               workers: int = 1) -> list[_R]:
    """Map ``worker`` over sweep ``items``, serially or in a process pool.

    ``workers <= 1`` (or None) runs serially in-process.  Anything more
    runs in a :class:`~concurrent.futures.ProcessPoolExecutor` of
    ``min(workers, len(items))`` processes, even for one item, so a
    serial-vs-pool gate always crosses a process boundary.  Results come
    back in input order, and because every point is hermetic (see module
    docstring) the output is bit-identical to the serial path.  ``worker``
    and each item must be picklable, i.e. a module-level function applied
    to plain-data arguments.
    """
    items = list(items)
    if workers is None or workers <= 1 or not items:
        return [worker(item) for item in items]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(workers, len(items))) as pool:
        return list(pool.map(worker, items))
