"""Synthetic traffic patterns beyond the paper's two benchmarks.

Used by tests (diverse communication shapes exercise different queue and
credit states) and by the ablation benchmarks:

- :func:`ring_benchmark` — nearest-neighbour ring exchange, the classic
  halo pattern;
- :func:`uniform_random_benchmark` — each round, every rank sends to one
  uniformly chosen peer (deterministic per seed and rank);
- :func:`burst_benchmark` — alternating burst/quiet phases, stressing
  receive-queue occupancy like the bursts the paper blames for the
  receive buffer filling up.

All three terminate with the fence protocol of
:mod:`repro.workloads.alltoall`: ranks may extract a peer's fence while
still in their own data loop, so fences are classified at every
extraction site, not just in the final collection loop.
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.fm.harness import Endpoint
from repro.sim.rand import RandomStreams
from repro.workloads.alltoall import (
    FENCE_BYTES,
    AllToAllStats,
    _collect_fences,
    _drain_pending,
    _Tally,
)


def _run_pattern(ep: Endpoint, rounds: int, destinations, message_bytes: int,
                 quiet_time: float = 0.0):
    """Shared skeleton: per-round sends, opportunistic drain, fence finish.

    ``destinations(round, rng_peers)`` yields the peers to message that
    round.
    """
    lib = ep.library
    peers = [r for r in sorted(ep.context.rank_to_node) if r != ep.rank]
    if not peers:
        raise ConfigError("pattern needs at least two processes")
    started = lib.sim.now
    tally = _Tally()
    sent = 0
    for round_index in range(rounds):
        for peer in destinations(round_index, peers):
            yield from lib.send(peer, message_bytes)
            sent += 1
        if quiet_time > 0:
            yield quiet_time
        yield from _drain_pending(lib, tally)
    for peer in peers:
        yield from lib.send(peer, FENCE_BYTES)
    yield from _collect_fences(lib, tally, len(peers))
    return AllToAllStats(rank=ep.rank, rounds=rounds, messages_sent=sent,
                         messages_received=tally.data, started_at=started,
                         finished_at=lib.sim.now)


def _check(rounds: int, message_bytes: int) -> None:
    if rounds <= 0:
        raise ConfigError("rounds must be positive")
    if message_bytes <= FENCE_BYTES:
        raise ConfigError(f"message_bytes must be > {FENCE_BYTES} "
                          "(fence messages use that size)")


def ring_benchmark(rounds: int, message_bytes: int):
    """Each round, rank r sends to (r+1) mod p and receives from (r-1)."""
    _check(rounds, message_bytes)

    def workload(ep: Endpoint):
        right = (ep.rank + 1) % ep.context.num_procs
        result = yield from _run_pattern(
            ep, rounds, lambda _round, _peers: [right], message_bytes)
        return result

    return workload


def uniform_random_benchmark(rounds: int, message_bytes: int, seed: int = 0):
    """Each round, send to one uniformly chosen peer (seeded per rank)."""
    _check(rounds, message_bytes)

    def workload(ep: Endpoint):
        rng = RandomStreams(seed).stream(str(ep.rank))

        def destinations(_round, peers):
            return [peers[rng.integers(len(peers))]]

        result = yield from _run_pattern(ep, rounds, destinations, message_bytes)
        return result

    return workload


def burst_benchmark(bursts: int, burst_len: int, message_bytes: int,
                    quiet_time: float = 200e-6):
    """Alternate tight bursts toward the next rank with quiet gaps.

    Bursts overrun the receiver's extraction rate and pile packets into
    the receive queue — the condition under which Figure 8's occupancy
    samples become non-trivial.  ``burst_len`` must stay within the
    credit window C0 or all ranks block on credits simultaneously with
    no one extracting (flow-control deadlock by construction).
    """
    _check(bursts, message_bytes)
    if burst_len <= 0:
        raise ConfigError("burst_len must be positive")
    if quiet_time < 0:
        raise ConfigError("quiet_time must be >= 0")

    def workload(ep: Endpoint):
        if burst_len > ep.context.geometry.initial_credits:
            raise ConfigError(
                f"burst_len {burst_len} exceeds the credit window "
                f"C0={ep.context.geometry.initial_credits}: guaranteed deadlock"
            )
        right = (ep.rank + 1) % ep.context.num_procs
        result = yield from _run_pattern(
            ep, bursts, lambda _round, _peers: [right] * burst_len,
            message_bytes, quiet_time=quiet_time)
        return result

    return workload
