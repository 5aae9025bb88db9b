"""Cluster failure detection, eviction, and recovery.

The paper's cluster is managed by daemons ("one master daemon... and a
node daemon on each node") and its protocols — flush, three-stage switch,
Figure-2 loading — all assume every participant eventually answers.  A
single fail-stop node therefore wedges the whole machine: the masterd's
switch barrier waits for an ack that will never come, and every surviving
node blocks inside the flush protocol waiting for the dead node's HALT.

This module is the policy layer that removes that single point of
failure.  It deliberately contains **no asynchrony of its own** — the
mechanisms live where the state lives (masterd: barrier hardening and
eviction; noded: fail-stop, heartbeats, reintegration; flush protocol:
``force_remove_node``/``reset``) — and what is collected here is:

- :class:`RecoveryConfig` — the detector and barrier knobs;
- :class:`FailureDetector` — a lease table over noded heartbeats: a node
  silent past the miss budget becomes *suspect*; suspicion is a
  precondition for eviction (a slow ack alone never evicts), and a
  heartbeat from a suspect clears it as a counted false suspicion;
- :class:`RecoveryStats` — the counters, detection-latency samples, and
  detect/evict/reintegrate span bookkeeping that chaos reports and the
  telemetry layer fold in;
- :func:`failstop_process` — the seed-driven injector that turns one
  :class:`~repro.faults.model.FailStop` entry into a genuine silence
  (and optional rebirth) at the scheduled times.

Everything is deterministic: heartbeats ride the reliable control
Ethernet (no randomness), detection latencies are simulated-time deltas,
and the injector fires at times fixed by the campaign seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigError


@dataclass(frozen=True)
class RecoveryConfig:
    """Detector and barrier-hardening knobs (times in seconds)."""

    #: noded lease renewal period over the control network.
    heartbeat_interval: float = 0.002
    #: Consecutive missed heartbeats before a node is declared *suspect*.
    miss_budget: int = 3
    #: Further silence (in heartbeat intervals, beyond the miss budget)
    #: before a suspect is evicted outside a switch barrier — the idle
    #: path for deaths that never block a switch (paused rotation,
    #: single occupied slot).
    eviction_budget: int = 9
    #: Base switch-barrier ack timeout before the masterd re-multicasts.
    switch_timeout: float = 0.010
    #: Exponential growth of the barrier timeout per retry.
    switch_backoff: float = 2.0
    #: Cap on any single barrier wait.
    max_switch_timeout: float = 0.080
    #: Re-multicasts before the masterd turns to eviction.  Only nodes
    #: the detector already suspects are evicted; a silent-but-fresh
    #: node gets further (capped) timer laps instead.
    max_switch_retries: int = 2

    def __post_init__(self):
        for name in ("heartbeat_interval", "switch_timeout", "switch_backoff",
                     "max_switch_timeout"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.miss_budget < 1:
            raise ConfigError("miss_budget must be >= 1")
        if self.eviction_budget <= self.miss_budget:
            raise ConfigError("eviction_budget must exceed miss_budget")
        if self.max_switch_retries < 0:
            raise ConfigError("max_switch_retries must be >= 0")

    @property
    def suspect_after(self) -> float:
        """Silence (seconds) after which a node becomes suspect.

        One interval of slack on top of the miss budget absorbs control
        latency and sweep phase — a live node is never suspected.
        """
        return self.heartbeat_interval * (self.miss_budget + 1)

    @property
    def evict_after(self) -> float:
        """Silence (seconds) after which a suspect is evicted outright."""
        return self.heartbeat_interval * (self.eviction_budget + 1)


class RecoveryStats:
    """Counters and span bookkeeping for one cluster's recovery layer.

    All values derive from simulated time and deterministic event order,
    so serial and parallel chaos campaigns agree bit-for-bit.
    """

    COUNTER_FIELDS = (
        "failstops_injected", "rejoins_injected",
        "suspicions", "false_suspicions",
        "evictions", "reintegrations",
        "jobs_killed", "jobs_requeued", "requeue_failures",
        "switch_retries", "stale_switch_acks", "unwedged_waits",
        "contexts_restored", "contexts_discarded",
    )

    def __init__(self, spans=None):
        self.spans = spans
        for name in self.COUNTER_FIELDS:
            setattr(self, name, 0)
        #: fail-stop injection -> detector suspicion, per detected death.
        self.detection_latencies: list[float] = []
        self._detect_spans: dict[int, int] = {}
        self._evict_spans: dict[int, int] = {}
        self._reint_spans: dict[int, int] = {}

    # -- spans ---------------------------------------------------------------
    def _begin(self, table: dict, name: str, node: int) -> None:
        if self.spans is not None:
            table[node] = self.spans.begin(name, category="recovery", node=node)

    def _end(self, table: dict, node: int, **args) -> None:
        span = table.pop(node, None)
        if span is not None:
            self.spans.end(span, **args)

    def begin_detect(self, node: int) -> None:
        self._begin(self._detect_spans, "recovery-detect", node)

    def end_detect(self, node: int, **args) -> None:
        self._end(self._detect_spans, node, **args)

    def begin_evict(self, node: int) -> None:
        self._begin(self._evict_spans, "recovery-evict", node)

    def end_evict(self, node: int, **args) -> None:
        self._end(self._evict_spans, node, **args)

    def begin_reintegrate(self, node: int) -> None:
        self._begin(self._reint_spans, "recovery-reintegrate", node)

    def end_reintegrate(self, node: int, **args) -> None:
        self._end(self._reint_spans, node, **args)

    # -- reporting -----------------------------------------------------------
    def counters(self) -> dict:
        """Flat dict for chaos reports and telemetry harvesting."""
        out = {name: getattr(self, name) for name in self.COUNTER_FIELDS}
        out["detection_latency_count"] = len(self.detection_latencies)
        out["detection_latency_total"] = sum(self.detection_latencies)
        return out


class FailureDetector:
    """Lease table over noded heartbeats (masterd side).

    ``heartbeat`` and ``sweep`` are the hot entry points; both are plain
    table updates — the detector never talks to the network itself.
    ``fail_times`` is ground truth fed by the fault injector, used only
    to measure detection latency; the detector's decisions rest solely
    on heartbeat silence.
    """

    def __init__(self, config: RecoveryConfig, node_ids, stats: RecoveryStats,
                 now: float = 0.0):
        self.config = config
        self.stats = stats
        self.last_seen: dict[int, float] = {n: now for n in node_ids}
        self.suspects: set[int] = set()
        self.evicted: set[int] = set()
        self.fail_times: dict[int, float] = {}

    def heartbeat(self, node: int, now: float) -> None:
        if node in self.evicted or node not in self.last_seen:
            return  # an evicted node must re-register, not just breathe
        self.last_seen[node] = now
        if node in self.suspects:
            self.suspects.discard(node)
            self.stats.false_suspicions += 1

    def note_failure(self, node: int, now: float) -> None:
        """Injector ground truth — telemetry only, never a decision input."""
        self.fail_times[node] = now

    def sweep(self, now: float) -> list[int]:
        """Mark nodes silent past the miss budget; returns the newcomers."""
        threshold = self.config.suspect_after
        newly = []
        for node in sorted(self.last_seen):
            if node in self.evicted or node in self.suspects:
                continue
            if now - self.last_seen[node] > threshold:
                self.suspects.add(node)
                newly.append(node)
                self.stats.suspicions += 1
                failed_at = self.fail_times.get(node)
                if failed_at is not None:
                    self.stats.detection_latencies.append(now - failed_at)
                    self.stats.end_detect(node, latency=now - failed_at)
        return newly

    def overdue(self, now: float) -> list[int]:
        """Suspects silent past the eviction budget (idle-path eviction)."""
        threshold = self.config.evict_after
        return [n for n in sorted(self.suspects)
                if n not in self.evicted
                and now - self.last_seen[n] > threshold]

    def is_suspect(self, node: int) -> bool:
        return node in self.suspects

    def mark_evicted(self, node: int) -> None:
        self.evicted.add(node)
        self.suspects.discard(node)

    def reinstate(self, node: int, now: float) -> None:
        """Reintegration: a fresh lease, a clean slate."""
        self.evicted.discard(node)
        self.suspects.discard(node)
        self.last_seen[node] = now
        self.fail_times.pop(node, None)


def failstop_process(sim, entry, noded, detector: Optional[FailureDetector],
                     stats: RecoveryStats):
    """Drive one :class:`~repro.faults.model.FailStop` schedule entry.

    A generator for ``sim.process``: silences the noded at ``fail_at``
    and, if the entry has a ``rejoin_at``, restarts it then.  Times come
    from the (seed-derived) entry, so campaigns replay exactly.
    """
    yield sim.timeout(entry.fail_at)
    stats.failstops_injected += 1
    stats.begin_detect(entry.node_id)
    if detector is not None:
        detector.note_failure(entry.node_id, sim.now)
    noded.fail_stop()
    if entry.rejoin_at is not None:
        yield sim.timeout(entry.rejoin_at - entry.fail_at)
        stats.rejoins_injected += 1
        noded.rejoin()
