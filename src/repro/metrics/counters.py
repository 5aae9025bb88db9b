"""Context-switch stage timing records.

Each noded measures its three switch stages ("we measured each of the
three stages of the buffer switch algorithm") and deposits a
:class:`SwitchRecord` here.  :func:`mean_stage_cycles` reproduces the
paper's plots: Figure 7/9 report per-stage cycle counts against cluster
size.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import mean
from typing import Optional, Sequence


@dataclass(frozen=True)
class SwitchRecord:
    """One node's measurements for one gang context switch."""

    node_id: int
    sequence: int            # global switch round number
    old_slot: int
    new_slot: int
    halt_seconds: float
    switch_seconds: float
    release_seconds: float
    out_job: Optional[int]
    in_job: Optional[int]
    out_send_valid: int      # Figure 8's send-queue occupancy sample
    out_recv_valid: int      # Figure 8's receive-queue occupancy sample
    algorithm: str
    started_at: float


@dataclass(frozen=True)
class StageTimings:
    """Per-stage cycle counts, the unit of Figures 7 and 9."""

    halt: int
    switch: int
    release: int

    @property
    def total(self) -> int:
        return self.halt + self.switch + self.release


class SwitchRecorder:
    """Cluster-wide collection of switch records."""

    def __init__(self):
        self.records: list[SwitchRecord] = []

    def add(self, record: SwitchRecord) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def with_outgoing_job(self) -> list[SwitchRecord]:
        """Records where a context was actually switched out (Figure 8
        samples only meaningful when a job occupied the outgoing slot)."""
        return [r for r in self.records if r.out_job is not None]

    def publish(self, registry, prefix: str = "switch") -> None:
        """Fold the records into a telemetry MetricsRegistry.

        Stage timings become histograms (full distributions, not just the
        means the figures report); occupancy samples only count switches
        that actually moved a context, mirroring
        :func:`~repro.metrics.occupancy.summarize_occupancy`.
        """
        registry.counter(f"{prefix}.count").inc(len(self.records))
        halt = registry.histogram(f"{prefix}.halt_seconds")
        swap = registry.histogram(f"{prefix}.swap_seconds")
        release = registry.histogram(f"{prefix}.release_seconds")
        send_occ = registry.histogram(f"{prefix}.out_send_valid")
        recv_occ = registry.histogram(f"{prefix}.out_recv_valid")
        for rec in self.records:
            halt.observe(rec.halt_seconds)
            swap.observe(rec.switch_seconds)
            release.observe(rec.release_seconds)
            if rec.out_job is not None:
                send_occ.observe(rec.out_send_valid)
                recv_occ.observe(rec.out_recv_valid)


def mean_stage_seconds(records: Sequence[SwitchRecord]
                       ) -> tuple[float, float, float]:
    """(halt, switch, release) means across ``records``."""
    if not records:
        return (0.0, 0.0, 0.0)
    return (
        mean(r.halt_seconds for r in records),
        mean(r.switch_seconds for r in records),
        mean(r.release_seconds for r in records),
    )


def mean_stage_cycles(records: Sequence[SwitchRecord],
                      clock_hz: float = 200e6) -> StageTimings:
    """The mean stage costs of ``records`` in cycles (Figures 7 and 9)."""
    halt, switch, release = mean_stage_seconds(records)
    return StageTimings(
        halt=int(round(halt * clock_hz)),
        switch=int(round(switch * clock_hz)),
        release=int(round(release * clock_hz)),
    )
