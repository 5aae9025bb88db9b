"""Bandwidth accounting, following the paper's methodology.

Figure 5: a single application, point-to-point bandwidth = bytes received
over the interval between the first send and the last receive.

Figure 6: several gang-scheduled applications.  "To obtain the overall
bandwidth achievable in the system, we multiplied the average bandwidth
achieved by the benchmark applications, by the number of applications
running simultaneously.  This compensated for the fact that each
application was effectively using only a fraction of it's elapsed
runtime."
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import mean
from typing import Sequence

from repro.units import mb_per_second


@dataclass(frozen=True)
class BandwidthSample:
    """One application's measured transfer."""

    job_id: int
    payload_bytes: int
    started_at: float
    finished_at: float

    @property
    def elapsed(self) -> float:
        return self.finished_at - self.started_at

    @property
    def mbps(self) -> float:
        """Decimal MB/s over the application's wall-clock interval."""
        return mb_per_second(self.payload_bytes, self.elapsed)


def aggregate_bandwidth(samples: Sequence[BandwidthSample]) -> float:
    """The paper's Figure 6 statistic: mean per-app MB/s x number of apps."""
    if not samples:
        return 0.0
    return mean(s.mbps for s in samples) * len(samples)
