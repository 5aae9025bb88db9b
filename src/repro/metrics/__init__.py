"""Measurement plumbing for the experiments.

- :mod:`~repro.metrics.counters` — per-stage context-switch timing
  records (the paper's Figures 7 and 9 are plots of these);
- :mod:`~repro.metrics.occupancy` — valid-packet samples at switch time
  (Figure 8);
- :mod:`~repro.metrics.bandwidth` — bandwidth aggregation following the
  paper's methodology (Figures 5 and 6).
"""

from repro.metrics.bandwidth import BandwidthSample, aggregate_bandwidth
from repro.metrics.counters import StageTimings, SwitchRecord, SwitchRecorder

__all__ = [
    "BandwidthSample",
    "StageTimings",
    "SwitchRecord",
    "SwitchRecorder",
    "aggregate_bandwidth",
]
