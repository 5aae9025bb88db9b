"""Deterministic host-cost guard for the per-DATA-packet path.

Python calls per delivered DATA packet are a property of the code, not
of the host's speed: a profiled run of one fixed Figure 6 cell counts
the same calls every time on one interpreter version.  The guard pins
the count the data path reached (the ``gang_bw`` ``jobs=4:size=6144``
point of ``benchmarks/e2e``), with 5% headroom for interpreter versions
whose builtins and comprehensions count differently.
"""

import cProfile
import pstats

from repro.experiments.figure6 import run_figure6
from repro.fm.config import FMConfig

JOBS, SIZE = 4, 6144
#: calls per delivered DATA packet measured on CPython 3.11
MEASURED_CALLS_PER_PACKET = 107.4
CEILING = MEASURED_CALLS_PER_PACKET * 1.05


def _cell():
    (cell,) = run_figure6(jobs=(JOBS,), message_sizes=(SIZE,),
                          quanta_per_job=1.5, root_seed=0)
    return cell


def test_calls_per_delivered_data_packet():
    _cell()  # warm-up: lazy imports stay out of the profiled run
    profile = cProfile.Profile()
    profile.enable()
    try:
        cell = _cell()
    finally:
        profile.disable()
    assert all(mbps > 0 for mbps in cell.per_job_mbps)
    # Each job delivers its messages plus the receiver's 1-byte finish
    # message (the count benchmarks/e2e reports for this point).
    fm = FMConfig(max_contexts=JOBS)
    delivered = JOBS * (cell.messages_per_job * fm.packets_for(SIZE)
                        + fm.packets_for(1))
    per_packet = pstats.Stats(profile).total_calls / delivered
    assert per_packet <= CEILING, (
        f"{per_packet:.1f} Python calls per delivered DATA packet "
        f"(ceiling {CEILING:.1f})")
