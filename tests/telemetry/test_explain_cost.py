"""Deterministic host-cost guard for live ``repro explain`` attribution.

Python calls per attributed message are a property of the code, not of
the host's speed: replaying one fixed record stream through an
:class:`ExplainStream` counts the same calls every time on one
interpreter version.  The guard records the stream of the
``explain_trace`` ``jobs=4:size=1536`` seed-0 point of
``benchmarks/e2e`` once, then profiles only its replay (every record fed,
then ``finish``), and pins the count with 5% headroom for interpreter
versions whose builtins and comprehensions count differently.
"""

import cProfile
import pstats

from repro.experiments.common import point_seed
from repro.experiments.figure6 import _messages_for_quanta
from repro.fm.config import FMConfig
from repro.telemetry.explain import ExplainStream, _run_point

JOBS, SIZE, QUANTUM = 4, 1536, 0.008
#: calls per attributed message measured on CPython 3.11
MEASURED_CALLS_PER_MESSAGE = 68.8
CEILING = MEASURED_CALLS_PER_MESSAGE * 1.05


def _replay(records, end_time) -> dict:
    stream = ExplainStream()
    feed = stream.feed
    for rec in records:
        feed(rec.time, rec.kind, rec.fields)
    return stream.finish(False, end_time)


def test_calls_per_attributed_message():
    fm = FMConfig(max_contexts=JOBS, num_processors=16)
    _, _, records, end_time = _run_point(
        JOBS, SIZE, _messages_for_quanta(fm, SIZE, QUANTUM, 3.0), QUANTUM,
        16, "", point_seed(0, f"explain:jobs={JOBS}:size={SIZE}"),
        keep_records=True)
    _replay(records, end_time)  # warm-up: lazy imports stay out of it
    profile = cProfile.Profile()
    profile.enable()
    try:
        analysis = _replay(records, end_time)
    finally:
        profile.disable()
    assert analysis["complete"] == 3968 and not analysis["incomplete"]
    calls = pstats.Stats(profile).total_calls
    per_message = calls / analysis["complete"]
    assert per_message <= CEILING, (
        f"{per_message:.1f} Python calls per attributed message "
        f"(ceiling {CEILING:.1f})")
