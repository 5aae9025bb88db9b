"""Deterministic host-cost guards for live ``repro explain`` attribution.

Python calls per attributed message and the bytes a stream holds per
closed message are properties of the code, not of the host's speed:
replaying one fixed record stream through an :class:`ExplainStream`
counts the same calls and allocates the same objects every time on one
interpreter version.  The guards record the stream of the
``explain_trace`` ``jobs=4:size=1536`` seed-0 point of
``benchmarks/e2e`` once, cut it into the tracer's batches of
``STREAM_BATCH`` records, then measure only its replay.  The call guard
profiles every batch fed and ``finish``, and pins the count with 5%
headroom for interpreter versions whose builtins and comprehensions
count differently.  The memory guard traces the allocations the stream
still holds after the last batch, just before ``finish`` builds the
rows, and pins them per closed message with 10% headroom for
interpreter versions whose objects differ in size.
"""

import cProfile
import gc
import pstats
import tracemalloc

import pytest

from repro.experiments.common import point_seed
from repro.experiments.figure6 import _messages_for_quanta
from repro.fm.config import FMConfig
from repro.sim.trace import STREAM_BATCH
from repro.telemetry.explain import ExplainStream, _run_point

JOBS, SIZE, QUANTUM = 4, 1536, 0.008
MESSAGES = 3968
#: calls per attributed message measured on CPython 3.11
MEASURED_CALLS_PER_MESSAGE = 62.6
CEILING = MEASURED_CALLS_PER_MESSAGE * 1.05
#: bytes held per closed message before ``finish``, measured on CPython
#: 3.11 (a closed message kept its output row until 1,472, and its owner
#: map entries a ``(key, frag)`` tuple each until 391)
MEASURED_BYTES_PER_MESSAGE = 335
BYTES_CEILING = MEASURED_BYTES_PER_MESSAGE * 1.10


@pytest.fixture(scope="module")
def stream_batches():
    """The point's records as ``(batches, end_time)``, cut as the
    tracer cuts them."""
    fm = FMConfig(max_contexts=JOBS, num_processors=16)
    _, _, records, end_time = _run_point(
        JOBS, SIZE, _messages_for_quanta(fm, SIZE, QUANTUM, 3.0), QUANTUM,
        16, "", point_seed(0, f"explain:jobs={JOBS}:size={SIZE}"),
        keep_records=True)
    rows = [(rec.time, rec.kind, rec.fields) for rec in records]
    batches = [rows[i:i + STREAM_BATCH]
               for i in range(0, len(rows), STREAM_BATCH)]
    return batches, end_time


def _fed(batches) -> ExplainStream:
    stream = ExplainStream()
    for batch in batches:
        stream.feed(batch)
    return stream


def _replay(batches, end_time) -> dict:
    return _fed(batches).finish(False, end_time)


def test_calls_per_attributed_message(stream_batches):
    batches, end_time = stream_batches
    _replay(batches, end_time)  # warm-up: lazy imports stay out of it
    profile = cProfile.Profile()
    profile.enable()
    try:
        analysis = _replay(batches, end_time)
    finally:
        profile.disable()
    assert analysis["complete"] == MESSAGES and not analysis["incomplete"]
    calls = pstats.Stats(profile).total_calls
    per_message = calls / analysis["complete"]
    assert per_message <= CEILING, (
        f"{per_message:.1f} Python calls per attributed message "
        f"(ceiling {CEILING:.1f})")


def test_bytes_held_per_closed_message(stream_batches):
    batches, end_time = stream_batches
    _replay(batches, end_time)  # warm-up: lazy imports stay out of it
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        stream = _fed(batches)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(stream.closed) == MESSAGES and not stream.open
    per_message = held / MESSAGES
    assert per_message <= BYTES_CEILING, (
        f"the stream holds {per_message:.0f} bytes per closed message "
        f"before finish (ceiling {BYTES_CEILING:.0f})")
    analysis = stream.finish(False, end_time)
    assert analysis["complete"] == MESSAGES
