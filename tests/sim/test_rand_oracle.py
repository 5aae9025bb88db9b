"""The pure-Python PCG64 stream draws what ``numpy.random.default_rng`` draws.

numpy is the oracle here: every call sequence runs on a
:class:`PCG64Stream` and on ``np.random.default_rng`` with the same seed,
and every draw must be equal, bit for bit.  Interleaving the 64-bit
draws (``random``, ``uniform``) with the 32-bit ones (small
``integers``) exercises the shared one-word buffer; ``exponential`` and
``choice`` in mid-sequence exercise the state hand-off to numpy.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim.rand import PCG64Stream, RandomStreams, _seed_words

SEEDS = st.one_of(st.integers(0, 16), st.integers(0, 2**64 - 1))
#: n == 1 draws nothing, powers of two never reject, 2**31 + 3 rejects
#: often, and 2**32 is a bare 32-bit word
RANGES = st.one_of(
    st.sampled_from([1, 2, 4, 2**16, 2**31, 2**31 + 3, 2**32 - 1, 2**32]),
    st.integers(1, 1000))
FLOATS = st.floats(-1e6, 1e6, allow_nan=False)
CALLS = st.lists(st.one_of(
    st.tuples(st.just("random")),
    st.tuples(st.just("uniform"), FLOATS, FLOATS).map(
        lambda c: (c[0], *sorted(c[1:]))),
    st.tuples(st.just("integers"), RANGES),
    st.tuples(st.just("integers_size"), st.integers(-50, 50), RANGES,
              st.integers(0, 6)),
    st.tuples(st.just("exponential"), st.floats(1e-6, 1e3)),
    st.tuples(st.just("choice"), st.integers(1, 40), st.integers(0, 40)),
), max_size=40)


def _draw(rng, call):
    """One call on either generator, as plain Python values."""
    kind, *args = call
    if kind == "random":
        return rng.random()
    if kind == "uniform":
        return rng.uniform(*args)
    if kind == "integers":
        return int(rng.integers(args[0]))
    if kind == "integers_size":
        low, span, size = args
        return [int(v) for v in rng.integers(low, low + span, size)]
    if kind == "exponential":
        return float(rng.exponential(args[0]))
    population, size = args
    size = min(size, population)
    return [int(v) for v in rng.choice(population, size=size, replace=False)]


@settings(max_examples=150, deadline=None)
@given(seed=SEEDS, calls=CALLS)
@example(seed=0, calls=[("integers", 10), ("random",), ("integers", 10)])
@example(seed=2**64 - 1, calls=[("integers", 7), ("exponential", 1.0),
                                 ("integers", 7), ("choice", 10, 3),
                                 ("integers", 7), ("uniform", 0.0, 1.0)])
def test_stream_matches_numpy(seed, calls):
    ours, theirs = PCG64Stream(seed), np.random.default_rng(seed)
    for call in calls:
        assert _draw(ours, call) == _draw(theirs, call), call
    # the streams end in the same state, buffer included
    assert ours.random() == theirs.random()
    assert ours.integers(2**31 + 3) == theirs.integers(2**31 + 3)


@settings(max_examples=100, deadline=None)
@given(seed=st.one_of(st.integers(0, 2**64 - 1), st.integers(0, 2**256)))
def test_seed_words_match_seed_sequence(seed):
    """Seeds wider than the 4-word pool mix their extra words in too."""
    expected = np.random.SeedSequence(seed).generate_state(4, np.uint64)
    assert _seed_words(seed) == [int(w) for w in expected]


def test_unit_range_draws_nothing():
    ours = PCG64Stream(5)
    assert ours.integers(1) == 0
    assert ours.integers(7, 8, 3) == [7, 7, 7]
    assert ours.random() == PCG64Stream(5).random()


@pytest.mark.parametrize("low, high", [(5, 5), (5, 4), (0, 0)])
def test_empty_ranges_raise_like_numpy(low, high):
    with pytest.raises(ValueError):
        np.random.default_rng(0).integers(low, high)
    with pytest.raises(ValueError):
        PCG64Stream(0).integers(low, high)


def test_ranges_wider_than_32_bits_are_refused():
    """numpy draws these with 64-bit words; no caller needs that path."""
    ours = PCG64Stream(0)
    assert ours.integers(-2**31, 2**31) >= -2**31  # exactly 2**32 values
    with pytest.raises(ValueError):
        ours.integers(2**32 + 1)
    with pytest.raises(ValueError):
        ours.integers(-1, 2**32)


def test_uniform_refuses_a_reversed_range_like_numpy():
    with pytest.raises(ValueError):
        np.random.default_rng(0).uniform(1.0, 0.0)
    with pytest.raises(ValueError):
        PCG64Stream(0).uniform(1.0, 0.0)


def test_named_streams_are_default_rng_of_the_substream_seed():
    """RandomStreams keeps its seeds: only the generator class changed."""
    from repro.sim.rand import _substream_seed

    ours = RandomStreams(3).stream("control-ethernet")
    theirs = np.random.default_rng(_substream_seed(3, "control-ethernet"))
    assert [ours.uniform(0.0, 1e-5) for _ in range(50)] == \
        [theirs.uniform(0.0, 1e-5) for _ in range(50)]
