"""Deterministic named random streams.

Every stochastic component (workload think times, daemon skew, ...) draws
from its own named stream so that adding randomness to one component never
perturbs another — runs stay reproducible and comparable across schemes.

A stream is :class:`PCG64Stream`, a pure-Python copy of the generator that
``numpy.random.default_rng(seed)`` returns, bit for bit, so the simulation
path never imports numpy:

- **Seeding** is numpy's ``SeedSequence(seed)``: the seed's little-endian
  32-bit words are hashed into a 4-word pool, the pool words are mixed
  pairwise, and ``generate_state(4, uint64)`` cycles the pool into eight
  hashed words, paired little-endian into ``s0..s3``.  PCG64 then sets
  ``inc = (s2 << 64 | s3) << 1 | 1`` and ``state = inc + (s0 << 64 | s1)``
  and takes one step.
- **Drawing** is PCG64's XSL-RR output: a step is
  ``state = state * MULT + inc`` modulo 2**128, and a 64-bit word is
  ``rotr64(hi ^ lo, state >> 122)`` of the new state.  A 32-bit word
  takes the low half of a fresh 64-bit word and keeps the high half for
  the next 32-bit request, as numpy's bit generator does.
  ``random()`` is ``(next64 >> 11) * 2**-53``, ``uniform(a, b)`` is
  ``a + (b - a) * random()``, and ``integers`` is Lemire's bounded
  method on 32-bit words (ranges of up to 2**32 values).

The two rare draws, ``exponential`` (SRAM flip arrivals) and ``choice``
(fail-stop victims), go to numpy's own ``Generator``, imported on first
use: the stream hands its PCG64 state to a numpy ``PCG64`` and takes it
back after the draw.  Numpy's exponential is a ziggurat whose tables are
compiled into numpy, and any other algorithm would draw different values
and change every fault campaign that uses these draws.
"""

from __future__ import annotations

import hashlib

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_TWO_M53 = 2.0 ** -53

# numpy's SeedSequence constants (32-bit words, pool of 4)
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4


def _seed_words(seed: int) -> list:
    """``SeedSequence(seed).generate_state(4, uint64)`` for an int seed."""
    if seed < 0:
        raise ValueError("seed must be non-negative")
    entropy = []
    while True:
        entropy.append(seed & _MASK32)
        seed >>= 32
        if not seed:
            break
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> 16)

    def mix(x, y):
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ (result >> 16)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0)
            for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))
    hash_const = _INIT_B
    out = []
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = (value * hash_const) & _MASK32
        out.append(value ^ (value >> 16))
    return [out[2 * i] | out[2 * i + 1] << 32 for i in range(_POOL_SIZE)]


class PCG64Stream:
    """``numpy.random.default_rng(seed)``, bit for bit, in pure Python."""

    __slots__ = ("_state", "_inc", "_has_uint32", "_uinteger", "_numpy")

    def __init__(self, seed: int):
        s0, s1, s2, s3 = _seed_words(int(seed))
        self._inc = ((s2 << 64 | s3) << 1 | 1) & _MASK128
        self._state = ((self._inc + (s0 << 64 | s1)) * _PCG_MULT
                       + self._inc) & _MASK128
        self._has_uint32 = False
        self._uinteger = 0
        self._numpy = None

    def _next64(self) -> int:
        state = self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
        word = ((state >> 64) ^ state) & _MASK64
        rot = state >> 122
        return ((word >> rot) | (word << (64 - rot))) & _MASK64

    def _next32(self) -> int:
        if self._has_uint32:
            self._has_uint32 = False
            return self._uinteger
        word = self._next64()
        self._has_uint32 = True
        self._uinteger = word >> 32
        return word & _MASK32

    def random(self) -> float:
        """A float in [0, 1)."""
        # _next64 inlined: this is the per-packet draw of the fault layer
        state = self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
        word = ((state >> 64) ^ state) & _MASK64
        rot = state >> 122
        return ((((word >> rot) | (word << (64 - rot))) & _MASK64) >> 11) * _TWO_M53

    def uniform(self, low: float, high: float) -> float:
        """A float in [low, high)."""
        if high < low:
            raise ValueError("uniform() needs low <= high")
        return low + (high - low) * self.random()

    def integers(self, low: int, high: int | None = None,
                 size: int | None = None):
        """An int in [low, high) (or [0, low)); a list of ``size`` of them.

        The range may hold at most 2**32 values: numpy's 64-bit path for
        wider ranges has no caller, so it is refused, not copied.
        """
        if high is None:
            low, high = 0, low
        n = high - low
        if n <= 0:
            raise ValueError("low >= high")
        if n > 1 << 32:
            raise ValueError("integers() range wider than 2**32")
        if size is None:
            return low + self._bounded(n)
        return [low + self._bounded(n) for _ in range(size)]

    def _bounded(self, n: int) -> int:
        """Lemire's method on 32-bit words, as numpy: an int in [0, n)."""
        if n == 1:
            return 0  # numpy draws nothing for a one-value range
        m = self._next32() * n
        if (m & _MASK32) < n:
            threshold = ((1 << 32) - n) % n
            while (m & _MASK32) < threshold:
                m = self._next32() * n
        return m >> 32

    def exponential(self, *args, **kwargs):
        """numpy's ``Generator.exponential``, drawn from this stream."""
        return self._delegate("exponential", args, kwargs)

    def choice(self, *args, **kwargs):
        """numpy's ``Generator.choice``, drawn from this stream."""
        return self._delegate("choice", args, kwargs)

    def _delegate(self, method: str, args, kwargs):
        """Run one numpy draw on this stream's state and take it back."""
        if self._numpy is None:
            import numpy as np
            self._numpy = np.random.Generator(np.random.PCG64())
        bit_generator = self._numpy.bit_generator
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": self._state, "inc": self._inc},
            "has_uint32": int(self._has_uint32),
            "uinteger": self._uinteger,
        }
        result = getattr(self._numpy, method)(*args, **kwargs)
        state = bit_generator.state
        self._state = state["state"]["state"]
        self._has_uint32 = bool(state["has_uint32"])
        self._uinteger = state["uinteger"]
        return result


def _substream_seed(root_seed: int, name: str) -> int:
    digest = hashlib.sha256(f"{root_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


class RandomStreams:
    """A factory of independent, reproducibly seeded RNGs."""

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._streams: dict[str, PCG64Stream] = {}

    def stream(self, name: str) -> PCG64Stream:
        """The generator for ``name`` (created on first use, then cached)."""
        gen = self._streams.get(name)
        if gen is None:
            gen = PCG64Stream(_substream_seed(self.seed, name))
            self._streams[name] = gen
        return gen

    def fork(self, name: str) -> "RandomStreams":
        """A child factory whose streams are independent of the parent's."""
        return RandomStreams(_substream_seed(self.seed, f"fork:{name}"))
