"""Seedable, platform-stable random primitives.

Every stochastic component in this package (graph generation and error
sampling) draws from the SplitMix64 generator implemented here instead of a
library RNG, so that a fixed (seed, stream) pair reproduces bit-identical
values across platforms and interpreter versions. SplitMix64 is the 64-bit
mixing generator from SplittableRandom (Steele, Lea and Flood); it needs
only integer add, multiply, xor and shift.
"""
from __future__ import annotations

import contextlib
import math
import numbers
import operator

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(z: int) -> int:
    """SplitMix64 finalizer: a bijective avalanche mix of one 64-bit word."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def exact_int(value, what: str) -> int:
    """``value`` as a Python int, or a ValueError naming it as ``what``:
    numpy integers pass, while 1.5 and 2.0 are refused, not truncated, and
    True is refused, not read as 1."""
    with contextlib.suppress(TypeError):
        if not isinstance(value, bool):
            return operator.index(value)
    raise ValueError(f"{what} {value!r} is not an integer")


def positive_real(value, what: str) -> float:
    """``value`` as a positive finite float, or a ValueError naming it as
    ``what``: numpy scalars and ints pass, while True and "0.05" are
    refused, not read as 1.0 and 0.05."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        with contextlib.suppress(OverflowError):  # an int past the float range
            if math.isfinite(x := float(value)) and x > 0.0:
                return x
    raise ValueError(f"{what} must be a positive finite real, got {value!r}")


def derive_key(seed: int, *streams: int) -> int:
    """Fold stream identifiers into a seed, one mix round per component.

    Distinct (seed, streams...) tuples give effectively independent keys.
    This is what lets sweep cells and circuit rebuilds sample their own
    substreams in any order, or in parallel, without shared generator state.
    A seed that is not an integer is refused.
    """
    key = mix64(exact_int(seed, "seed") ^ _GOLDEN)
    for s in streams:
        key = mix64(key ^ (((s + 1) * _GOLDEN) & _MASK64))
    return key


class SplitMix64:
    """Sequential SplitMix64 stream with uniform-double and shuffle helpers."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return mix64(self._state)

    def random(self) -> float:
        """Uniform double in [0, 1) with 53 significant bits."""
        return (self.next_u64() >> 11) * 2.0 ** -53

    def uniform(self, low: float, high: float) -> float:
        """Uniform double in [low, high)."""
        return low + (high - low) * self.random()

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n), rejection-sampled to avoid modulo bias."""
        if n <= 0:
            raise ValueError("randrange needs n >= 1")
        limit = (_MASK64 + 1) - ((_MASK64 + 1) % n)
        while True:
            r = self.next_u64()
            if r < limit:
                return r % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randrange(i + 1)
            items[i], items[j] = items[j], items[i]
