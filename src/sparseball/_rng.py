"""Deterministic 64-bit PRNG: xoshiro256** seeded via splitmix64.

Implemented locally so that generated experiment data is byte-stable across
platforms and library versions; the generator name is recorded in all
experiment metadata.
"""

from __future__ import annotations

MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64_mix(value: int) -> int:
    """splitmix64 output function applied to a single 64-bit value.

    Used both to expand seeds into generator state and to derive
    per-instance seeds from a base seed.
    """
    z = (value + _GOLDEN) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & MASK64


class Xoshiro256StarStar:
    """xoshiro256** with the four state words drawn from a splitmix64 stream."""

    __slots__ = ("_s",)

    def __init__(self, seed: int):
        # word i is output i + 1 of a splitmix64 stream started at seed
        state = [splitmix64_mix((seed + i * _GOLDEN) & MASK64) for i in range(4)]
        if not any(state):  # all-zero state is the one invalid seed
            state[0] = 1
        self._s = state

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self._s
        result = (_rotl((s1 * 5) & MASK64, 7) * 9) & MASK64
        t = (s1 << 17) & MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
        self._s = [s0, s1, s2, s3]
        return result

    def uniform(self) -> float:
        """One double in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def uniforms(self, count: int) -> list[float]:
        return [self.uniform() for _ in range(count)]
