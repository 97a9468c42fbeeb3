"""Portable deterministic random numbers for scenario inputs.

The generator is SplitMix64 (Steele-Lea-Vigna), chosen because it is a
named, trivially portable 64-bit algorithm: any implementation in any
language seeded with the same integer produces the same stream, which is
what makes scenario outputs reproducible across toolkits.  Array draws
give bit for bit what as many scalar draws would, and leave the same state.
"""

from __future__ import annotations

import math

import numpy as np

_MASK = 0xFFFFFFFFFFFFFFFF
_GAMMA = 0x9E3779B97F4A7C15
_MIX1, _MIX2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB


class SplitMix64:
    """SplitMix64 stream: state advances by the golden-gamma constant."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return (z ^ (z >> 31)) & _MASK

    def _u64s(self, n: int) -> np.ndarray:
        """The next n outputs as a uint64 array."""
        z = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GAMMA)
        z += np.uint64(self._state)
        self._state = (self._state + n * _GAMMA) & _MASK
        for shift, mix in ((30, _MIX1), (27, _MIX2)):
            z = (z ^ (z >> np.uint64(shift))) * np.uint64(mix)
        return z ^ (z >> np.uint64(31))

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        """Uniform double in [lo, hi) from the top 53 bits."""
        u = (self.next_u64() >> 11) * (1.0 / (1 << 53))
        return lo + (hi - lo) * u

    def uniforms(self, n: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        """n draws of :meth:`uniform` as one array."""
        u = (self._u64s(n) >> np.uint64(11)).astype(float) * (1.0 / (1 << 53))
        return lo + (hi - lo) * u

    def normal(self) -> float:
        """Standard normal via Box-Muller (one value per pair of uniforms)."""
        u1 = self.uniform()
        while u1 == 0.0:
            u1 = self.uniform()
        u2 = self.uniform()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def normals(self, n: int) -> np.ndarray:
        """n draws of :meth:`normal` as one array.  log and cos stay in
        ``math`` (numpy's differ in the last bit); a zero uniform, which
        :meth:`normal` rejects, sends the call down the scalar path."""
        state, u = self._state, self.uniforms(2 * n)
        if not np.all(u):
            self._state = state
            return np.array([self.normal() for _ in range(n)])
        logs = np.array(list(map(math.log, u[0::2].tolist())))
        return np.sqrt(-2.0 * logs) * np.array(
            list(map(math.cos, (2.0 * math.pi * u[1::2]).tolist())))
