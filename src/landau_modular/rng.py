"""Platform-independent seeded randomness for property checks.

A splitmix64 stream: same seed gives the same matrices on every platform
and numpy build, so verification reports are byte-reproducible.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    """The splitmix64 generator (public-domain constants)."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Uniform double in [0, 1) from the top 53 bits."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def complex_matrix(self, n: int) -> np.ndarray:
        """n x n matrix with entries uniform in the complex unit square.

        Draws the same 2n^2 values, in the same row-major (re, im) order, as
        2n^2 calls of uniform(): after k steps the state is
        state + k * gamma mod 2^64, so the whole stream is one uint64 array
        expression (array arithmetic wraps mod 2^64 without a warning).
        """
        count = 2 * n * n
        z = np.arange(1, count + 1, dtype=np.uint64)
        z *= _GAMMA
        z += self.state
        self.state = (self.state + count * _GAMMA) & _MASK
        z ^= z >> 30
        z *= 0xBF58476D1CE4E5B9
        z ^= z >> 27
        z *= 0x94D049BB133111EB
        z ^= z >> 31
        u = (z >> 11).astype(np.float64) * (1.0 / (1 << 53))
        # interleaved (re, im) doubles are exactly the complex128 layout
        return u.view(np.complex128).reshape(n, n)

    def hermitian_matrix(self, n: int) -> np.ndarray:
        a = self.complex_matrix(n)
        return 0.5 * (a + a.conj().T)
