"""Counter-based pseudo-random generator for reproducible simulation runs.

The generator is splitmix64: draw ``i`` of a stream seeded with ``s`` is the
splitmix64 hash of ``s + (i + 1) * GOLDEN`` (64-bit wrapping arithmetic).
Each draw is a pure function of (seed, counter), so streams can be split by
trial index and regenerated in any order or partitioning without changing
the values drawn. ``derive_seed`` folds an index path into a fresh seed for
per-trial or per-worker substreams. The full recipe is documented in the
README so runs can be reproduced outside this package.

``SplitMix64Lanes`` runs the per-trial streams of a block of consecutive
trials side by side as ``uint64`` arrays (numpy arithmetic wraps modulo
2**64 like the masked integer arithmetic here), so lane ``j`` draws exactly
what ``SplitMix64(derive_seed(seed, start + j))`` draws.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(z: int) -> int:
    """splitmix64 finalizer: a bijective avalanche hash of a 64-bit word."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(seed: int, *path: int) -> int:
    """Derive a substream seed from a master seed and an index path.

    Folding is order-sensitive: ``derive_seed(s, a, b)`` differs from
    ``derive_seed(s, b, a)``. Used to give every trial its own stream.
    """
    s = seed & _MASK64
    for index in path:
        s = mix64(s ^ mix64((index + 1) * _GOLDEN & _MASK64))
    return s


class SplitMix64:
    """Seeded splitmix64 stream exposing the draws the samplers need."""

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_uint64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return mix64(self._state)

    def random(self) -> float:
        """Uniform float in [0, 1) built from the top 53 bits of one draw."""
        return (self.next_uint64() >> 11) * 2.0**-53

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n), unbiased via rejection sampling."""
        if n <= 0:
            raise ValueError(f"randbelow needs a positive bound, got {n}")
        limit = _MASK64 + 1 - ((_MASK64 + 1) % n)
        while True:
            u = self.next_uint64()
            if u < limit:
                return u % n


def mix64_lanes(z: np.ndarray) -> np.ndarray:
    """:func:`mix64` of every element of a ``uint64`` array (input left intact)."""
    z = z ^ (z >> np.uint64(30))
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


class SplitMix64Lanes:
    """The trial streams ``derive_seed(seed, i)`` for ``start <= i < stop``,
    advanced in step: each draw returns one ``uint64`` per trial."""

    __slots__ = ("_state",)

    def __init__(self, seed: int, start: int, stop: int) -> None:
        index = np.arange(start + 1, stop + 1, dtype=np.uint64)
        index *= np.uint64(_GOLDEN)
        seed_lanes = mix64_lanes(index)
        seed_lanes ^= np.uint64(seed & _MASK64)
        self._state = mix64_lanes(seed_lanes)

    def next_uint64(self) -> np.ndarray:
        self._state += np.uint64(_GOLDEN)
        return mix64_lanes(self._state)

    def random(self) -> np.ndarray:
        """One uniform float in [0, 1) per lane, as :meth:`SplitMix64.random`."""
        return (self.next_uint64() >> np.uint64(11)) * 2.0**-53
