"""Counter-based pseudo-random generator for reproducible simulation runs.

The generator is splitmix64: draw ``i`` of a stream seeded with ``s`` is the
splitmix64 hash of ``s + (i + 1) * GOLDEN`` (64-bit wrapping arithmetic).
Each draw is a pure function of (seed, counter), so streams can be split by
trial index and regenerated in any order or partitioning without changing
the values drawn. ``derive_seed`` folds an index path into a fresh seed for
per-trial substreams. The full recipe is documented in the README so runs
can be reproduced outside this package.

``lane_draws`` runs the per-trial streams of a block of consecutive trials
side by side as ``uint64`` arrays (numpy arithmetic wraps modulo 2**64 like
the masked integer arithmetic here), so lane ``j`` draws exactly what
``SplitMix64(derive_seed(seed, start + j))`` draws. It returns every word a
block needs as one ``(draws, trials)`` matrix computed in a single
splitmix64 pass. The samplers compare a draw's top 53 bits with the
integer :func:`thresholds` of their probabilities, so no float is formed.
"""

from __future__ import annotations

import threading
from functools import lru_cache

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
        """Uniform integer in [0, n), unbiased via rejection sampling; n is 1
        to 2**64, else ``ValueError``."""
        if n <= 0:
            raise ValueError(f"randbelow needs a positive bound, got {n}")
        if n > _MASK64 + 1:
            raise ValueError(f"randbelow needs a bound of at most 2**64, got {n}")
        limit = _MASK64 + 1 - ((_MASK64 + 1) % n)
        while True:
            u = self.next_uint64()
            if u < limit:
                return u % n


def constant(value: float, dtype=np.uint64) -> np.ndarray:
    """``value`` as a read-only 0-d array of ``dtype``: the operand numpy's
    ufuncs take fastest (see "Constant operands" in the README)."""
    operand = np.array(value, dtype)
    operand.setflags(write=False)
    return operand


_GOLDEN_LANE, _MIX1, _MIX2 = map(constant, (_GOLDEN, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB))
_SHIFT11, _SHIFT27, _SHIFT30, _SHIFT31 = map(constant, (11, 27, 30, 31))


#: Words mixed per pass of :func:`_mix64_in_place`: 128 KiB, so that a chunk
#: and its temporary stay in cache through the eight operations. On a
#: 4 x 65,536 block this is about three times as fast as one pass over it all.
_MIX_CHUNK = 1 << 14


_ARENA = threading.local()


def scratch(words: int) -> np.ndarray:
    """This thread's scratch arena: a flat ``uint64`` array of at least ``words``
    words, grown only when asked for more (see "Scratch arena" in the README)."""
    arena = getattr(_ARENA, "words", None)
    if arena is None or len(arena) < words:
        arena = _ARENA.words = np.empty(words, np.uint64)
    return arena


def _mix64_in_place(z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """:func:`mix64` of every element of a C-contiguous ``uint64`` array,
    written over it, shifting into ``tmp``: ``min(z.size, _MIX_CHUNK)`` words."""
    flat = z.reshape(-1)
    for start in range(0, flat.size, _MIX_CHUNK):
        part = flat[start:start + _MIX_CHUNK]
        shifted = np.right_shift(part, _SHIFT30, tmp[:len(part)])
        part ^= shifted
        part *= _MIX1
        np.right_shift(part, _SHIFT27, shifted)
        part ^= shifted
        part *= _MIX2
        np.right_shift(part, _SHIFT31, shifted)
        part ^= shifted
    return z


def thresholds(p) -> np.ndarray:
    """``ceil(p * 2**53)`` as ``uint64``: a draw's top 53 bits ``m = w >> 11``
    are below it exactly when :meth:`SplitMix64.random` of the draw,
    ``m * 2**-53``, is below ``p``, since scaling a double by 2**53 is exact
    and an integer is below a real exactly when it is below its ceiling."""
    return np.ceil(np.multiply(p, 2.0**53)).astype(np.uint64)


@lru_cache(maxsize=8)
def lane_keys(start: int, stop: int) -> np.ndarray:
    """``mix64((i + 1) * GOLDEN)`` for ``start <= i < stop``: the part of
    ``derive_seed(seed, i)`` that does not depend on the seed.

    Cached for the last few ranges and returned read-only, since every run
    over the same trials shares them. Mixed through the head of the
    :func:`scratch` arena, which :func:`_draw_lanes` has not yet written.
    """
    index = np.arange(start + 1, stop + 1, dtype=np.uint64)
    index *= _GOLDEN_LANE
    keys = _mix64_in_place(index, scratch(min(len(index), _MIX_CHUNK)))
    keys.setflags(write=False)
    return keys


#: ``(r + 1) * GOLDEN`` for draws ``r = 0..7`` of a stream, as a column that
#: :func:`lane_draws` slices: more than any block draws (the largest
#: settings and source counts).
_COUNTERS = np.arange(1, 9, dtype=np.uint64)[:, None] * _GOLDEN_LANE


def lane_draws(seed: int, start: int, stop: int, k: int) -> np.ndarray:
    """The first ``k`` draws of the trial streams ``derive_seed(seed, i)`` for
    ``start <= i < stop``, as a ``(k, stop - start)`` matrix: entry ``(r, j)``
    is draw ``r`` of trial ``start + j``, that is
    ``mix64(derive_seed(seed, start + j) + (r + 1) * GOLDEN)``. One
    splitmix64 pass computes the whole matrix. A ``k`` below 0 or beyond
    the :data:`_COUNTERS` table raises ``ValueError``."""
    if not 0 <= k <= len(_COUNTERS):
        raise ValueError(f"lane_draws makes 0 to {len(_COUNTERS)} draws a trial, got {k}")
    return _draw_lanes(seed, start, stop, max(k, 1))[:k].copy()


def _draw_lanes(seed: int, start: int, stop: int, k: int) -> np.ndarray:
    """:func:`lane_draws` for ``k >= 1`` in this thread's :func:`scratch`
    arena: the matrix, then each trial's state, then the mixing scratch."""
    n = stop - start
    words = scratch(k * n + max(n, min(k * n, _MIX_CHUNK)))
    draws, state = words[:k * n].reshape(k, n), words[k * n:(k + 1) * n]
    np.bitwise_xor(lane_keys(start, stop), np.asarray(seed & _MASK64, np.uint64), state)
    np.add(_COUNTERS[:k], _mix64_in_place(state, words), draws)  # mixing in the unwritten matrix
    return _mix64_in_place(draws, words[k * n:])
