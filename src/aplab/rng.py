"""Seeded stream derivation for every randomized code path.

All random draws flow through Philox4x64-10 counter-based generators keyed
by ``(seed, major, minor)``.  A stream's output depends only on its key, not
on how many other streams were consumed first, so trial loops can be run in
any order or split into ranges and still aggregate to the same result.
"""
from __future__ import annotations

import numpy as np
from numpy.random import Generator, Philox

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1


def stream(seed: int, major: int = 0, minor: int = 0) -> Generator:
    """Return the generator keyed by ``(seed, major, minor)``.

    ``major`` and ``minor`` are packed into the second 64-bit key word as
    ``major * 2**32 + minor``, so distinct pairs below 2**32 never collide.
    Typical usage gives each probed parameter its own major id and each
    trial its own minor id.  ``seed`` is the first key word, so it must
    lie in [0, 2**64): a larger seed would alias a smaller one.
    """
    if not 0 <= seed <= _MASK64:
        raise ValueError("stream seed out of range")
    if not 0 <= major <= _MASK32:
        raise ValueError("stream major id out of range")
    if not 0 <= minor <= _MASK32:
        raise ValueError("stream minor id out of range")
    sub = (major << 32) | minor
    key = np.array([seed, sub], dtype=np.uint64)
    return Generator(Philox(key=key))


def spawn_signs(rng: Generator, count: int) -> np.ndarray:
    """Draw a uniform vector in {-1, +1}^count as int8."""
    return (rng.integers(0, 2, size=count, dtype=np.int8) << 1) - 1
