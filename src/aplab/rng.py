"""Seeded stream derivation for every randomized code path.

All random draws flow through Philox4x64-10 counter-based generators keyed
by ``(seed, major, minor)``.  A stream's output depends only on its key, not
on how many other streams were consumed first, so trial loops can be run in
any order or split into ranges and still aggregate to the same result.

The stream is numpy's ``Generator(Philox(key))``, draw for draw.  Its
bounded integer draws run in pure Python, so a run that needs no other
draw never loads numpy: the Philox block is checked against the Random123
known-answer vectors (Salmon et al., "Parallel random numbers: as easy as
1, 2, 3", SC 2011), and the bounded draw is numpy's.  Any other draw goes
to a numpy ``Generator`` built on first need from the stream's state, so
it continues exactly where the pure draws stopped.
"""
from __future__ import annotations

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1


def philox4x64(counter: tuple[int, int, int, int],
               key: tuple[int, int]) -> tuple[int, int, int, int]:
    """The philox4x64-10 block: four 64-bit words from a counter and a key."""
    c0, c1, c2, c3 = counter
    k0, k1 = key
    for _ in range(10):
        # the round multipliers, then the Weyl key bumps (golden ratio, sqrt(3))
        p0 = 0xD2E7470EE14C6C93 * c0
        p1 = 0xCA5A826395121157 * c2
        c0, c1, c2, c3 = ((p1 >> 64) ^ c1 ^ k0, p1 & _MASK64,
                          (p0 >> 64) ^ c3 ^ k1, p0 & _MASK64)
        k0 = (k0 + 0x9E3779B97F4A7C15) & _MASK64
        k1 = (k1 + 0xBB67AE8584CAA73B) & _MASK64
    return c0, c1, c2, c3


class PhiloxStream:
    """numpy's ``Generator(Philox(key))`` whose bounded draws need no numpy.

    The fields mirror numpy's Philox state: the 256-bit counter (as one
    int), the four-word output buffer and its read position, and the spare
    high half of the last 64-bit word.  numpy bumps the counter before it
    computes a block, and its 32-bit draws take the low half of a 64-bit
    word first.  Every attribute other than ``integers`` is the numpy
    generator's.
    """

    def __init__(self, key: tuple[int, int]):
        self._key = key
        self._counter = 0
        self._buffer = (0, 0, 0, 0)
        self._buffer_pos = 4
        self._has_uint32 = 0
        self._uinteger = 0
        self._generator = None

    def _next32(self) -> int:
        if self._has_uint32:
            self._has_uint32 = 0
            return self._uinteger
        if self._buffer_pos == 4:
            self._counter = (self._counter + 1) & ((1 << 256) - 1)
            words = tuple(self._counter >> shift & _MASK64 for shift in (0, 64, 128, 192))
            self._buffer = philox4x64(words, self._key)
            self._buffer_pos = 0
        word = self._buffer[self._buffer_pos]
        self._buffer_pos += 1
        self._has_uint32 = 1
        self._uinteger = word >> 32
        return word & _MASK32

    def _bounded(self, span: int) -> int:
        """A uniform draw from [0, span), 1 < span < 2**32: numpy's 32-bit
        Lemire rejection (Lemire, ACM TOMACS 29, 2019)."""
        product = self._next32() * span
        if product & _MASK32 < span:
            threshold = (_MASK32 + 1 - span) % span
            while product & _MASK32 < threshold:
                product = self._next32() * span
        return product >> 32

    def integers(self, low, high=None, size=None, **options):
        """``Generator.integers``, drawn here when it can be.

        With int bounds, no options and an int size (or none), the draws
        are Python ints: a list of ``size`` of them, or one int.  Ranges
        of 2**32 and more, and every other form, go to numpy and return
        what numpy returns.
        """
        if high is None:
            low, high = 0, low
        if (options or not isinstance(low, int) or not isinstance(high, int)
                or not (size is None or isinstance(size, int) and size >= 0)):
            return self._numpy().integers(low, high, size, **options)
        count = 1 if size is None else size
        span = high - low
        if self._generator is not None or not 0 < span <= _MASK32:
            draws = self._numpy().integers(low, high, count).tolist()
        elif span == 1:
            draws = [low] * count
        else:
            draws = [low + self._bounded(span) for _ in range(count)]
        return draws[0] if size is None else draws

    def _numpy(self):
        """The numpy generator continuing this stream, built on first need."""
        if self._generator is None:
            import numpy as np
            from numpy.random import Generator, Philox

            words = [self._counter >> shift & _MASK64 for shift in (0, 64, 128, 192)]
            bits = Philox(key=np.array(self._key, dtype=np.uint64))
            bits.state = {
                "bit_generator": "Philox",
                "state": {"counter": np.array(words, dtype=np.uint64),
                          "key": np.array(self._key, dtype=np.uint64)},
                "buffer": np.array(self._buffer, dtype=np.uint64),
                "buffer_pos": self._buffer_pos,
                "has_uint32": self._has_uint32,
                "uinteger": self._uinteger,
            }
            self._generator = Generator(bits)
        return self._generator

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self._numpy(), name)


def stream(seed: int, major: int = 0, minor: int = 0) -> PhiloxStream:
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
    return PhiloxStream((seed, (major << 32) | minor))


def spawn_signs(rng, count: int):
    """Draw a uniform vector in {-1, +1}^count as an int8 numpy array."""
    import numpy as np
    return (rng.integers(0, 2, size=count, dtype=np.int8) << 1) - 1
