"""Exact progression counting over subsets of Z/N.

A subset is a Python int bitmask: bit v is set when v is in the set.
Counts are carried as unreduced integer ratios so that averages over a
difference sequence (denominator m*N) and over the whole group, the
sequence 0..N-1 (denominator N^2), can be compared without rounding.
"""
from __future__ import annotations

from typing import NamedTuple


class RationalCount(NamedTuple):
    """An exact count divided by an explicit denominator, left unreduced."""

    numerator: int
    denominator: int


class DifferenceSequence:
    """An ordered tuple of differences d_1..d_m in Z/n, repeats allowed."""

    __slots__ = ("n", "entries")

    def __init__(self, n: int, entries):
        if n < 1:
            raise ValueError("modulus must be a positive integer")
        self.n = n
        self.entries = tuple(int(d) for d in entries)
        if not self.entries:
            raise ValueError("difference sequence must be nonempty")
        for d in self.entries:
            if not 0 <= d < n:
                raise ValueError(f"difference {d} outside 0..{n - 1}")

    @classmethod
    def sample(cls, n: int, m: int, rng) -> "DifferenceSequence":
        """m independent uniform draws from Z/n, order preserved."""
        if m < 1:
            raise ValueError("sequence length must be at least 1")
        return cls(n, rng.integers(0, n, size=m))

    def __len__(self) -> int:
        return len(self.entries)

    def distinct(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.entries)))


def _starts(mask: int, n: int, d: int, k: int) -> int:
    """Number of x with all of x, x+d, ..., x+(k-1)d in the N-bit ``mask``.

    Rotating the mask down by step*d puts bit x + step*d at bit x, so the
    AND over the steps keeps exactly the starts whose progression stays
    inside.
    """
    if not 0 <= mask < 1 << n:
        raise ValueError(f"mask has bits outside 0..{n - 1}")
    full = (1 << n) - 1
    acc = mask
    for step in range(1, k):
        s = step * d % n
        acc &= (mask >> s | mask << (n - s)) & full
    return acc.bit_count()


def ap_average(mask: int, seq: DifferenceSequence, k: int) -> RationalCount:
    """Progression density averaged over the sequence, exact over m*N."""
    n = seq.n
    total = 0
    cache: dict[int, int] = {}
    for d in seq.entries:
        if d not in cache:
            cache[d] = _starts(mask, n, d, k)
        total += cache[d]
    return RationalCount(total, len(seq) * n)

