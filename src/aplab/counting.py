"""Exact progression counting over subsets of Z/N.

Counts are carried as unreduced integer ratios so that averages over a
difference sequence (denominator m*N) and over the whole group
(denominator N^2) can be compared without rounding.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import _kernels
from .groups import Group


class RationalCount(NamedTuple):
    """An exact count divided by an explicit denominator, left unreduced."""

    numerator: int
    denominator: int

    @property
    def value(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)


class SubsetMask:
    """A subset of Z/N stored as a 0/1 byte vector with cached cardinality."""

    __slots__ = ("group", "membership", "cardinality")

    def __init__(self, group: Group, membership):
        arr = np.ascontiguousarray(membership, dtype=np.uint8)
        if arr.ndim != 1 or arr.shape[0] != group.modulus:
            raise ValueError("membership vector length must equal the group modulus")
        if arr.max(initial=0) > 1:
            raise ValueError("membership entries must be 0 or 1")
        self.group = group
        self.membership = arr
        self.cardinality = int(arr.sum())

    @classmethod
    def from_indices(cls, group: Group, indices) -> "SubsetMask":
        arr = np.zeros(group.modulus, dtype=np.uint8)
        for x in indices:
            if not 0 <= x < group.modulus:
                raise ValueError(f"index {x} outside 0..{group.modulus - 1}")
            arr[x] = 1
        return cls(group, arr)

    def indices(self) -> tuple[int, ...]:
        return tuple(int(i) for i in np.flatnonzero(self.membership))

    def __eq__(self, other) -> bool:
        return (isinstance(other, SubsetMask)
                and self.group == other.group
                and bool(np.array_equal(self.membership, other.membership)))

    def __repr__(self) -> str:
        return f"SubsetMask(N={self.group.modulus}, size={self.cardinality})"


@dataclass(frozen=True)
class DifferenceSequence:
    """An ordered tuple of differences d_1..d_m, repeats allowed."""

    group: Group
    entries: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(int(d) for d in self.entries))
        if not self.entries:
            raise ValueError("difference sequence must be nonempty")
        for d in self.entries:
            if not 0 <= d < self.group.modulus:
                raise ValueError(f"difference {d} outside 0..{self.group.modulus - 1}")

    @classmethod
    def sample(cls, group: Group, m: int, rng) -> "DifferenceSequence":
        """m independent uniform draws from the group, order preserved."""
        if m < 1:
            raise ValueError("sequence length must be at least 1")
        draws = rng.integers(0, group.modulus, size=m)
        return cls(group, tuple(int(d) for d in draws))

    def __len__(self) -> int:
        return len(self.entries)

    def distinct(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.entries)))


def ap_count(mask: SubsetMask, d: int, k: int) -> RationalCount:
    """Fraction of starts x whose progression x, x+d, ..., x+(k-1)d stays in the mask.

    Exact value count/N where count is an integer in [0, N].
    """
    n = mask.group.modulus
    if not 0 <= d < n:
        raise ValueError("difference outside the group")
    if k < 1:
        raise ValueError("progression length must be at least 1")
    count = int(_kernels.ap_count_kernel(mask.membership, d, k))
    return RationalCount(count, n)


def ap_average(mask: SubsetMask, seq: DifferenceSequence, k: int) -> RationalCount:
    """Progression density averaged over the sequence, exact over m*N."""
    if mask.group != seq.group:
        raise ValueError("mask and sequence live in different groups")
    n = mask.group.modulus
    total = 0
    cache: dict[int, int] = {}
    for d in seq.entries:
        if d not in cache:
            cache[d] = int(_kernels.ap_count_kernel(mask.membership, d, k))
        total += cache[d]
    return RationalCount(total, len(seq) * n)


def ap_average_all(mask: SubsetMask, k: int) -> RationalCount:
    """Progression density averaged over every difference, exact over N^2."""
    if k < 1:
        raise ValueError("progression length must be at least 1")
    n = mask.group.modulus
    total = sum(_kernels.ap_count_kernel(mask.membership, d, k) for d in range(n))
    return RationalCount(total, n * n)

