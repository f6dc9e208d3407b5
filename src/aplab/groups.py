"""Modular arithmetic over Z/N, step-window supports and the block size."""
from __future__ import annotations

from fractions import Fraction
from math import ceil

# (k-1)! has to stay far from 64-bit overflow in downstream counting loops.
MAX_PROGRESSION_LENGTH = 20


def as_density(value) -> Fraction:
    """Coerce a density threshold to an exact rational.

    Floats go through their shortest decimal repr first, so 0.4 means 2/5
    rather than its binary approximation.  That keeps ceil(epsilon * N)
    exact; with raw binary floats, 0.4 * 5 rounds up to 3 instead of 2.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        return Fraction(repr(value))
    if isinstance(value, int):
        return Fraction(value)
    return Fraction(str(value))


class ApParams:
    """Progression length and density threshold for one experiment.

    ``k`` is the number of points in the progressions being counted.  k = 2
    (avoiding single differences) is allowed for threshold-growth runs; the
    matrix embedding machinery additionally needs odd k >= 3, which is
    enforced where the half-length ``r`` is consumed.
    """

    __slots__ = ("k", "epsilon")

    def __init__(self, k: int, epsilon=Fraction(1, 2)):
        self.k = k
        self.epsilon = as_density(epsilon)
        if not 2 <= k <= MAX_PROGRESSION_LENGTH:
            raise ValueError(f"k must lie in [2, {MAX_PROGRESSION_LENGTH}]")
        if not 0 < self.epsilon <= 1:
            raise ValueError("epsilon must lie in (0, 1]")

    @property
    def r(self) -> int:
        """Half-length (k-1)/2, defined for odd k only."""
        if self.k % 2 == 0:
            raise ValueError("half-length r requires odd k")
        return (self.k - 1) // 2


def density_target(n: int, params: ApParams) -> int:
    """Smallest admissible set size, ceil(epsilon * N), computed exactly."""
    return ceil(params.epsilon * n)


def default_block_size(n: int, k: int) -> int:
    """floor(N^(1 - 2/k)) computed exactly via an integer k-th root."""
    if k < 3:
        raise ValueError("block size defined for k >= 3")
    target = n ** (k - 2)
    s = max(1, round(target ** (1.0 / k)))
    while s ** k > target:
        s -= 1
    while (s + 1) ** k <= target:
        s += 1
    return max(s, 1)


def single_support(n: int, x: int, d: int, r: int) -> list[int]:
    """The forward window x + d, x + 2d, ..., x + 2r*d mod N, in step order."""
    if r < 1:
        raise ValueError("window half-length r must be at least 1")
    return [(x + step * d) % n for step in range(1, 2 * r + 1)]
