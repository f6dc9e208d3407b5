"""Signed progression functionals and their maxima over relabelings.

The central quantity is the sign-weighted progression average

    (1/(m*N)) * sum_i sigma_i * sum_x prod_{l=0}^{k-1} Z(x + l*d_i)

for Z in {-1,+1}^N or {0,1}^N.  Everything here reduces to integer
numerators over the explicit denominator m*N, so maxima and inequalities
between the functionals are checked without floating point.
"""
from __future__ import annotations

from fractions import Fraction
from math import ceil, log
from typing import NamedTuple, Optional

import numpy as np

from . import _kernels
from .counting import DifferenceSequence
from .groups import ApParams, as_density, single_support

GOOD_SET_ATTEMPTS = 200
COLLISION_SLACK = 4.0  # of every collision threshold; read at call time


class IndexPartition:
    """A two-part split of sequence indices 0..m-1."""

    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = tuple(sorted(int(i) for i in left))
        self.right = tuple(sorted(int(i) for i in right))
        m = len(self.left) + len(self.right)
        if set(self.left) | set(self.right) != set(range(m)) or \
                set(self.left) & set(self.right):
            raise ValueError("parts must split 0..m-1 exactly")

    @classmethod
    def random_balanced(cls, m: int, rng) -> "IndexPartition":
        """Uniform split with floor(m/2) indices on the left."""
        if m < 1:
            raise ValueError("m must be at least 1")
        perm = rng.permutation(m)
        half = m // 2
        return cls(tuple(perm[:half]), tuple(perm[half:]))


def _as_signs(vec, length: int) -> np.ndarray:
    arr = np.ascontiguousarray(vec, dtype=np.int64)
    if arr.shape != (length,):
        raise ValueError(f"expected a vector of length {length}")
    if not np.all(np.abs(arr) == 1):
        raise ValueError("entries must be -1 or +1")
    return arr


def _window_products(seq: DifferenceSequence, zz: np.ndarray, k: int) -> np.ndarray:
    """H[i, x] = prod_{l=1}^{k-1} Z(x + l*d_i), shape (m, N)."""
    n = seq.n
    diffs = np.asarray(seq.entries, dtype=np.int64)
    idx = (np.arange(n)[None, :, None]
           + diffs[:, None, None] * np.arange(1, k)[None, None, :]) % n
    return zz[idx].prod(axis=2)


def verify_cauchy_schwarz_step(seq: DifferenceSequence, sigma, Z, k: int) -> bool:
    """Check S^2 <= N * T with S the signed numerator and T the paired square.

    With g = sigma H, the signed numerator is S = g . Z, and
    T = sum_x g(x)^2 expands to the pair sum over (i, j) with window
    products, which is the square-and-split step applied pointwise.
    Both sides are exact integers.
    """
    n = seq.n
    sig = _as_signs(sigma, len(seq))
    zz = _as_signs(Z, n)
    g = sig @ _window_products(seq, zz, k)
    s = int(g @ zz)
    t = int(g @ g)
    return s * s <= n * t


# ---------------------------------------------------------------------------
# maximization over relabelings


def _terms(seq: DifferenceSequence, sigma, k: int):
    """Group (i, x) terms by their set of distinct points, with integer coefficients.

    Zero coefficients are discarded, and the empty support is the base.
    """
    n = seq.n
    sig = _as_signs(sigma, len(seq))
    terms: dict[tuple[int, ...], int] = {}
    for i, d in enumerate(seq.entries):
        for x in range(n):
            supp = tuple(sorted({(x + step * d) % n for step in range(k)}))
            terms[supp] = terms.get(supp, 0) + int(sig[i])
    base = terms.pop((), 0)
    return {s: c for s, c in terms.items() if c != 0}, base


def _enumerate(terms, base, n, signed: bool) -> int:
    """Exact maximum of |base + terms| over {-1,+1}^n or {0,1}^n.

    A term with coefficient c on support t is worth c * (-1)^j on the
    {-1,+1} cube and c * [j = |t|] on the {0,1} cube, where j counts the
    support points set to -1 or to 1.  Only the involved vertices are
    enumerated; needs n <= ``_kernels.ENUM_LIMIT``.
    """
    if n > _kernels.ENUM_LIMIT:
        raise ValueError(f"exact enumeration limited to N <= {_kernels.ENUM_LIMIT}")
    if not terms:
        return abs(base)
    involved = sorted({v for s in terms for v in s})
    bit = {v: 1 << i for i, v in enumerate(involved)}
    masks = np.array([sum(map(bit.__getitem__, s)) for s in terms], dtype=np.uint64)
    coef = np.array(list(terms.values()), dtype=np.int64)
    j = np.arange(len(involved) + 1)
    if signed:
        rows = 1 - 2 * (j & 1)[None, :]
    else:
        rows = j[None, :] == np.bitwise_count(masks)[:, None]
    return _kernels.cube_enum_kernel(len(involved), base, masks, coef[:, None] * rows)


def multilinear_dominance(seq: DifferenceSequence, sigma, k: int) -> bool:
    """True when the {-1,+1} maximum dominates the {0,1} maximum.

    Any 0/1 vector is an average of sign vectors, so the multilinear
    maximum over the cube is attained at a vertex of the larger cube;
    this checks that instance by instance with both exact enumerations.
    Both cubes evaluate the same multilinear polynomial, the distinct-point
    terms that ``_terms`` builds: when a progression repeats a point,
    reducing by z^2 = 1 and by a^2 = a gives different polynomials, and
    dominance between two different polynomials need not hold.
    """
    n = seq.n
    terms, base = _terms(seq, sigma, k)
    return _enumerate(terms, base, n, signed=True) >= _enumerate(terms, base, n, signed=False)


def _progression_counts(n: int, k: int) -> np.ndarray:
    """counts[d, mask]: starts x with x, x+d, ..., x+(k-1)d all in the subset mask."""
    inside = ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(bool)
    starts = np.arange(n)[:, None]
    steps = np.arange(k)
    return np.stack([inside[:, (starts + d * steps) % n].all(axis=2).sum(axis=1)
                     for d in range(n)])


def symmetrization_sides(n: int, m: int, k: int) -> tuple[Fraction, Fraction]:
    """Both sides of the symmetrization inequality, exactly.

    Left: expectation over all sequences D in G^m of the max over subsets
    A of |sequence average - group average|.  Right: twice the
    expectation over (D, signs) of the max over A of the signed average.
    Full enumeration of sequences, signs, and subsets; feasible only for
    tiny N and m.  Replacing a mean of independent terms by a random-sign
    average can only double the expected maximum, so left <= right.

    Sequences are taken in blocks of consecutive indices, each a stack
    of rows counts[d_i] summed in int64.  Signs s and -s give the same
    maximum, so only the sign vectors with s_{m-1} = +1 are formed and
    their total is doubled.  The guard bounds the entries formed, m in
    the sign table and n^m * 2^n signed sums per sign vector, at 2^25.
    """
    if k < 1 or m < 1:
        raise ValueError("need k >= 1 and m >= 1")
    if n > 12 or (m + (n ** m << n)) << (m - 1) > 1 << 25:
        raise ValueError("full enumeration limited to tiny N and m")
    counts = _progression_counts(n, k)
    group_counts = counts.sum(axis=0)
    signs = 1 - 2 * ((np.arange(1 << (m - 1))[:, None] >> np.arange(m)) & 1)
    total = n ** m
    block = max(1, (1 << 18) >> (m - 1 + n))  # sequences per block, ~2 MB of signed sums
    lhs_num = 0  # per-D max has denominator m * n^2
    rhs_num = 0  # per-(D, signs) max has denominator m * n
    for lo in range(0, total, block):
        seqs = np.stack(np.unravel_index(np.arange(lo, min(lo + block, total)), (n,) * m),
                        axis=1)
        rows = counts[seqs]  # (sequences, m, 2^n)
        gaps = np.abs(n * rows.sum(axis=1) - m * group_counts)
        lhs_num += int(gaps.max(axis=1).sum())
        rhs_num += 2 * int(np.abs(signs @ rows).max(axis=2).sum())
    lhs = Fraction(lhs_num, n ** m * m * n * n)
    rhs = 2 * Fraction(rhs_num, n ** m * (1 << m) * m * n)
    return lhs, rhs


# ---------------------------------------------------------------------------
# pair-collision diagnostics and the search for well-spread sequences


def is_good_pair(seq: DifferenceSequence, i: int, j: int, r: int) -> bool:
    """True when the step windows of d_i and d_j at 0 hold 4r distinct points.

    That is, the two forward windows {l*d : l in 1..2r} are disjoint and
    neither folds onto itself; only such pairs get a nonzero embedding.
    """
    pts = set(single_support(seq.n, 0, seq.entries[i], r))
    pts.update(single_support(seq.n, 0, seq.entries[j], r))
    return len(pts) == 4 * r


def good_pairs(seq: DifferenceSequence, part: IndexPartition, r: int) -> list[tuple[int, int]]:
    """Cross pairs (i, j) in L x R that are good pairs, in L-major order."""
    return [(i, j) for i in part.left for j in part.right
            if is_good_pair(seq, i, j, r)]


def collision_count(seq: DifferenceSequence, part: IndexPartition, r: int) -> int:
    """Number of cross pairs in L x R that are not good pairs."""
    return len(part.left) * len(part.right) - len(good_pairs(seq, part, r))


def max_multiplicity(seq: DifferenceSequence, r: int) -> int:
    """Largest number of window steps landing on a single nonzero point.

    Counts, for each x != 0, the solutions of l*d_i = x over all sequence
    entries and steps l in -2r..2r; the maximum over x gauges how far the
    sequence is from spreading its windows evenly.
    """
    n = seq.n
    if n == 1:
        return 0
    counts = np.zeros(n, dtype=np.int64)
    for d in seq.entries:
        for step in range(-2 * r, 2 * r + 1):
            counts[(step * d) % n] += 1
    return int(counts[1:].max())


def collision_threshold(n: int, m: int, r: int) -> int:
    """Acceptance bound ceil(COLLISION_SLACK * r^2 m^2 / N) + 1 for collision counts."""
    frac = as_density(COLLISION_SLACK) * r * r * m * m
    return ceil(Fraction(frac, n)) + 1


def multiplicity_threshold(n: int) -> float:
    """Acceptance bound 4 * log N for the window multiplicity."""
    if n < 2:
        raise ValueError("threshold defined for N >= 2")
    return 4.0 * log(n)


class GoodSetResult(NamedTuple):
    seq: DifferenceSequence
    partition: IndexPartition
    collisions: int
    collision_bound: int
    multiplicity: int
    multiplicity_bound: float


class GoodSetSearchError(RuntimeError):
    """Raised when no sampled sequence met both spread bounds."""

    def __init__(self, message: str, best: Optional[GoodSetResult]):
        super().__init__(message)
        self.best = best


def good_set_search(n: int, params: ApParams, m: int, rng) -> GoodSetResult:
    """Sample sequences until one has few collisions and low multiplicity.

    Each of up to ``GOOD_SET_ATTEMPTS`` attempts draws a fresh sequence
    and a balanced partition.  On failure the raised error carries the
    best attempt seen (fewest collisions, then lowest multiplicity).
    """
    r = params.r
    c_bound = collision_threshold(n, m, r)
    m_bound = multiplicity_threshold(n)
    best: Optional[GoodSetResult] = None
    for _ in range(GOOD_SET_ATTEMPTS):
        seq = DifferenceSequence.sample(n, m, rng)
        part = IndexPartition.random_balanced(m, rng)
        coll = collision_count(seq, part, r)
        mult = max_multiplicity(seq, r)
        result = GoodSetResult(seq, part, coll, c_bound, mult, m_bound)
        if coll <= c_bound and mult <= m_bound:
            return result
        if best is None or (coll, mult) < (best.collisions, best.multiplicity):
            best = result
    raise GoodSetSearchError(
        f"no well-spread sequence found in {GOOD_SET_ATTEMPTS} attempts", best)
