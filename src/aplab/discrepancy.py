"""Signed progression functionals and their maxima over relabelings.

The central quantity is the sign-weighted progression average

    (1/(m*N)) * sum_i sigma_i * sum_x prod_{l=0}^{k-1} Z(x + l*d_i)

for Z in {-1,+1}^N or {0,1}^N.  Everything here reduces to integer
numerators over the explicit denominator m*N, so maxima and inequalities
between the functionals are checked without floating point.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, log
from typing import Optional

import numpy as np

from . import _kernels
from .counting import DifferenceSequence, RationalCount
from .groups import ApParams, Group, as_density, pair_support

GOOD_SET_ATTEMPTS = 200


@dataclass(frozen=True)
class IndexPartition:
    """A two-part split of sequence indices 0..m-1."""

    left: tuple[int, ...]
    right: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "left", tuple(sorted(int(i) for i in self.left)))
        object.__setattr__(self, "right", tuple(sorted(int(i) for i in self.right)))
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

    @property
    def m(self) -> int:
        return len(self.left) + len(self.right)


def _as_signs(vec, length: int) -> np.ndarray:
    arr = np.ascontiguousarray(vec, dtype=np.int64)
    if arr.shape != (length,):
        raise ValueError(f"expected a vector of length {length}")
    if not np.all(np.abs(arr) == 1):
        raise ValueError("entries must be -1 or +1")
    return arr


def signed_total(seq: DifferenceSequence, sigma, Z, k: int) -> int:
    """Integer numerator of the signed average, exact over m*N."""
    n = seq.group.modulus
    m = len(seq)
    sig = _as_signs(sigma, m)
    zz = _as_signs(Z, n)
    diffs = np.asarray(seq.entries, dtype=np.int64)
    idx = (np.arange(n)[None, :, None]
           + diffs[:, None, None] * np.arange(k)[None, None, :]) % n
    prods = zz[idx].prod(axis=2)
    return int(sig @ prods.sum(axis=1))


def signed_objective(seq: DifferenceSequence, sigma, Z, k: int) -> RationalCount:
    """The signed average itself, numerator over m*N."""
    return RationalCount(signed_total(seq, sigma, Z, k), len(seq) * seq.group.modulus)


def _window_products(seq: DifferenceSequence, zz: np.ndarray, k: int) -> np.ndarray:
    """H[i, x] = prod_{l=1}^{k-1} Z(x + l*d_i), shape (m, N)."""
    n = seq.group.modulus
    diffs = np.asarray(seq.entries, dtype=np.int64)
    idx = (np.arange(n)[None, :, None]
           + diffs[:, None, None] * np.arange(1, k)[None, None, :]) % n
    return zz[idx].prod(axis=2)


def bilinear_objective(seq: DifferenceSequence, sigma, tau, part: IndexPartition,
                       Z, k: int) -> RationalCount:
    """Split form sum_x (sum_{i in L} sigma_i H_i)(sum_{j in R} tau_j H_j).

    H_i(x) is the window product over steps 1..k-1.  Exact numerator over
    |L|*|R|*N.
    """
    if not part.left or not part.right:
        raise ValueError("both parts must be nonempty")
    if part.m != len(seq):
        raise ValueError("partition size does not match the sequence")
    n = seq.group.modulus
    sig = _as_signs(sigma, len(part.left))
    ta = _as_signs(tau, len(part.right))
    zz = _as_signs(Z, n)
    H = _window_products(seq, zz, k)
    gl = sig @ H[list(part.left)]
    gr = ta @ H[list(part.right)]
    return RationalCount(int(gl @ gr), len(part.left) * len(part.right) * n)


def verify_cauchy_schwarz_step(seq: DifferenceSequence, sigma, Z, k: int) -> bool:
    """Check S^2 <= N * T with S the signed numerator and T the paired square.

    T = sum_x (sum_i sigma_i H_i(x))^2 expands to the pair sum over
    (i, j) with window products, which is the square-and-split step
    applied pointwise.  Both sides are exact integers.
    """
    n = seq.group.modulus
    sig = _as_signs(sigma, len(seq))
    zz = _as_signs(Z, n)
    s = signed_total(seq, sigma, Z, k)
    g = sig @ _window_products(seq, zz, k)
    t = int(g @ g)
    return s * s <= n * t


def pair_square_total(seq: DifferenceSequence, sigma, Z, k: int) -> int:
    """T = sum_x sum_{i,j} sigma_i sigma_j H_i(x) H_j(x) as an exact integer."""
    sig = _as_signs(sigma, len(seq))
    zz = _as_signs(Z, seq.group.modulus)
    g = sig @ _window_products(seq, zz, k)
    return int(g @ g)


# ---------------------------------------------------------------------------
# maximization over relabelings


@dataclass(frozen=True)
class SignSearchResult:
    value: Fraction  # max of |signed objective|
    witness: np.ndarray  # a Z attaining value


def _pm_terms(seq: DifferenceSequence, sigma, k: int):
    """Group (i, x) terms by the odd-multiplicity part of their support.

    Over {-1,+1} inputs a point visited an even number of times drops out
    of the product, so terms collapse onto their odd-visit vertex sets
    with integer coefficients; zero coefficients are discarded.
    """
    n = seq.group.modulus
    sig = _as_signs(sigma, len(seq))
    terms: dict[tuple[int, ...], int] = {}
    for i, d in enumerate(seq.entries):
        for x in range(n):
            visits = Counter((x + step * d) % n for step in range(k))
            supp = tuple(sorted(y for y, c in visits.items() if c % 2 == 1))
            terms[supp] = terms.get(supp, 0) + int(sig[i])
    base = terms.pop((), 0)
    return {s: c for s, c in terms.items() if c != 0}, base


def _01_terms(seq: DifferenceSequence, sigma, k: int):
    """Group (i, x) terms by the distinct points of their support."""
    n = seq.group.modulus
    sig = _as_signs(sigma, len(seq))
    terms: dict[tuple[int, ...], int] = {}
    for i, d in enumerate(seq.entries):
        for x in range(n):
            supp = tuple(sorted({(x + step * d) % n for step in range(k)}))
            terms[supp] = terms.get(supp, 0) + int(sig[i])
    base = terms.pop((), 0)
    return {s: c for s, c in terms.items() if c != 0}, base


def _term_arrays(terms: dict[tuple[int, ...], int]):
    """Compact the involved vertices: (involved, coefficients, supports).

    Supports are sorted, and each is rewritten over the compact indices
    0..len(involved)-1.
    """
    involved = sorted({v for s in terms for v in s})
    remap = {v: i for i, v in enumerate(involved)}
    supports = sorted(terms)
    coef = np.array([terms[s] for s in supports], dtype=np.int64)
    return involved, coef, [tuple(remap[v] for v in s) for s in supports]


def _enumerate(terms, base, n, kernel, off, on):
    """Exact maximum of |base + terms| and a witness over {off, on}^n."""
    involved, coef, local = _term_arrays(terms)
    witness = np.full(n, off, dtype=np.int64)
    if not involved:
        return abs(base), witness
    masks = np.array([sum(1 << v for v in s) for s in local], dtype=np.uint64)
    best, mask = kernel(len(involved), base, coef, masks)
    for b, v in enumerate(involved):
        if (int(mask) >> b) & 1:
            witness[v] = on
    return int(best), witness


def _enumerate_pm(terms, base, n):
    return _enumerate(terms, base, n, _kernels.pm_enum_kernel, 1, -1)


def _enumerate_01(terms, base, n):
    return _enumerate(terms, base, n, _kernels.z01_enum_kernel, 0, 1)


def max_over_signs(seq: DifferenceSequence, sigma, k: int) -> SignSearchResult:
    """Maximize |signed objective| over Z in {-1,+1}^N, exactly.

    Walks all 2^v assignments of the involved vertices in chunks of
    consecutive codes, each evaluated from scratch; needs
    N <= ``_kernels.ENUM_LIMIT``.
    """
    n = seq.group.modulus
    if n > _kernels.ENUM_LIMIT:
        raise ValueError(f"exact sign enumeration limited to N <= {_kernels.ENUM_LIMIT}")
    terms, base = _pm_terms(seq, sigma, k)
    best, witness = _enumerate_pm(terms, base, n)
    return SignSearchResult(Fraction(best, len(seq) * n), witness)


def max_over_01(seq: DifferenceSequence, sigma, k: int) -> SignSearchResult:
    """Maximize |signed objective| over subsets A in {0,1}^N, exactly."""
    n = seq.group.modulus
    if n > _kernels.ENUM_LIMIT:
        raise ValueError(f"exact subset enumeration limited to N <= {_kernels.ENUM_LIMIT}")
    terms, base = _01_terms(seq, sigma, k)
    best, witness = _enumerate_01(terms, base, n)
    return SignSearchResult(Fraction(best, len(seq) * n), witness)


def multilinear_dominance(seq: DifferenceSequence, sigma, k: int) -> bool:
    """True when the {-1,+1} maximum dominates the {0,1} maximum.

    Any 0/1 vector is an average of sign vectors, so the multilinear
    maximum over the cube is attained at a vertex of the larger cube;
    this checks that instance by instance with both exact enumerations.
    Both cubes evaluate the same multilinear polynomial, the distinct-point
    terms of ``_01_terms``: when a progression repeats a point, reducing by
    z^2 = 1 and by a^2 = a gives different polynomials, and dominance
    between two different polynomials need not hold.
    """
    n = seq.group.modulus
    if n > _kernels.ENUM_LIMIT:
        raise ValueError(f"dominance check limited to N <= {_kernels.ENUM_LIMIT}")
    terms, base = _01_terms(seq, sigma, k)
    pm_best, _ = _enumerate_pm(terms, base, n)
    zo_best, _ = _enumerate_01(terms, base, n)
    return pm_best >= zo_best


def symmetrization_sides(group: Group, m: int, k: int) -> tuple[Fraction, Fraction]:
    """Both sides of the symmetrization inequality, exactly.

    Left: expectation over all sequences D in G^m of the max over subsets
    A of |sequence average - group average|.  Right: twice the
    expectation over (D, signs) of the max over A of the signed average.
    Full enumeration of sequences, signs, and subsets; feasible only for
    tiny N and m.  Replacing a mean of independent terms by a random-sign
    average can only double the expected maximum, so left <= right.
    """
    from itertools import product

    n = group.modulus
    if n > 12 or n ** m > 200000:
        raise ValueError("full enumeration limited to tiny N and m")
    if k < 1 or m < 1:
        raise ValueError("need k >= 1 and m >= 1")
    # counts[d][mask] = number of starts x with the whole progression in A
    counts = [[0] * (1 << n) for _ in range(n)]
    for d in range(n):
        for mask in range(1 << n):
            c = 0
            for x in range(n):
                ok = True
                for step in range(k):
                    if not (mask >> ((x + step * d) % n)) & 1:
                        ok = False
                        break
                c += ok
            counts[d][mask] = c
    group_counts = [sum(counts[d][mask] for d in range(n))
                    for mask in range(1 << n)]
    lhs_num = 0  # per-D max has denominator m * n^2
    rhs_num = 0  # per-(D, signs) max has denominator m * n
    for seq in product(range(n), repeat=m):
        best = 0
        for mask in range(1 << n):
            gap = abs(n * sum(counts[d][mask] for d in seq)
                      - m * group_counts[mask])
            if gap > best:
                best = gap
        lhs_num += best
        for signs in product((1, -1), repeat=m):
            best = 0
            for mask in range(1 << n):
                val = abs(sum(s * counts[d][mask] for s, d in zip(signs, seq)))
                if val > best:
                    best = val
            rhs_num += best
    lhs = Fraction(lhs_num, n ** m * m * n * n)
    rhs = 2 * Fraction(rhs_num, n ** m * (1 << m) * m * n)
    return lhs, rhs


# ---------------------------------------------------------------------------
# pair-collision diagnostics and the search for well-spread sequences


def collision_count(seq: DifferenceSequence, part: IndexPartition, r: int) -> int:
    """Number of cross pairs whose step windows at 0 overlap.

    A pair (i, j) from L x R is well spread when the union of the two
    forward windows {l*d : l in 1..2r} has the full 4r points.
    """
    group = seq.group
    bad = 0
    for i in part.left:
        for j in part.right:
            pts = pair_support(group, 0, seq.entries[i], seq.entries[j], r)
            if len(pts) < 4 * r:
                bad += 1
    return bad


def good_pairs(seq: DifferenceSequence, part: IndexPartition, r: int) -> list[tuple[int, int]]:
    """Cross pairs (i, j) whose windows at 0 are disjoint and collision free."""
    group = seq.group
    out = []
    for i in part.left:
        for j in part.right:
            pts = pair_support(group, 0, seq.entries[i], seq.entries[j], r)
            if len(pts) == 4 * r:
                out.append((i, j))
    return out


def max_multiplicity(seq: DifferenceSequence, r: int) -> int:
    """Largest number of window steps landing on a single nonzero point.

    Counts, for each x != 0, the solutions of l*d_i = x over all sequence
    entries and steps l in -2r..2r; the maximum over x gauges how far the
    sequence is from spreading its windows evenly.
    """
    n = seq.group.modulus
    if n == 1:
        return 0
    counts = np.zeros(n, dtype=np.int64)
    for d in seq.entries:
        for step in range(-2 * r, 2 * r + 1):
            counts[(step * d) % n] += 1
    return int(counts[1:].max())


def collision_threshold(n: int, m: int, r: int, slack=4.0) -> int:
    """Acceptance bound ceil(slack * r^2 m^2 / N) + 1 for collision counts."""
    frac = as_density(slack) * r * r * m * m
    return ceil(Fraction(frac, n)) + 1


def multiplicity_threshold(n: int) -> float:
    """Acceptance bound 4 * log N for the window multiplicity."""
    if n < 2:
        raise ValueError("threshold defined for N >= 2")
    return 4.0 * log(n)


@dataclass(frozen=True)
class GoodSetResult:
    seq: DifferenceSequence
    partition: IndexPartition
    collisions: int
    collision_bound: int
    multiplicity: int
    multiplicity_bound: float
    attempts_used: int


class GoodSetSearchError(RuntimeError):
    """Raised when no sampled sequence met both spread bounds."""

    def __init__(self, message: str, best: Optional[GoodSetResult]):
        super().__init__(message)
        self.best = best


def good_set_search(group: Group, params: ApParams, m: int, rng,
                    slack=4.0) -> GoodSetResult:
    """Sample sequences until one has few collisions and low multiplicity.

    Each of up to ``GOOD_SET_ATTEMPTS`` attempts draws a fresh sequence
    and a balanced partition.  On failure the raised error carries the
    best attempt seen (fewest collisions, then lowest multiplicity).
    """
    r = params.r
    n = group.modulus
    c_bound = collision_threshold(n, m, r, slack)
    m_bound = multiplicity_threshold(n)
    best: Optional[GoodSetResult] = None
    for made in range(1, GOOD_SET_ATTEMPTS + 1):
        seq = DifferenceSequence.sample(group, m, rng)
        part = IndexPartition.random_balanced(m, rng)
        coll = collision_count(seq, part, r)
        mult = max_multiplicity(seq, r)
        result = GoodSetResult(seq, part, coll, c_bound, mult, m_bound, made)
        if coll <= c_bound and mult <= m_bound:
            return result
        if best is None or (coll, mult) < (best.collisions, best.multiplicity):
            best = result
    raise GoodSetSearchError(
        f"no well-spread sequence found in {GOOD_SET_ATTEMPTS} attempts", best)
