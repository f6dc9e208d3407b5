"""Subset-indexed matrices built from pairs of difference windows.

For a cross pair (d_i, d_j) whose step windows at a common start are
disjoint (4r distinct points), the matrix entry at (S, T) counts the
starts x where S meets each window in exactly r points and T is the
symmetric difference of S with the union window.  Rows and columns are
indexed by the s-subsets of Z/N in colexicographic order.  The heart of
the module is the exact quadratic identity tying these matrices to
window sums of sign products, plus the pruning step that removes heavy
rows without losing control of the matrix norms.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Iterator, Optional

import numpy as np

from . import _kernels, norms
from .counting import DifferenceSequence
from .discrepancy import IndexPartition, good_pairs
from .groups import pair_support, single_support

DIMENSION_CAP_DEFAULT = 20000
DENSE_DIM_CAP = 4096


class DimensionCapError(ValueError):
    """Raised when comb(N, s) exceeds the configured dimension cap."""


class SubsetIndexer:
    """Colexicographic rank/unrank bijection for s-subsets of 0..n-1.

    The rank of a sorted subset a_0 < a_1 < ... is sum_i comb(a_i, i+1);
    subsets compare by their largest differing element.
    """

    def __init__(self, n: int, s: int):
        if n < 0 or s < 0 or s > n:
            raise ValueError("need 0 <= s <= n")
        self.n = n
        self.s = s
        self.count = comb(n, s)

    def rank(self, subset) -> int:
        sub = tuple(subset)
        if len(sub) != self.s:
            raise ValueError(f"subset must have {self.s} elements")
        total = 0
        prev = -1
        for i, a in enumerate(sub):
            if a <= prev or a >= self.n:
                raise ValueError("subset must be strictly increasing within 0..n-1")
            prev = a
            total += comb(a, i + 1)
        return total

    def unrank(self, rank: int) -> tuple[int, ...]:
        if not 0 <= rank < self.count:
            raise ValueError("rank out of range")
        out = []
        rem = rank
        bound = self.n
        for i in range(self.s, 0, -1):
            a = bound - 1
            while comb(a, i) > rem:
                a -= 1
            out.append(a)
            rem -= comb(a, i)
            bound = a
        return tuple(reversed(out))

    def iter_subsets(self) -> Iterator[tuple[int, ...]]:
        """All s-subsets in rank (colex) order.

        The inner subsets must come out in colex order as well, so this
        recurses instead of using lexicographic ``itertools.combinations``;
        the two orders agree only below three elements.
        """
        yield from _colex(self.n, self.s)


def _colex(n: int, s: int) -> Iterator[tuple[int, ...]]:
    if s == 0:
        yield ()
        return
    for top in range(s - 1, n):
        for rest in _colex(top, s - 1):
            yield rest + (top,)


def lift_signs(Z, s: int) -> np.ndarray:
    """Subset products prod_{y in S} Z(y) in colex rank order, as int8."""
    zz = np.ascontiguousarray(Z, dtype=np.int64)
    if zz.ndim != 1 or not np.all(np.abs(zz) == 1):
        raise ValueError("Z must be a vector of -1/+1 entries")
    indexer = SubsetIndexer(zz.shape[0], s)
    out = np.empty(indexer.count, dtype=np.int8)
    for pos, sub in enumerate(indexer.iter_subsets()):
        val = 1
        for y in sub:
            val *= int(zz[y])
        out[pos] = val
    return out


class EmbeddingMatrix:
    """Sparse integer matrix over ranked s-subsets, with window metadata."""

    __slots__ = ("n", "s", "r", "indexer", "entries")

    def __init__(self, n: int, s: int, r: int, entries: Optional[dict] = None):
        self.n = n
        self.s = s
        self.r = r
        self.indexer = SubsetIndexer(n, s)
        self.entries = {k: v for k, v in (entries or {}).items() if v != 0}

    @property
    def dim(self) -> int:
        return self.indexer.count

    def entry(self, row: int, col: int) -> int:
        return self.entries.get((row, col), 0)

    def nnz(self) -> int:
        return len(self.entries)

    def total(self) -> int:
        """Sum of all entries; equals the all-ones quadratic form."""
        return sum(self.entries.values())

    def is_symmetric(self) -> bool:
        return all(self.entries.get((c, r_), 0) == v
                   for (r_, c), v in self.entries.items())

    def row_weights(self) -> np.ndarray:
        """Absolute row sums (the l1 weight of each row)."""
        w = np.zeros(self.dim, dtype=np.int64)
        for (row, _), v in self.entries.items():
            w[row] += abs(v)
        return w

    def quadratic_form(self, vec) -> int:
        """Exact v^T M v for an integer vector over the subset index."""
        arr = np.ascontiguousarray(vec, dtype=np.int64)
        if arr.shape != (self.dim,):
            raise ValueError(f"vector must have length {self.dim}")
        return sum(v * int(arr[row]) * int(arr[col])
                   for (row, col), v in self.entries.items())

    def to_coo(self):
        keys = sorted(self.entries)
        rows = np.array([k[0] for k in keys], dtype=np.int64)
        cols = np.array([k[1] for k in keys], dtype=np.int64)
        vals = np.array([self.entries[k] for k in keys], dtype=np.int64)
        return rows, cols, vals

    def to_dense(self) -> np.ndarray:
        if self.dim > DENSE_DIM_CAP:
            raise ValueError(f"dense form limited to dimension {DENSE_DIM_CAP}")
        out = np.zeros((self.dim, self.dim), dtype=np.float64)
        for (row, col), v in self.entries.items():
            out[row, col] = v
        return out

    def to_sparse(self):
        from scipy.sparse import coo_matrix

        rows, cols, vals = self.to_coo()
        return coo_matrix((vals.astype(np.float64), (rows, cols)),
                          shape=(self.dim, self.dim)).tocsr()

    def scale_add(self, others: list[tuple[int, "EmbeddingMatrix"]]) -> "EmbeddingMatrix":
        """This matrix plus an integer combination of compatible matrices."""
        acc = dict(self.entries)
        for coef, other in others:
            if (other.n, other.s, other.r) != (self.n, self.s, self.r):
                raise ValueError("matrices are indexed by different subset spaces")
            for key, v in other.entries.items():
                acc[key] = acc.get(key, 0) + coef * v
        return EmbeddingMatrix(self.n, self.s, self.r, acc)

    def prune(self, threshold: float) -> tuple["EmbeddingMatrix", tuple[int, ...]]:
        """Zero every row and column whose l1 weight reaches the threshold.

        Surviving rows then have weight strictly below the threshold,
        which caps the 1->1 norm and hence the spectral norm of the
        symmetric remainder.
        """
        weights = self.row_weights()
        cut = {int(i) for i in np.flatnonzero(weights >= threshold)}
        kept = {k: v for k, v in self.entries.items()
                if k[0] not in cut and k[1] not in cut}
        return EmbeddingMatrix(self.n, self.s, self.r, kept), tuple(sorted(cut))

    def __eq__(self, other) -> bool:
        return (isinstance(other, EmbeddingMatrix)
                and (self.n, self.s, self.r) == (other.n, other.s, other.r)
                and self.entries == other.entries)

    def __repr__(self) -> str:
        return (f"EmbeddingMatrix(N={self.n}, s={self.s}, r={self.r}, "
                f"dim={self.dim}, nnz={self.nnz()})")


def is_good_pair(seq: DifferenceSequence, i: int, j: int, r: int) -> bool:
    """True when the two step windows at 0 are disjoint with no collisions."""
    pts = pair_support(seq.group, 0, seq.entries[i], seq.entries[j], r)
    return len(pts) == 4 * r


def pair_embedding(seq: DifferenceSequence, i: int, j: int, s: int, r: int,
                   dimension_cap: int = DIMENSION_CAP_DEFAULT) -> EmbeddingMatrix:
    """The subset-pair matrix for entries i and j of the sequence.

    Built start by start: choose r points in each window and s-2r points
    off the union; that fixes the row subset S, and the column subset is
    forced as the symmetric difference with the union window.  Pairs with
    colliding windows give the zero matrix.
    """
    group = seq.group
    n = group.modulus
    if s < 2 * r:
        raise ValueError("block size s must be at least 2r")
    if comb(n, s) > dimension_cap:
        raise DimensionCapError(
            f"comb({n}, {s}) = {comb(n, s)} exceeds the dimension cap {dimension_cap}")
    if not is_good_pair(seq, i, j, r):
        return EmbeddingMatrix(n, s, r, {})
    d_i, d_j = seq.entries[i], seq.entries[j]
    indexer = SubsetIndexer(n, s)
    entries: dict[tuple[int, int], int] = {}
    for x in range(n):
        win_i = single_support(group, x, d_i, r)
        win_j = single_support(group, x, d_j, r)
        union = set(win_i) | set(win_j)
        free = [y for y in range(n) if y not in union]
        for pick_i in combinations(win_i, r):
            for pick_j in combinations(win_j, r):
                half = set(pick_i) | set(pick_j)
                other = union - half
                for rest in combinations(free, s - 2 * r):
                    row = indexer.rank(tuple(sorted(half.union(rest))))
                    col = indexer.rank(tuple(sorted(other.union(rest))))
                    key = (row, col)
                    entries[key] = entries.get(key, 0) + 1
    return EmbeddingMatrix(n, s, r, entries)


def embedding_scale(n: int, s: int, r: int) -> int:
    """comb(2r, r)^2 * comb(n-4r, s-2r), the per-start subset count."""
    return comb(2 * r, r) ** 2 * comb(n - 4 * r, s - 2 * r)


def embedding_total_closed_form(n: int, s: int, r: int) -> int:
    """All-ones quadratic form of a good-pair matrix: scale * N."""
    return embedding_scale(n, s, r) * n


def pair_window_sum(seq: DifferenceSequence, i: int, j: int, r: int, Z) -> int:
    """sum_x prod over the union window at x of Z, an exact integer."""
    group = seq.group
    n = group.modulus
    zz = np.ascontiguousarray(Z, dtype=np.int64)
    if zz.shape != (n,) or not np.all(np.abs(zz) == 1):
        raise ValueError("Z must be a -1/+1 vector over the group")
    total = 0
    for x in range(n):
        val = 1
        for y in pair_support(group, x, seq.entries[i], seq.entries[j], r):
            val *= int(zz[y])
        total += val
    return total


def verify_embedding_identity(seq: DifferenceSequence, i: int, j: int, s: int,
                              r: int, Z,
                              dimension_cap: int = DIMENSION_CAP_DEFAULT) -> bool:
    """Exact check of (lift Z)^T M (lift Z) == scale * window sum.

    For colliding pairs the matrix is zero and the check degenerates to
    the quadratic form vanishing.
    """
    mat = pair_embedding(seq, i, j, s, r, dimension_cap)
    lifted = lift_signs(Z, s)
    quad = mat.quadratic_form(lifted)
    if not is_good_pair(seq, i, j, r):
        return quad == 0
    rhs = embedding_scale(mat.n, s, r) * pair_window_sum(seq, i, j, r, Z)
    return quad == rhs


def aggregate_pair_embeddings(seq: DifferenceSequence, i: int, tau, right, s: int,
                              r: int,
                              dimension_cap: int = DIMENSION_CAP_DEFAULT) -> EmbeddingMatrix:
    """Signed sum over the right part: sum_j tau_j * M(i, j).

    ``tau`` is indexed by position in ``right``.  Colliding pairs
    contribute nothing, matching their zero matrices.
    """
    right = tuple(right)
    ta = np.ascontiguousarray(tau, dtype=np.int64)
    if ta.shape != (len(right),) or not np.all(np.abs(ta) == 1):
        raise ValueError("tau must be a -1/+1 vector matching the right part")
    n = seq.group.modulus
    acc = EmbeddingMatrix(n, s, r, {})
    pieces = [(int(ta[pos]), pair_embedding(seq, i, j, s, r, dimension_cap))
              for pos, j in enumerate(right)]
    return acc.scale_add(pieces)


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


def default_prune_threshold(n: int, k: int, m: int) -> float:
    """Row-weight cutoff (log N)^k * m / N^(1 - 2/k)."""
    if n < 2:
        raise ValueError("threshold defined for N >= 2")
    return (np.log(n) ** k) * m / n ** (1.0 - 2.0 / k)


def prune_distance(original: EmbeddingMatrix, pruned: EmbeddingMatrix) -> int:
    """Total l1 weight of the removed entries.

    Summing the removed rows' weights bounds the max-over-sign-vectors
    bilinear gap between the two matrices, since each sign pattern picks
    every entry with coefficient of modulus one.
    """
    if (original.n, original.s, original.r) != (pruned.n, pruned.s, pruned.r):
        raise ValueError("matrices are indexed by different subset spaces")
    diff = dict(original.entries)
    for key, v in pruned.entries.items():
        diff[key] = diff.get(key, 0) - v
    return sum(abs(v) for v in diff.values())


@dataclass(frozen=True)
class ChainReport:
    """Outcome of the end-to-end lower-bound verification."""

    identity_ok: bool
    quadratic: int
    closed_form: int
    norm_lower: float
    norm_is_exact: bool
    spectral_upper: float
    ok: bool


def verify_lower_bound_chain(seq: DifferenceSequence, part: IndexPartition,
                             sigma, tau, s: int, r: int, Z, *,
                             dimension_cap: int = DIMENSION_CAP_DEFAULT) -> ChainReport:
    """Check the chain: window sums equal the quadratic form, which the
    inf->1 norm of the aggregated matrix dominates.

    The aggregated matrix is sum over (i, j) in L x R of sigma_i tau_j
    M(i, j).  Its quadratic form at lift(Z) must equal the closed-form
    window sum (exact integers), and |quadratic| must lie below
    dim * spectral.  Up to ``_kernels.ENUM_LIMIT`` the inf->1 norm is
    enumerated exactly and must dominate |quadratic| as well.  Above it
    ``norm_lower`` is |quadratic| itself, a valid lower bound (lift(Z) is
    a sign vector) that cannot fail the comparison, so ``ok`` leaves it
    out.
    """
    sig = np.ascontiguousarray(sigma, dtype=np.int64)
    ta = np.ascontiguousarray(tau, dtype=np.int64)
    if sig.shape != (len(part.left),) or not np.all(np.abs(sig) == 1):
        raise ValueError("sigma must be a -1/+1 vector matching the left part")
    if ta.shape != (len(part.right),) or not np.all(np.abs(ta) == 1):
        raise ValueError("tau must be a -1/+1 vector matching the right part")
    n = seq.group.modulus
    acc = EmbeddingMatrix(n, s, r, {})
    pieces = []
    for pos_i, i in enumerate(part.left):
        for pos_j, j in enumerate(part.right):
            pieces.append((int(sig[pos_i]) * int(ta[pos_j]),
                           pair_embedding(seq, i, j, s, r, dimension_cap)))
    mat = acc.scale_add(pieces)
    lifted = lift_signs(Z, s)
    quad = mat.quadratic_form(lifted)
    scale = embedding_scale(n, s, r)
    goods = set(good_pairs(seq, part, r))
    closed = 0
    for pos_i, i in enumerate(part.left):
        for pos_j, j in enumerate(part.right):
            if (i, j) in goods:
                closed += (int(sig[pos_i]) * int(ta[pos_j])
                           * pair_window_sum(seq, i, j, r, Z))
    closed *= scale
    identity_ok = quad == closed

    spectral, _ = norms.spectral_norm(mat)
    upper = mat.dim * spectral
    exact = mat.dim <= _kernels.ENUM_LIMIT
    if exact:
        lower, _ = norms.inf_to_one_exact(mat.to_dense())
    else:
        lower = float(abs(quad))
    tol = 1e-6 * max(1.0, abs(float(quad)))
    ok = (identity_ok and upper + tol >= abs(quad)
          and (not exact or lower + tol >= abs(quad)))
    return ChainReport(identity_ok, quad, closed, lower, exact, upper, ok)
