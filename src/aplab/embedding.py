"""Subset-indexed matrices built from pairs of difference windows.

For a cross pair (d_i, d_j) whose step windows at a common start are
disjoint (4r distinct points), the matrix entry at (S, T) counts the
starts x where S meets each window in exactly r points and T is the
symmetric difference of S with the union window.  Rows and columns are
indexed by the s-subsets of Z/N in colexicographic order
(``colex_subsets``).  The heart of the module is the exact quadratic
identity tying these matrices to window sums of sign products, and the
chain of norm bounds that an aggregate of them satisfies.
"""
from __future__ import annotations

from itertools import combinations
from math import comb
from typing import NamedTuple, Optional

import numpy as np

from . import norms
from .counting import DifferenceSequence
from .discrepancy import IndexPartition, _as_signs, _window_products, is_good_pair
from .groups import single_support

DIMENSION_CAP = 20000  # largest comb(N, s) a pair matrix may index; read at call time


def colex_subsets(n: int, s: int) -> list[tuple[int, ...]]:
    """The s-subsets of 0..n-1 in colexicographic order, each sorted.

    Subsets compare by their largest differing element, so the position
    of a_0 < a_1 < ... is sum_i comb(a_i, i+1).
    """
    return sorted(combinations(range(n), s), key=lambda sub: sub[::-1])


def lift_signs(Z, s: int) -> np.ndarray:
    """Subset products prod_{y in S} Z(y) in colex order, as int8."""
    zz = _as_signs(Z, np.size(Z))
    subsets = colex_subsets(zz.shape[0], s)
    rows = np.array(subsets, dtype=np.int64).reshape(len(subsets), s)
    return zz[rows].prod(axis=1).astype(np.int8)


class EmbeddingMatrix:
    """Sparse integer matrix over colex-ordered s-subsets, with window metadata."""

    __slots__ = ("n", "s", "r", "dim", "entries")

    def __init__(self, n: int, s: int, r: int, entries: Optional[dict] = None):
        self.n = n
        self.s = s
        self.r = r
        self.dim = comb(n, s)
        self.entries = {k: v for k, v in (entries or {}).items() if v != 0}

    def nnz(self) -> int:
        return len(self.entries)

    def quadratic_form(self, vec) -> int:
        """Exact v^T M v for an integer vector over the subset index."""
        arr = np.ascontiguousarray(vec, dtype=np.int64)
        if arr.shape != (self.dim,):
            raise ValueError(f"vector must have length {self.dim}")
        return sum(v * int(arr[row]) * int(arr[col])
                   for (row, col), v in self.entries.items())

    def to_dense(self) -> np.ndarray:
        if self.dim > norms.DENSE_DIM_CAP:
            raise ValueError(f"dense form limited to dimension {norms.DENSE_DIM_CAP}")
        out = np.zeros((self.dim, self.dim), dtype=np.float64)
        for (row, col), v in self.entries.items():
            out[row, col] = v
        return out

    def scale_add(self, others: list[tuple[int, "EmbeddingMatrix"]]) -> "EmbeddingMatrix":
        """This matrix plus an integer combination of compatible matrices."""
        acc = dict(self.entries)
        for coef, other in others:
            if (other.n, other.s, other.r) != (self.n, self.s, self.r):
                raise ValueError("matrices are indexed by different subset spaces")
            for key, v in other.entries.items():
                acc[key] = acc.get(key, 0) + coef * v
        return EmbeddingMatrix(self.n, self.s, self.r, acc)

    def __repr__(self) -> str:
        return (f"EmbeddingMatrix(N={self.n}, s={self.s}, r={self.r}, "
                f"dim={self.dim}, nnz={self.nnz()})")


def pair_embedding(seq: DifferenceSequence, i: int, j: int, s: int,
                   r: int) -> EmbeddingMatrix:
    """The subset-pair matrix for entries i and j of the sequence.

    Built start by start: choose r points in each window and s-2r points
    off the union; that fixes the row subset S, and the column subset is
    forced as the symmetric difference with the union window.  Pairs with
    colliding windows give the zero matrix.
    """
    n = seq.n
    if s < 2 * r:
        raise ValueError("block size s must be at least 2r")
    if comb(n, s) > DIMENSION_CAP:
        raise ValueError(
            f"comb({n}, {s}) = {comb(n, s)} exceeds the dimension cap {DIMENSION_CAP}")
    if not is_good_pair(seq, i, j, r):
        return EmbeddingMatrix(n, s, r, {})
    d_i, d_j = seq.entries[i], seq.entries[j]
    rank = {sub: pos for pos, sub in enumerate(colex_subsets(n, s))}
    entries: dict[tuple[int, int], int] = {}
    for x in range(n):
        win_i = single_support(n, x, d_i, r)
        win_j = single_support(n, x, d_j, r)
        union = set(win_i) | set(win_j)
        free = [y for y in range(n) if y not in union]
        for pick_i in combinations(win_i, r):
            for pick_j in combinations(win_j, r):
                half = set(pick_i) | set(pick_j)
                other = union - half
                for rest in combinations(free, s - 2 * r):
                    row = rank[tuple(sorted(half.union(rest)))]
                    col = rank[tuple(sorted(other.union(rest)))]
                    key = (row, col)
                    entries[key] = entries.get(key, 0) + 1
    return EmbeddingMatrix(n, s, r, entries)


def embedding_scale(n: int, s: int, r: int) -> int:
    """comb(2r, r)^2 * comb(n-4r, s-2r), the per-start subset count."""
    return comb(2 * r, r) ** 2 * comb(n - 4 * r, s - 2 * r)


def pair_window_sum(seq: DifferenceSequence, i: int, j: int, r: int, Z) -> int:
    """sum_x prod over the union window at x of Z, an exact integer.

    A good pair's union window is two disjoint windows, so the product
    splits into the window products H_i(x) H_j(x) of the Cauchy-Schwarz
    step; a colliding pair raises ``ValueError``.
    """
    if not is_good_pair(seq, i, j, r):
        raise ValueError(f"the windows of pair ({i}, {j}) collide")
    H = _window_products(seq, _as_signs(Z, seq.n), 2 * r + 1)
    return int(H[i] @ H[j])


def identity_sides(seq: DifferenceSequence, i: int, j: int, mat: EmbeddingMatrix,
                   Z) -> tuple[int, int]:
    """Both sides of (lift Z)^T M (lift Z) == scale * window sum, exact integers.

    ``mat`` is the pair matrix of the good pair (i, j), or a corrupted
    copy of it; a colliding pair raises ``ValueError`` as in
    ``pair_window_sum``.
    """
    quad = mat.quadratic_form(lift_signs(Z, mat.s))
    rhs = embedding_scale(mat.n, mat.s, mat.r) * pair_window_sum(seq, i, j, mat.r, Z)
    return quad, rhs


def aggregate_pair_embeddings(seq: DifferenceSequence, i: int, tau, right, s: int,
                              r: int) -> EmbeddingMatrix:
    """Signed sum over the right part: sum_j tau_j * M(i, j).

    ``tau`` is indexed by position in ``right``.  Colliding pairs
    contribute nothing, matching their zero matrices.
    """
    right = tuple(right)
    ta = _as_signs(tau, len(right))
    acc = EmbeddingMatrix(seq.n, s, r, {})
    pieces = [(int(ta[pos]), pair_embedding(seq, i, j, s, r))
              for pos, j in enumerate(right)]
    return acc.scale_add(pieces)


class ChainReport(NamedTuple):
    """Outcome of the end-to-end lower-bound verification."""

    identity_ok: bool
    quadratic: int
    closed_form: int
    norm_lower: float
    spectral_upper: float
    ok: bool


def verify_lower_bound_chain(seq: DifferenceSequence, part: IndexPartition,
                             sigma, tau, s: int, r: int, Z) -> ChainReport:
    """Check the chain: window sums equal the quadratic form, which the
    inf->1 norm of the aggregated matrix dominates.

    The aggregated matrix is sum over (i, j) in L x R of sigma_i tau_j
    M(i, j), built as sum_i sigma_i * ``aggregate_pair_embeddings``.  Its
    quadratic form at lift(Z) must equal the closed-form window sum
    (exact integers, from window products built once for the chain, as in
    ``pair_window_sum``), and |quadratic| must lie below both the exact
    inf->1 norm and dim * spectral.  A dimension above
    ``_kernels.ENUM_LIMIT`` raises ``ValueError``, since the norm is
    enumerated.
    """
    sig = _as_signs(sigma, len(part.left))
    ta = _as_signs(tau, len(part.right))
    n = seq.n
    mat = EmbeddingMatrix(n, s, r, {}).scale_add(
        [(int(sig[pos]), aggregate_pair_embeddings(seq, i, ta, part.right, s, r))
         for pos, i in enumerate(part.left)])
    quad = mat.quadratic_form(lift_signs(Z, s))
    H = _window_products(seq, _as_signs(Z, n), 2 * r + 1)
    closed = embedding_scale(n, s, r) * sum(
        int(sig[pos_i]) * int(ta[pos_j]) * int(H[i] @ H[j])
        for pos_i, i in enumerate(part.left) for pos_j, j in enumerate(part.right)
        if is_good_pair(seq, i, j, r))
    identity_ok = quad == closed

    dense = mat.to_dense()
    lower, _ = norms.inf_to_one_exact(dense)
    upper = mat.dim * norms.spectral_norm(dense)
    tol = 1e-6 * max(1.0, abs(float(quad)))
    ok = identity_ok and min(lower, upper) + tol >= abs(quad)
    return ChainReport(identity_ok, quad, closed, lower, upper, ok)
