"""Plain-Python references that the tests compare the package against, and
the steps of the argument that only a test checks: the value of a
hypergraph polynomial, the row-weight statistic of the window-pair
hypergraph with its exact mean, and the row pruning of a pair matrix."""
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np

from aplab.discrepancy import is_good_pair
from aplab.embedding import EmbeddingMatrix, embedding_scale


def poly_value(h, x) -> int:
    """f(x) for a 0/1 vector: the multiplicities of the edges inside x."""
    return sum(mult for e, mult in h._edges.items() if all(x[v] for v in e))


def row_weight(seq, i, right, r, u) -> int:
    """Over good j in ``right`` and starts x, count the step windows
    x + l*d_i and x + l*d_j (l in 1..2r) that both meet the 0/1 vector u
    in exactly r points."""
    n = seq.n

    def meets(x, d):
        return sum(int(u[(x + step * d) % n]) for step in range(1, 2 * r + 1)) == r

    d_i = seq.entries[i]
    return sum(1 for j in right if is_good_pair(seq, i, j, r)
               for x in range(n) if meets(x, d_i) and meets(x, seq.entries[j]))


def sample_row_weight(seq, i, right, s, r, rng) -> int:
    """The row-weight statistic at a uniform s-subset of the group."""
    u = np.zeros(seq.n, dtype=np.uint8)
    u[rng.choice(seq.n, size=s, replace=False)] = 1
    return row_weight(seq, i, right, r, u)


def row_weight_mean_closed_form(seq, i, right, s, r) -> Fraction:
    """Exact mean of the row-weight statistic over uniform s-subsets.

    With both windows disjoint, the chance a uniform s-subset meets each
    in exactly r points is hypergeometric, giving
    comb(2r,r)^2 comb(N-4r, s-2r) N good_count / comb(N, s).
    """
    n = seq.n
    good_count = sum(1 for j in right if is_good_pair(seq, i, j, r))
    if s < 2 * r or n - 4 * r < s - 2 * r:
        return Fraction(0)
    return Fraction(embedding_scale(n, s, r) * n * good_count, comb(n, s))


def row_weight_mean_enumerated(seq, i, right, s, r) -> Fraction:
    """Mean of the row-weight statistic over all comb(N, s) subsets."""
    n = seq.n
    subsets = list(combinations(range(n), s))
    total = sum(row_weight(seq, i, right, r, [v in sub for v in range(n)])
                for sub in subsets)
    return Fraction(total, len(subsets))


def row_weights(mat: EmbeddingMatrix) -> np.ndarray:
    """Absolute row sums (the l1 weight of each row)."""
    w = np.zeros(mat.dim, dtype=np.int64)
    for (row, _), v in mat.entries.items():
        w[row] += abs(v)
    return w


def prune(mat: EmbeddingMatrix, threshold: float) -> tuple[EmbeddingMatrix, tuple[int, ...]]:
    """Zero every row and column whose l1 weight reaches the threshold.

    Surviving rows then have weight strictly below the threshold, which
    caps the 1->1 norm and hence the spectral norm of the symmetric
    remainder.  Returns the pruned matrix and the zeroed indices.
    """
    cut = {int(i) for i in np.flatnonzero(row_weights(mat) >= threshold)}
    kept = {k: v for k, v in mat.entries.items() if k[0] not in cut and k[1] not in cut}
    return EmbeddingMatrix(mat.n, mat.s, mat.r, kept), tuple(sorted(cut))
