"""Multilinear edge polynomials over 0/1 inputs and their moment profiles.

A hypergraph with repeated edges induces the polynomial
f(x) = sum_e mult(e) * prod_{v in e} x_v.  The module computes the mu
profile (worst expectation of the partial-derivative sums f_A per
fixed-set size under Bernoulli inputs), the window-pair hypergraph whose
evaluations dominate row weights of the subset-pair matrices, the exact
comparison of uniform fixed-size inputs with Bernoulli inputs, and an
empirical tail probe.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import ceil, comb, log
from typing import Iterable, NamedTuple

import numpy as np

from . import _kernels
from .counting import DifferenceSequence
from .discrepancy import is_good_pair
from .groups import as_density, single_support


class HypergraphPoly:
    """Vertex count plus a multiset of non-empty edges, each stored sorted."""

    __slots__ = ("n", "_edges")

    def __init__(self, n: int):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        self.n = n
        self._edges: dict[tuple[int, ...], int] = {}

    def add_edge(self, vertices: Iterable[int], mult: int = 1) -> None:
        if mult < 1:
            raise ValueError("multiplicity must be positive")
        edge = tuple(sorted(int(v) for v in vertices))
        if not edge:
            raise ValueError("an edge needs at least one vertex")
        if len(set(edge)) != len(edge):
            raise ValueError("edge vertices must be distinct")
        if not (0 <= edge[0] and edge[-1] < self.n):
            raise ValueError("edge vertex outside 0..n-1")
        self._edges[edge] = self._edges.get(edge, 0) + mult

    def edge_count(self) -> int:
        """Total number of edges counted with multiplicity."""
        return sum(self._edges.values())

    def max_edge_size(self) -> int:
        return max((len(e) for e in self._edges), default=0)

    def _arrays(self):
        """Edge pointers, vertices and multiplicities in CSR form."""
        keys = sorted(self._edges)
        ptr, vtx, _, _ = _kernels.csr_incidence(keys, self.n)
        return ptr, vtx, np.array([self._edges[e] for e in keys], dtype=np.int64)

    def __repr__(self) -> str:
        return (f"HypergraphPoly(n={self.n}, edges={self.edge_count()}, "
                f"max_size={self.max_edge_size()})")


class MuProfile(NamedTuple):
    p: Fraction
    mu: tuple[Fraction, ...]  # index i holds the worst E f_A over |A| = i

    @property
    def mu_max(self) -> Fraction:
        return max(self.mu)


def _open_unit_density(p) -> Fraction:
    """``p`` as an exact rational strictly between 0 and 1."""
    pf = as_density(p)
    if not 0 < pf < 1:
        raise ValueError("p must lie strictly between 0 and 1")
    return pf


def mu_profile(h: HypergraphPoly, p) -> MuProfile:
    """Exact worst-case conditional expectations per fixed-set size.

    For each edge, all of its sub-subsets A accumulate mult * p^(|e|-|A|)
    into a map; mu_i is the largest accumulated value among |A| = i.
    Memory is bounded by the sum of 2^{|e|} over distinct edges.
    """
    pf = _open_unit_density(p)
    kmax = h.max_edge_size()
    powers = [pf ** j for j in range(kmax + 1)]
    acc: dict[tuple[int, ...], Fraction] = {}
    for edge, mult in h._edges.items():
        size = len(edge)
        for take in range(size + 1):
            for sub in combinations(edge, take):
                acc[sub] = acc.get(sub, Fraction(0)) + mult * powers[size - take]
    mu = [Fraction(0)] * (kmax + 1)
    for sub, val in acc.items():
        if val > mu[len(sub)]:
            mu[len(sub)] = val
    return MuProfile(pf, tuple(mu))


# ---------------------------------------------------------------------------
# window-pair hypergraph


def build_pair_weight_hypergraph(seq: DifferenceSequence, i: int, right,
                                 r: int) -> HypergraphPoly:
    """Edges are r-point picks from each of two disjoint step windows.

    For every non-colliding j in ``right`` and every start x, each choice
    of r points from the i-window and r points from the j-window becomes
    a 2r-vertex edge; repeats across (j, x, picks) accumulate as
    multiplicity.
    """
    n = seq.n
    h = HypergraphPoly(n)
    for j in right:
        if not is_good_pair(seq, i, j, r):
            continue
        for x in range(n):
            win_i = single_support(n, x, seq.entries[i], r)
            win_j = single_support(n, x, seq.entries[j], r)
            for pick_i in combinations(win_i, r):
                for pick_j in combinations(win_j, r):
                    h.add_edge(pick_i + pick_j)
    return h


# ---------------------------------------------------------------------------
# uniform fixed-size versus Bernoulli averages


def bernoulli_average(h: HypergraphPoly, p) -> Fraction:
    """E f(X) for independent Bernoulli(p) coordinates, exactly."""
    pf = _open_unit_density(p)
    total = Fraction(0)
    for edge, mult in h._edges.items():
        total += mult * pf ** len(edge)
    return total


def set_average_exact(h: HypergraphPoly, t: int) -> Fraction:
    """E f(1_S) over uniform t-subsets, by linearity over edges."""
    if not 0 <= t <= h.n:
        raise ValueError("subset size outside 0..n")
    denom = comb(h.n, t)
    total = Fraction(0)
    for edge, mult in h._edges.items():
        size = len(edge)
        if size <= t:
            total += Fraction(mult * comb(h.n - size, t - size), denom)
    return total


class SetVsBernoulliReport(NamedTuple):
    set_mean: Fraction
    bernoulli_mean: Fraction
    holds: bool  # set_mean <= 2 * bernoulli_mean, checked exactly


def verify_set_vs_bernoulli(h: HypergraphPoly, t: int, p) -> SetVsBernoulliReport:
    """Check E over t-subsets <= 2 * E over Bernoulli(p), exactly.

    The factor-2 direction is the provable one: conditioning a Bernoulli
    sample on its size and using monotonicity of the fixed-size mean
    shows the Bernoulli mean is at least half the t-subset mean whenever
    t is at most the binomial median.  Only that provable core is
    required (pn >= 1 and t <= pn/2, hence t below the median), which
    keeps small-n instances admissible.
    """
    pf = _open_unit_density(p)
    if not 0 <= t <= h.n:
        raise ValueError("subset size outside 0..n")
    if pf * h.n < 1:
        raise ValueError("need p*n >= 1 for the median argument")
    if t > pf * h.n / 2:
        raise ValueError("need t <= p*n/2")
    lhs = set_average_exact(h, t)
    rhs = bernoulli_average(h, pf)
    return SetVsBernoulliReport(lhs, rhs, lhs <= 2 * rhs)


def tail_probe(h: HypergraphPoly, t: int, mu_max: Fraction,
               c_factors: tuple[float, ...], trials: int, rng) -> tuple[float, ...]:
    """Empirical tails of f over uniform t-subsets, one per factor c.

    Reports, for each c in ``c_factors``, the fraction of draws with
    f(1_S) at least c * (log n)^(k - 1/2) * mu, where k is the max edge
    size and mu is ``mu_max``, the maximum of the caller's ``mu_profile``
    at its parameter p.  The draws are shared by all factors.  f is an
    integer, so it reaches a threshold exactly when it reaches the
    threshold's ceiling.  Reported, never asserted: the matching tail
    bound holds for large enough unspecified constants.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if h.n < 2:
        raise ValueError("tail threshold needs n >= 2")
    k = max(h.max_edge_size(), 1)
    scale = log(h.n) ** (k - 0.5)
    mu = float(mu_max)
    rows = np.zeros((trials, h.n), dtype=np.uint8)
    for row in rows:
        row[rng.choice(h.n, size=t, replace=False)] = 1
    ptr, vtx, mult = h._arrays()
    # blocks of rows keep the gathered (rows, incidences) array near 1 MB
    block = max(1, (1 << 20) // max(len(vtx), 1))
    values = np.concatenate(
        [_kernels.poly_eval01_kernel(ptr, vtx, mult, rows[lo:lo + block])
         for lo in range(0, trials, block)])
    return tuple(int(np.count_nonzero(values >= ceil(c * scale * mu))) / trials
                 for c in c_factors)
