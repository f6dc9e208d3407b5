"""Multilinear edge polynomials over 0/1 inputs and their moment profiles.

A hypergraph with repeated edges induces the polynomial
f(x) = sum_e mult(e) * prod_{v in e} x_v.  The module computes f and its
partial-derivative sums f_A exactly, the mu profile (worst conditional
expectation per fixed-set size under Bernoulli inputs), the window-pair
hypergraph whose evaluations dominate row weights of the subset-pair
matrices, the exact comparison of uniform fixed-size inputs with
Bernoulli inputs, and an empirical tail probe.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, log
from typing import Iterable

import numpy as np

from . import _kernels
from .counting import DifferenceSequence
from .embedding import is_good_pair
from .groups import as_density, single_support


class HypergraphPoly:
    """Vertex count plus an edge multiset, edges stored sorted."""

    __slots__ = ("n", "_edges", "_const", "_csr")

    def __init__(self, n: int):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        self.n = n
        self._edges: dict[tuple[int, ...], int] = {}
        self._const = 0  # multiplicity of the empty edge, a constant term
        self._csr = None

    def add_edge(self, vertices: Iterable[int], mult: int = 1) -> None:
        if mult < 1:
            raise ValueError("multiplicity must be positive")
        edge = tuple(sorted(int(v) for v in vertices))
        if len(set(edge)) != len(edge):
            raise ValueError("edge vertices must be distinct")
        if edge and not (0 <= edge[0] and edge[-1] < self.n):
            raise ValueError("edge vertex outside 0..n-1")
        if not edge:
            self._const += mult
        else:
            self._edges[edge] = self._edges.get(edge, 0) + mult
        self._csr = None

    def edges(self) -> list[tuple[tuple[int, ...], int]]:
        """Distinct edges with multiplicities, sorted."""
        return sorted(self._edges.items())

    def edge_count(self) -> int:
        """Total number of edges counted with multiplicity."""
        return self._const + sum(self._edges.values())

    def max_edge_size(self) -> int:
        return max((len(e) for e in self._edges), default=0)

    def _arrays(self):
        if self._csr is None:
            keys = sorted(self._edges)
            ptr, vtx, _, _ = _kernels.csr_incidence(keys, self.n)
            mult = np.array([self._edges[e] for e in keys], dtype=np.int64)
            self._csr = (ptr, vtx, mult)
        return self._csr

    def __repr__(self) -> str:
        return (f"HypergraphPoly(n={self.n}, edges={self.edge_count()}, "
                f"max_size={self.max_edge_size()})")


def poly_value(h: HypergraphPoly, x) -> int:
    """f(x) for a 0/1 vector, an exact integer."""
    arr = np.ascontiguousarray(x, dtype=np.uint8)
    if arr.shape != (h.n,):
        raise ValueError(f"input must have length {h.n}")
    if arr.max(initial=0) > 1:
        raise ValueError("input entries must be 0 or 1")
    ptr, vtx, mult = h._arrays()
    if mult.shape[0] == 0:
        return h._const
    return h._const + int(_kernels.poly_eval01_kernel(ptr, vtx, mult, arr))


def partial_value(h: HypergraphPoly, fixed: Iterable[int], x) -> int:
    """f_A(x) = sum over edges containing A of the product off A.

    The empty product counts 1, so A equal to an edge contributes its
    multiplicity regardless of x.
    """
    a = frozenset(int(v) for v in fixed)
    arr = np.ascontiguousarray(x, dtype=np.uint8)
    if arr.shape != (h.n,):
        raise ValueError(f"input must have length {h.n}")
    total = h._const if not a else 0
    for edge, mult in h._edges.items():
        es = frozenset(edge)
        if not a <= es:
            continue
        val = 1
        for v in es - a:
            if arr[v] == 0:
                val = 0
                break
        total += mult * val
    return total


@dataclass(frozen=True)
class MuProfile:
    p: Fraction
    mu: tuple[Fraction, ...]  # index i holds the worst E f_A over |A| = i

    @property
    def mu_max(self) -> Fraction:
        return max(self.mu)

    @property
    def mu_prime(self) -> Fraction:
        return max(self.mu[1:], default=Fraction(0))


def mu_profile(h: HypergraphPoly, p) -> MuProfile:
    """Exact worst-case conditional expectations per fixed-set size.

    For each edge, all of its sub-subsets A accumulate mult * p^(|e|-|A|)
    into a map; mu_i is the largest accumulated value among |A| = i.
    Memory is bounded by the sum of 2^{|e|} over distinct edges.
    """
    pf = as_density(p)
    if not 0 < pf < 1:
        raise ValueError("p must lie strictly between 0 and 1")
    kmax = h.max_edge_size()
    powers = [pf ** j for j in range(kmax + 1)]
    acc: dict[tuple[int, ...], Fraction] = {(): Fraction(h._const)}
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
# window-pair hypergraph and the row-weight statistic


def build_pair_weight_hypergraph(seq: DifferenceSequence, i: int, right,
                                 r: int) -> HypergraphPoly:
    """Edges are r-point picks from each of two disjoint step windows.

    For every non-colliding j in ``right`` and every start x, each choice
    of r points from the i-window and r points from the j-window becomes
    a 2r-vertex edge; repeats across (j, x, picks) accumulate as
    multiplicity.
    """
    group = seq.group
    n = group.modulus
    h = HypergraphPoly(n)
    for j in right:
        if not is_good_pair(seq, i, j, r):
            continue
        for x in range(n):
            win_i = single_support(group, x, seq.entries[i], r)
            win_j = single_support(group, x, seq.entries[j], r)
            for pick_i in combinations(win_i, r):
                for pick_j in combinations(win_j, r):
                    h.add_edge(pick_i + pick_j)
    return h


def row_weight_value(seq: DifferenceSequence, i: int, right, r: int, u_mask) -> int:
    """Direct double sum: over good j and starts x, count windows meeting
    the 0/1 vector in exactly r points on both sides."""
    n = seq.group.modulus
    arr = np.ascontiguousarray(u_mask, dtype=np.uint8)
    if arr.shape != (n,):
        raise ValueError(f"mask must have length {n}")
    good = np.array([seq.entries[j] for j in right if is_good_pair(seq, i, j, r)],
                    dtype=np.int64)
    if good.shape[0] == 0:
        return 0
    return int(_kernels.row_weight_kernel(arr, seq.entries[i], good, r, n))


def sample_row_weight(seq: DifferenceSequence, i: int, right, s: int, r: int,
                      rng) -> int:
    """Row-weight statistic at a uniform s-subset of the group."""
    n = seq.group.modulus
    if not 0 <= s <= n:
        raise ValueError("subset size outside 0..N")
    picks = rng.choice(n, size=s, replace=False)
    u = np.zeros(n, dtype=np.uint8)
    u[picks] = 1
    return row_weight_value(seq, i, right, r, u)


def row_weight_mean_closed_form(seq: DifferenceSequence, i: int, right, s: int,
                                r: int) -> Fraction:
    """Exact mean of the row-weight statistic over uniform s-subsets.

    With both windows disjoint, the chance a uniform s-subset meets each
    in exactly r points is hypergeometric, giving
    comb(2r,r)^2 comb(N-4r, s-2r) N good_count / comb(N, s).
    """
    n = seq.group.modulus
    good_count = sum(1 for j in right if is_good_pair(seq, i, j, r))
    if s < 2 * r or n - 4 * r < s - 2 * r:
        return Fraction(0)
    hits = comb(2 * r, r) ** 2 * comb(n - 4 * r, s - 2 * r) * n * good_count
    return Fraction(hits, comb(n, s))


def row_weight_mean_enumerated(seq: DifferenceSequence, i: int, right, s: int,
                               r: int) -> Fraction:
    """Mean by full enumeration of all comb(N, s) subsets."""
    n = seq.group.modulus
    total = 0
    count = 0
    u = np.zeros(n, dtype=np.uint8)
    for sub in combinations(range(n), s):
        u[:] = 0
        u[list(sub)] = 1
        total += row_weight_value(seq, i, right, r, u)
        count += 1
    return Fraction(total, count)


# ---------------------------------------------------------------------------
# uniform fixed-size versus Bernoulli averages


def bernoulli_average(h: HypergraphPoly, p) -> Fraction:
    """E f(X) for independent Bernoulli(p) coordinates, exactly."""
    pf = as_density(p)
    if not 0 < pf < 1:
        raise ValueError("p must lie strictly between 0 and 1")
    total = Fraction(h._const)
    for edge, mult in h._edges.items():
        total += mult * pf ** len(edge)
    return total


def set_average_exact(h: HypergraphPoly, t: int) -> Fraction:
    """E f(1_S) over uniform t-subsets, by linearity over edges."""
    if not 0 <= t <= h.n:
        raise ValueError("subset size outside 0..n")
    denom = comb(h.n, t)
    total = Fraction(h._const)
    for edge, mult in h._edges.items():
        size = len(edge)
        if size <= t:
            total += Fraction(mult * comb(h.n - size, t - size), denom)
    return total


@dataclass(frozen=True)
class SetVsBernoulliReport:
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
    pf = as_density(p)
    if not 0 < pf < 1:
        raise ValueError("p must lie strictly between 0 and 1")
    if not 0 <= t <= h.n:
        raise ValueError("subset size outside 0..n")
    if pf * h.n < 1:
        raise ValueError("need p*n >= 1 for the median argument")
    if t > pf * h.n / 2:
        raise ValueError("need t <= p*n/2")
    lhs = set_average_exact(h, t)
    rhs = bernoulli_average(h, pf)
    return SetVsBernoulliReport(lhs, rhs, lhs <= 2 * rhs)


def tail_probe(h: HypergraphPoly, t: int, p, c_factor: float, trials: int,
               rng) -> float:
    """Empirical tail of f over uniform t-subsets.

    Reports the fraction of draws with f(1_S) at least
    c_factor * (log n)^(k - 1/2) * mu, where k is the max edge size and
    mu the profile maximum at parameter p.  Reported, never asserted:
    the matching tail bound holds for large enough unspecified constants.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if h.n < 2:
        raise ValueError("tail threshold needs n >= 2")
    profile = mu_profile(h, p)
    k = max(h.max_edge_size(), 1)
    threshold = c_factor * log(h.n) ** (k - 0.5) * float(profile.mu_max)
    hits = 0
    x = np.zeros(h.n, dtype=np.uint8)
    for _ in range(trials):
        x[:] = 0
        x[rng.choice(h.n, size=t, replace=False)] = 1
        if poly_value(h, x) >= threshold:
            hits += 1
    return hits / trials
