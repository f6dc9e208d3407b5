"""Multiplicity hypergraphs, moment profiles, and the two averaging models."""
from fractions import Fraction
from itertools import combinations, product
from math import log

import numpy as np
import pytest
from oracles import (poly_value, row_weight, row_weight_mean_closed_form,
                     row_weight_mean_enumerated, sample_row_weight)

from aplab import _kernels
from aplab import hyperpoly as H
from aplab.counting import DifferenceSequence
from aplab.rng import stream


def test_hypergraph_construction():
    h = H.HypergraphPoly(5)
    h.add_edge((0, 2))
    h.add_edge((2, 0))  # same edge, multiplicity accumulates
    h.add_edge((1,), mult=3)
    assert sorted(h._edges.items()) == [((0, 2), 2), ((1,), 3)]
    assert h.edge_count() == 5  # multiplicity included
    assert len(h._edges) == 2
    assert h.max_edge_size() == 2
    with pytest.raises(ValueError):
        h.add_edge((0, 0))
    with pytest.raises(ValueError):
        h.add_edge((5,))
    with pytest.raises(ValueError):
        h.add_edge(())  # no constant term
    assert h.edge_count() == 5


def test_poly_value_brute_force():
    """The CSR arrays of ``HypergraphPoly`` through ``poly_eval01_kernel``, as
    ``tail_probe`` evaluates f, against the edge-by-edge sum."""
    rng = stream(71, 0)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        h = H.HypergraphPoly(n)
        nedges = int(rng.integers(1, 6))
        for _ in range(nedges):
            size = int(rng.integers(1, n + 1))
            h.add_edge(rng.choice(n, size=size, replace=False).tolist(),
                       mult=int(rng.integers(1, 4)))
        x = (rng.random(n) < 0.5).astype(np.int64)
        assert _kernels.poly_eval01_kernel(*h._arrays(), x) == poly_value(h, x)


def brute_mu(h, p, size):
    """Max over |A| = size of the expected partial evaluation."""
    best = Fraction(0)
    for a in combinations(range(h.n), size):
        sa = set(a)
        total = Fraction(0)
        for e, mult in h._edges.items():
            if sa <= set(e):
                total += mult * p ** (len(e) - size)
        best = max(best, total)
    return best


def test_mu_profile_matches_brute_force():
    rng = stream(71, 1)
    for _ in range(15):
        n = int(rng.integers(2, 8))
        h = H.HypergraphPoly(n)
        for _ in range(int(rng.integers(1, 5))):
            size = int(rng.integers(1, min(n, 4) + 1))
            h.add_edge(rng.choice(n, size=size, replace=False).tolist(),
                       mult=int(rng.integers(1, 3)))
        p = Fraction(int(rng.integers(1, 5)), 5)
        prof = H.mu_profile(h, p)
        assert len(prof.mu) == h.max_edge_size() + 1
        for i in range(len(prof.mu)):
            assert prof.mu[i] == brute_mu(h, p, i)
        assert prof.mu_max == max(prof.mu)


def test_mu_profile_known_values():
    h = H.HypergraphPoly(3)
    h.add_edge((0, 1))
    h.add_edge((0, 2))
    prof = H.mu_profile(h, Fraction(1, 2))
    assert prof.mu == (Fraction(1, 2), Fraction(1), Fraction(1))
    single = H.HypergraphPoly(4)
    single.add_edge((2,))
    prof2 = H.mu_profile(single, Fraction(1, 3))
    assert prof2.mu == (Fraction(1, 3), Fraction(1))


def test_pair_weight_hypergraph_counts():
    seq = DifferenceSequence(11, (1, 3))
    h = H.build_pair_weight_hypergraph(seq, 0, [1], 1)
    # every x gives C(2,1)*C(2,1) = 4 two-point edges
    assert h.edge_count() == 44
    assert h.max_edge_size() == 2
    assert h.n == 11


def test_row_weight_value_equals_poly_at_matching_scale():
    # when the sample size equals the window intersection total, the
    # indicator double sum and the hypergraph evaluation coincide
    seq = DifferenceSequence(11, (1, 3, 7))
    h = H.build_pair_weight_hypergraph(seq, 0, [1, 2], 1)
    rng = stream(71, 2)
    for _ in range(30):
        u = np.zeros(11, dtype=np.int64)
        u[rng.choice(11, size=2, replace=False)] = 1
        assert row_weight(seq, 0, [1, 2], 1, u) == poly_value(h, u)


def test_row_weight_mean_closed_form_vs_enumeration():
    rng = stream(71, 3)
    for _ in range(8):
        n = int(rng.choice([7, 9, 11]))
        m = int(rng.integers(2, 5))
        seq = DifferenceSequence.sample(n, m, rng)
        right = list(range(1, m))
        for s in (2, 3):
            closed = row_weight_mean_closed_form(seq, 0, right, s, 1)
            enum = row_weight_mean_enumerated(seq, 0, right, s, 1)
            assert closed == enum


def test_sample_row_weight_distribution():
    seq = DifferenceSequence(11, (1, 3))
    want = row_weight_mean_closed_form(seq, 0, [1], 2, 1)
    rng = stream(71, 4)
    draws = [sample_row_weight(seq, 0, [1], 2, 1, rng) for _ in range(4000)]
    assert abs(np.mean(draws) - float(want)) < 0.1


def brute_bernoulli(h, p):
    total = Fraction(0)
    for bits in product((0, 1), repeat=h.n):
        weight = Fraction(1)
        for v in range(h.n):
            weight *= p if bits[v] else 1 - p
        total += weight * poly_value(h, bits)
    return total


def brute_set_average(h, t):
    total = Fraction(0)
    count = 0
    for a in combinations(range(h.n), t):
        x = np.zeros(h.n, dtype=np.int64)
        x[list(a)] = 1
        total += poly_value(h, x)
        count += 1
    return total / count


def test_averages_match_brute_force():
    rng = stream(71, 5)
    for _ in range(10):
        n = int(rng.integers(3, 8))
        h = H.HypergraphPoly(n)
        for _ in range(int(rng.integers(1, 5))):
            size = int(rng.integers(1, 4))
            h.add_edge(rng.choice(n, size=min(size, n), replace=False).tolist())
        p = Fraction(int(rng.integers(1, 4)), 4)
        assert H.bernoulli_average(h, p) == brute_bernoulli(h, p)
        for t in range(1, n + 1):
            assert H.set_average_exact(h, t) == brute_set_average(h, t)


def test_set_vs_bernoulli_preconditions():
    h = H.HypergraphPoly(11)
    h.add_edge((0, 1))
    with pytest.raises(ValueError):
        # t beyond half the Bernoulli mean count
        H.verify_set_vs_bernoulli(h, 6, Fraction(4, 11))
    with pytest.raises(ValueError):
        # p*n below 1
        H.verify_set_vs_bernoulli(h, 0, Fraction(1, 12))
    rep = H.verify_set_vs_bernoulli(h, 2, Fraction(4, 11))
    assert rep.holds
    assert rep.set_mean <= 2 * rep.bernoulli_mean


def reference_tails(h, t, p, factors, trials, rng):
    """One uniform t-subset at a time, f by poly_value, float thresholds."""
    values = []
    for _ in range(trials):
        x = np.zeros(h.n, dtype=np.uint8)
        x[rng.choice(h.n, size=t, replace=False)] = 1
        values.append(poly_value(h, x))
    mu = float(H.mu_profile(h, p).mu_max)
    scale = log(h.n) ** (max(h.max_edge_size(), 1) - 0.5)
    return tuple(sum(v >= c * scale * mu for v in values) / trials for c in factors)


def test_tail_probe_range():
    """One set of draws serves every factor, each compared with f exactly."""
    seq = DifferenceSequence(11, (1, 3))
    h = H.build_pair_weight_hypergraph(seq, 0, [1], 1)
    p = Fraction(4, 11)
    factors = (0.1, 0.2, 0.25, 100.0)
    fracs = H.tail_probe(h, 4, H.mu_profile(h, p).mu_max, factors, 500, stream(71, 7))
    assert all(type(frac) is float for frac in fracs)
    assert fracs[0] == 1.0 and 0.0 < fracs[2] < fracs[1] < 1.0
    # an absurdly high threshold is never exceeded
    assert fracs[3] == 0.0
    assert fracs == reference_tails(h, 4, p, factors, 500, stream(71, 7))
    # 1980 incidences split 1200 draws into three row blocks
    big = H.HypergraphPoly(12)
    for edge in combinations(range(12), 4):
        big.add_edge(edge, 1 + edge[0] * edge[3] % 5)
    factors = (0.02, 0.05, 0.1)
    fracs = H.tail_probe(big, 6, H.mu_profile(big, p).mu_max, factors, 1200, stream(71, 8))
    assert 0.0 < fracs[2] < fracs[1] < fracs[0] == 1.0
    assert fracs == reference_tails(big, 6, p, factors, 1200, stream(71, 8))
