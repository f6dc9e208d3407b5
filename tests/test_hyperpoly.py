"""Multiplicity hypergraphs, moment profiles, and the two averaging models."""
from fractions import Fraction
from itertools import combinations, product
from math import comb

import numpy as np
import pytest

from aplab import hyperpoly as H
from aplab.counting import DifferenceSequence
from aplab.groups import Group
from aplab.rng import stream


def test_hypergraph_construction():
    h = H.HypergraphPoly(5)
    h.add_edge((0, 2))
    h.add_edge((2, 0))  # same edge, multiplicity accumulates
    h.add_edge((1,), mult=3)
    assert h.edges() == [((0, 2), 2), ((1,), 3)]
    assert h.edge_count() == 5  # multiplicity included
    assert len(h.edges()) == 2
    assert h.max_edge_size() == 2
    with pytest.raises(ValueError):
        h.add_edge((0, 0))
    with pytest.raises(ValueError):
        h.add_edge((5,))


def test_poly_value_brute_force():
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
        want = sum(mult for e, mult in h.edges() if all(x[v] for v in e))
        assert H.poly_value(h, x) == want


def test_partial_value():
    h = H.HypergraphPoly(4)
    h.add_edge((0, 1))
    h.add_edge((1, 2), mult=2)
    x = np.array([0, 0, 1, 0], dtype=np.int64)
    # fixing {1} leaves edge (0,1) needing x0 = 0 and edge (1,2) live via x2
    assert H.partial_value(h, (1,), x) == 2
    # an edge equal to the fixed set contributes its full multiplicity
    assert H.partial_value(h, (0, 1), x) == 1
    assert H.partial_value(h, (1, 2), x) == 2
    assert H.partial_value(h, (), x) == H.poly_value(h, x)


def brute_mu(h, p, size):
    """Max over |A| = size of the expected partial evaluation."""
    best = Fraction(0)
    for a in combinations(range(h.n), size):
        sa = set(a)
        total = Fraction(0)
        for e, mult in h.edges():
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
        assert prof.mu_prime == max(prof.mu[1:])


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
    seq = DifferenceSequence(Group(11), (1, 3))
    h = H.build_pair_weight_hypergraph(seq, 0, [1], 1)
    # every x gives C(2,1)*C(2,1) = 4 two-point edges
    assert h.edge_count() == 44
    assert h.max_edge_size() == 2
    assert h.n == 11


def test_row_weight_value_equals_poly_at_matching_scale():
    # when the sample size equals the window intersection total, the
    # indicator double sum and the hypergraph evaluation coincide
    seq = DifferenceSequence(Group(11), (1, 3, 7))
    h = H.build_pair_weight_hypergraph(seq, 0, [1, 2], 1)
    rng = stream(71, 2)
    for _ in range(30):
        u = np.zeros(11, dtype=np.int64)
        u[rng.choice(11, size=2, replace=False)] = 1
        assert H.row_weight_value(seq, 0, [1, 2], 1, u) == H.poly_value(h, u)


def test_row_weight_mean_closed_form_vs_enumeration():
    rng = stream(71, 3)
    for _ in range(8):
        n = int(rng.choice([7, 9, 11]))
        m = int(rng.integers(2, 5))
        seq = DifferenceSequence.sample(Group(n), m, rng)
        right = list(range(1, m))
        for s in (2, 3):
            closed = H.row_weight_mean_closed_form(seq, 0, right, s, 1)
            enum = H.row_weight_mean_enumerated(seq, 0, right, s, 1)
            assert closed == enum


def test_sample_row_weight_distribution():
    seq = DifferenceSequence(Group(11), (1, 3))
    want = H.row_weight_mean_closed_form(seq, 0, [1], 2, 1)
    rng = stream(71, 4)
    draws = [H.sample_row_weight(seq, 0, [1], 2, 1, rng) for _ in range(4000)]
    assert abs(np.mean(draws) - float(want)) < 0.1


def brute_bernoulli(h, p):
    total = Fraction(0)
    for bits in product((0, 1), repeat=h.n):
        weight = Fraction(1)
        for v in range(h.n):
            weight *= p if bits[v] else 1 - p
        total += weight * H.poly_value(h, np.array(bits, dtype=np.int64))
    return total


def brute_set_average(h, t):
    total = Fraction(0)
    count = 0
    for a in combinations(range(h.n), t):
        x = np.zeros(h.n, dtype=np.int64)
        x[list(a)] = 1
        total += H.poly_value(h, x)
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


def test_tail_probe_range():
    seq = DifferenceSequence(Group(11), (1, 3))
    h = H.build_pair_weight_hypergraph(seq, 0, [1], 1)
    frac = H.tail_probe(h, 3, Fraction(4, 11), 1.0, 500, stream(71, 7))
    assert 0.0 <= frac <= 1.0
    # an absurdly high threshold is never exceeded
    assert H.tail_probe(h, 3, Fraction(4, 11), 100.0, 200, stream(71, 8)) == 0.0
