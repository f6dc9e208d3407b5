"""Signed objectives, the Cauchy-Schwarz split, and sign maximization."""
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from aplab import _kernels
from aplab import discrepancy as D
from aplab.counting import (DifferenceSequence, SubsetMask, ap_average,
                            ap_average_all, ap_count)
from aplab.groups import ApParams, Group
from aplab.rng import spawn_signs, stream


def test_partition_basics():
    part = D.IndexPartition((0, 2), (1, 3))
    assert part.m == 4
    with pytest.raises(ValueError):
        D.IndexPartition((0, 1), (1, 2))  # overlap
    with pytest.raises(ValueError):
        D.IndexPartition((0,), (2,))  # gap
    rnd = D.IndexPartition.random_balanced(5, stream(1, 0))
    assert sorted(rnd.left + rnd.right) == [0, 1, 2, 3, 4]
    assert len(rnd.left) == 2


def test_signed_objective_known_value():
    g = Group(5)
    seq = DifferenceSequence(g, (1,))
    z = np.ones(5, dtype=np.int64)
    z[0] = -1
    got = D.signed_objective(seq, [1], z, 3)
    assert Fraction(got.numerator, got.denominator) == Fraction(-1, 5)


def brute_signed_total(seq, sigma, zz, k):
    n = seq.group.modulus
    total = 0
    for i, d in enumerate(seq.entries):
        for x in range(n):
            prod = 1
            for step in range(k):
                prod *= int(zz[(x + step * d) % n])
            total += int(sigma[i]) * prod
    return total


def test_signed_total_matches_brute_force():
    rng = stream(53, 0)
    for _ in range(30):
        n = int(rng.integers(3, 12))
        m = int(rng.integers(1, 5))
        k = int(rng.integers(2, 5))
        seq = DifferenceSequence.sample(Group(n), m, rng)
        sigma = spawn_signs(rng, m)
        zz = spawn_signs(rng, n)
        assert D.signed_total(seq, sigma, zz, k) == brute_signed_total(seq, sigma, zz, k)


def test_discrepancy_vs_sign_split():
    # max over A of |Lambda_D - Lambda_G| never exceeds the best signed
    # objective once the set indicator is replaced by arbitrary signs
    g = Group(7)
    seq = DifferenceSequence(g, (1, 3))
    best_gap = Fraction(0)
    for bits in product((0, 1), repeat=7):
        mask = SubsetMask.from_indices(g, [i for i in range(7) if bits[i]])
        gap = abs(ap_average(mask, seq, 3).value - ap_average_all(mask, 3).value)
        best_gap = max(best_gap, gap)
    assert best_gap > 0


def test_cauchy_schwarz_step_many_instances():
    rng = stream(53, 1)
    for _ in range(200):
        n = int(rng.integers(3, 17))
        m = int(rng.integers(1, 6))
        k = int(rng.choice([3, 5]))
        seq = DifferenceSequence.sample(Group(n), m, rng)
        sigma = spawn_signs(rng, m)
        zz = spawn_signs(rng, n)
        assert D.verify_cauchy_schwarz_step(seq, sigma, zz, k)


def test_pair_square_total_identity():
    # T = sum_x (sum_i sigma_i H_i(x))^2 expands to the double sum over pairs
    rng = stream(53, 2)
    for _ in range(20):
        n = int(rng.integers(3, 12))
        m = int(rng.integers(1, 5))
        k = int(rng.choice([3, 5]))
        seq = DifferenceSequence.sample(Group(n), m, rng)
        sigma = spawn_signs(rng, m)
        zz = spawn_signs(rng, n)
        t = D.pair_square_total(seq, sigma, zz, k)
        s = D.signed_total(seq, sigma, zz, k)
        assert s * s <= n * t  # the pointwise bound again, via the identity


def test_bilinear_objective_consistency():
    rng = stream(53, 3)
    g = Group(9)
    seq = DifferenceSequence.sample(g, 4, rng)
    part = D.IndexPartition((0, 1), (2, 3))
    sigma = spawn_signs(rng, 2)
    tau = spawn_signs(rng, 2)
    zz = spawn_signs(rng, 9)
    got = D.bilinear_objective(seq, sigma, tau, part, zz, 3)
    # direct expansion over the split double sum
    n = g.modulus
    total = 0
    for a, i in enumerate(part.left):
        for b, j in enumerate(part.right):
            for x in range(n):
                prod = 1
                for step in range(1, 3):
                    prod *= int(zz[(x + step * seq.entries[i]) % n])
                    prod *= int(zz[(x + step * seq.entries[j]) % n])
                total += int(sigma[a]) * int(tau[b]) * prod
    assert got.numerator == total
    assert got.denominator == 2 * 2 * n


def brute_max_pm(seq, sigma, k):
    n = seq.group.modulus
    best = Fraction(0)
    for signs in product((1, -1), repeat=n):
        zz = np.array(signs, dtype=np.int64)
        best = max(best, abs(D.signed_objective(seq, sigma, zz, k).value))
    return best


def brute_max_01(seq, sigma, k):
    # over indicators the product form reduces to progression counts
    n = seq.group.modulus
    g = seq.group
    best = Fraction(0)
    for bits in product((0, 1), repeat=n):
        mask = SubsetMask.from_indices(g, [i for i in range(n) if bits[i]])
        tot = sum(int(s) * ap_count(mask, d, k).numerator
                  for s, d in zip(sigma, seq.entries))
        best = max(best, abs(Fraction(tot, len(seq) * n)))
    return best


def test_max_over_signs_exact():
    rng = stream(53, 4)
    for _ in range(10):
        n = int(rng.integers(3, 9))
        m = int(rng.integers(1, 4))
        seq = DifferenceSequence.sample(Group(n), m, rng)
        sigma = spawn_signs(rng, m)
        got = D.max_over_signs(seq, sigma, 3)
        assert got.value == brute_max_pm(seq, sigma, 3)
        got01 = D.max_over_01(seq, sigma, 3)
        assert got01.value == brute_max_01(seq, sigma, 3)


def test_max_over_signs_witness_attains():
    rng = stream(53, 5)
    seq = DifferenceSequence.sample(Group(8), 3, rng)
    sigma = spawn_signs(rng, 3)
    res = D.max_over_signs(seq, sigma, 3)
    attained = abs(D.signed_objective(seq, sigma, res.witness, 3).value)
    assert attained == res.value


def test_enumeration_limit_is_read_at_call_time(monkeypatch):
    seq = DifferenceSequence(Group(5), (1, 2))
    sigma = np.array([1, -1])
    D.max_over_signs(seq, sigma, 3)
    monkeypatch.setattr(_kernels, "ENUM_LIMIT", 4)
    for fn in (D.max_over_signs, D.max_over_01, D.multilinear_dominance):
        with pytest.raises(ValueError):
            fn(seq, sigma, 3)


def test_multilinear_dominance_sample():
    rng = stream(53, 8)
    for _ in range(40):
        n = int(rng.integers(3, 13))
        m = int(rng.integers(1, 5))
        seq = DifferenceSequence.sample(Group(n), m, rng)
        sigma = spawn_signs(rng, m)
        assert D.multilinear_dominance(seq, sigma, 3)


def test_multilinear_dominance_repeated_point():
    # D = (3, 0) in Z/6: x, x+3, x+6 = x revisits x; the +-1 reduction
    # z^2 = 1 would drop that point while the 0/1 reduction a^2 = a keeps it
    seq = DifferenceSequence(Group(6), (3, 0))
    assert D.multilinear_dominance(seq, np.array([-1, 1]), 3)


def brute_symmetrization(group, m, k):
    """Independent re-derivation of both expectation sides."""
    n = group.modulus
    lhs = Fraction(0)
    rhs = Fraction(0)
    seqs = list(product(range(n), repeat=m))
    all_sets = list(product((0, 1), repeat=n))
    for entries in seqs:
        seq = DifferenceSequence(group, entries)
        best = Fraction(0)
        for bits in all_sets:
            mask = SubsetMask.from_indices(group, [i for i in range(n) if bits[i]])
            gap = abs(ap_average(mask, seq, k).value - ap_average_all(mask, k).value)
            best = max(best, gap)
        lhs += best
        sbest = Fraction(0)
        for signs in product((1, -1), repeat=m):
            cur = Fraction(0)
            for bits in all_sets:
                mask = SubsetMask.from_indices(group,
                                               [i for i in range(n) if bits[i]])
                tot = sum(s * ap_count(mask, d, k).numerator
                          for s, d in zip(signs, entries))
                cur = max(cur, abs(Fraction(tot, m * n)))
            sbest += cur
        rhs += sbest / (2 ** m)
    return lhs / len(seqs), 2 * rhs / len(seqs)


def test_symmetrization_sides_match_brute_force():
    g = Group(5)
    for m in (1, 2):
        lhs, rhs = D.symmetrization_sides(g, m, 3)
        blhs, brhs = brute_symmetrization(g, m, 3)
        assert lhs == blhs
        assert rhs == brhs
        assert lhs <= rhs


def test_collision_and_multiplicity():
    g = Group(11)
    seq = DifferenceSequence(g, (1, 3, 5, 7))
    part = D.IndexPartition((0, 1), (2, 3))
    # windows at r=1: {d, 2d}; collisions need overlapping windows
    assert D.collision_count(seq, part, 1) == len(
        [(i, j) for i in (0, 1) for j in (2, 3)
         if len({seq.entries[i], (2 * seq.entries[i]) % 11,
                 seq.entries[j], (2 * seq.entries[j]) % 11}) < 4])
    gp = D.good_pairs(seq, part, 1)
    assert all(i in (0, 1) and j in (2, 3) for i, j in gp)
    assert D.max_multiplicity(DifferenceSequence(Group(7), (1,)), 1) == 1
    # repeated differences pile their windows onto the same points
    assert D.max_multiplicity(DifferenceSequence(Group(7), (1, 1, 1)), 1) == 3


def test_thresholds():
    assert D.collision_threshold(7, 4, 1) == 11  # ceil(4*16/7) + 1
    assert D.collision_threshold(100, 2, 1, slack=1.0) == 2
    assert abs(D.multiplicity_threshold(7) - 4 * np.log(7)) < 1e-12


def test_good_set_search_bounds_hold():
    g = Group(11)
    found = D.good_set_search(g, ApParams(3), 4, stream(53, 9))
    assert found.collisions <= found.collision_bound
    assert found.multiplicity <= found.multiplicity_bound
    assert len(found.seq.entries) == 4
