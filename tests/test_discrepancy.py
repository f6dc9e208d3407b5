"""The Cauchy-Schwarz split, the two cube maxima, symmetrization and good sets."""
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from aplab import _kernels
from aplab import discrepancy as D
from aplab.counting import DifferenceSequence, ap_average
from aplab.groups import ApParams
from aplab.rng import spawn_signs, stream


def test_partition_basics():
    part = D.IndexPartition((0, 2), (1, 3))
    assert (part.left, part.right) == ((0, 2), (1, 3))
    with pytest.raises(ValueError):
        D.IndexPartition((0, 1), (1, 2))  # overlap
    with pytest.raises(ValueError):
        D.IndexPartition((0,), (2,))  # gap
    rnd = D.IndexPartition.random_balanced(5, stream(1, 0))
    assert sorted(rnd.left + rnd.right) == [0, 1, 2, 3, 4]
    assert len(rnd.left) == 2


def test_cauchy_schwarz_step_many_instances():
    rng = stream(53, 1)
    for _ in range(200):
        n = int(rng.integers(3, 17))
        m = int(rng.integers(1, 6))
        k = int(rng.choice([3, 5]))
        seq = DifferenceSequence.sample(n, m, rng)
        sigma = spawn_signs(rng, m)
        zz = spawn_signs(rng, n)
        assert D.verify_cauchy_schwarz_step(seq, sigma, zz, k)


def brute_max_pm(seq, sigma, k):
    """Max over {-1,+1}^N of the distinct-point polynomial: each progression
    contributes the product of Z over its set of points."""
    n = seq.n
    best = 0
    for signs in product((1, -1), repeat=n):
        tot = 0
        for s, d in zip(sigma, seq.entries):
            for x in range(n):
                tot += int(s) * int(np.prod([signs[y] for y in {(x + l * d) % n
                                                                  for l in range(k)}]))
        best = max(best, abs(tot))
    return best


def brute_max_01(seq, sigma, k):
    # over indicators the product form reduces to progression counts
    singles = [DifferenceSequence(seq.n, (d,)) for d in seq.entries]
    best = 0
    for mask in range(1 << seq.n):
        tot = sum(int(s) * ap_average(mask, one, k).numerator
                  for s, one in zip(sigma, singles))
        best = max(best, abs(tot))
    return best


def test_cube_maxima_match_brute_force():
    """Both exact maxima of the one polynomial ``_terms`` builds, against brute force;
    D = (3, 0) in Z/6 revisits points, so its two reductions would differ."""
    rng = stream(53, 4)
    cases = [(DifferenceSequence(6, (3, 0)), np.array([-1, 1]))]
    for _ in range(10):
        n = int(rng.integers(3, 9))
        m = int(rng.integers(1, 4))
        cases.append((DifferenceSequence.sample(n, m, rng), spawn_signs(rng, m)))
    for seq, sigma in cases:
        n = seq.n
        terms, base = D._terms(seq, sigma, 3)
        assert D._enumerate(terms, base, n, signed=True) == brute_max_pm(seq, sigma, 3)
        assert D._enumerate(terms, base, n, signed=False) == brute_max_01(seq, sigma, 3)


def test_enumeration_limit_is_read_at_call_time(monkeypatch):
    seq = DifferenceSequence(5, (1, 2))
    sigma = np.array([1, -1])
    assert D.multilinear_dominance(seq, sigma, 3)
    monkeypatch.setattr(_kernels, "ENUM_LIMIT", 4)
    with pytest.raises(ValueError):
        D.multilinear_dominance(seq, sigma, 3)


def test_multilinear_dominance_sample():
    rng = stream(53, 8)
    for _ in range(40):
        n = int(rng.integers(3, 13))
        m = int(rng.integers(1, 5))
        seq = DifferenceSequence.sample(n, m, rng)
        sigma = spawn_signs(rng, m)
        assert D.multilinear_dominance(seq, sigma, 3)


def test_multilinear_dominance_repeated_point():
    # D = (3, 0) in Z/6: x, x+3, x+6 = x revisits x; the +-1 reduction
    # z^2 = 1 would drop that point while the 0/1 reduction a^2 = a keeps it
    seq = DifferenceSequence(6, (3, 0))
    assert D.multilinear_dominance(seq, np.array([-1, 1]), 3)


def brute_symmetrization(n, m, k):
    """Independent re-derivation of both expectation sides."""
    every = DifferenceSequence(n, tuple(range(n)))
    singles = [DifferenceSequence(n, (d,)) for d in range(n)]
    lhs = Fraction(0)
    rhs = Fraction(0)
    seqs = list(product(range(n), repeat=m))
    for entries in seqs:
        seq = DifferenceSequence(n, entries)
        best = Fraction(0)
        for mask in range(1 << n):
            gap = abs(Fraction(*ap_average(mask, seq, k)) - Fraction(*ap_average(mask, every, k)))
            best = max(best, gap)
        lhs += best
        sbest = Fraction(0)
        for signs in product((1, -1), repeat=m):
            cur = Fraction(0)
            for mask in range(1 << n):
                tot = sum(s * ap_average(mask, singles[d], k).numerator
                          for s, d in zip(signs, entries))
                cur = max(cur, abs(Fraction(tot, m * n)))
            sbest += cur
        rhs += sbest / (2 ** m)
    return lhs / len(seqs), 2 * rhs / len(seqs)


def test_symmetrization_sides_match_brute_force():
    for m in (1, 2):
        lhs, rhs = D.symmetrization_sides(5, m, 3)
        blhs, brhs = brute_symmetrization(5, m, 3)
        assert lhs == blhs
        assert rhs == brhs
        assert lhs <= rhs


def reference_symmetrization_sides(n, m, k):
    """Both sides as four nested Python loops over d, masks, starts and steps."""
    counts = [[sum(all((mask >> ((x + step * d) % n)) & 1 for step in range(k))
                   for x in range(n))
               for mask in range(1 << n)]
              for d in range(n)]
    group_counts = [sum(counts[d][mask] for d in range(n)) for mask in range(1 << n)]
    lhs_num = rhs_num = 0
    for seq in product(range(n), repeat=m):
        lhs_num += max(abs(n * sum(counts[d][mask] for d in seq) - m * group_counts[mask])
                       for mask in range(1 << n))
        for signs in product((1, -1), repeat=m):
            rhs_num += max(abs(sum(s * counts[d][mask] for s, d in zip(signs, seq)))
                           for mask in range(1 << n))
    return (Fraction(lhs_num, n ** m * m * n * n),
            2 * Fraction(rhs_num, n ** m * 2 ** m * m * n))


def test_symmetrization_sides_match_reference_loops():
    for n, m in ((5, 1), (5, 2), (6, 2), (7, 2)):
        for k in (2, 3):
            got = D.symmetrization_sides(n, m, k)
            assert all(isinstance(side, Fraction) for side in got)
            assert got == reference_symmetrization_sides(n, m, k), (n, m, k)
    with pytest.raises(ValueError):
        D.symmetrization_sides(13, 1, 3)
    with pytest.raises(ValueError):
        D.symmetrization_sides(12, 5, 3)
    with pytest.raises(ValueError):  # 12^4 sequences x 8 sign vectors x 4096 subsets
        D.symmetrization_sides(12, 4, 3)


def test_collision_and_multiplicity():
    seq = DifferenceSequence(11, (1, 3, 5, 7))
    part = D.IndexPartition((0, 1), (2, 3))
    # windows at r=1: {d, 2d}; collisions need overlapping windows
    assert D.collision_count(seq, part, 1) == len(
        [(i, j) for i in (0, 1) for j in (2, 3)
         if len({seq.entries[i], (2 * seq.entries[i]) % 11,
                 seq.entries[j], (2 * seq.entries[j]) % 11}) < 4])
    gp = D.good_pairs(seq, part, 1)
    assert all(i in (0, 1) and j in (2, 3) for i, j in gp)
    # seeded grid: sequences holding 0, floor(N/2) and a repeated entry,
    # against the 4r-distinct filter written out point by point
    rng = stream(53, 10)
    seen_good = seen_bad = 0
    for n in range(5, 31):
        for r in (1, 2):
            m = int(rng.integers(4, 8))
            entries = [int(d) for d in rng.integers(0, n, size=m)]
            entries[0], entries[1] = 0, n // 2
            entries[-1] = entries[int(rng.integers(0, m - 1))]
            seq = DifferenceSequence(n, tuple(entries[t] for t in rng.permutation(m)))
            part = D.IndexPartition.random_balanced(m, rng)
            want = []
            for i in part.left:
                for j in part.right:
                    pts = [(step * seq.entries[t]) % n for t in (i, j)
                           for step in range(1, 2 * r + 1)]
                    if len(set(pts)) == 4 * r:
                        want.append((i, j))
            assert D.good_pairs(seq, part, r) == want, (n, r, seq.entries)
            pairs = len(part.left) * len(part.right)
            assert D.collision_count(seq, part, r) + len(want) == pairs
            seen_good += len(want)
            seen_bad += pairs - len(want)
    assert seen_good > 0 and seen_bad > 0
    assert D.max_multiplicity(DifferenceSequence(7, (1,)), 1) == 1
    # repeated differences pile their windows onto the same points
    assert D.max_multiplicity(DifferenceSequence(7, (1, 1, 1)), 1) == 3


def test_thresholds(monkeypatch):
    assert D.collision_threshold(7, 4, 1) == 11  # ceil(4*16/7) + 1
    monkeypatch.setattr(D, "COLLISION_SLACK", 1.0)
    assert D.collision_threshold(100, 2, 1) == 2
    assert abs(D.multiplicity_threshold(7) - 4 * np.log(7)) < 1e-12


def test_good_set_search_bounds_hold():
    found = D.good_set_search(11, ApParams(3), 4, stream(53, 9))
    assert found.collisions <= found.collision_bound
    assert found.multiplicity <= found.multiplicity_bound
    assert len(found.seq.entries) == 4
