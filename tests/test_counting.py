from fractions import Fraction

import pytest

from aplab.counting import DifferenceSequence, RationalCount, ap_average
from aplab.rng import stream


def bits(members) -> int:
    return sum(1 << v for v in members)


def single(n: int, d: int) -> DifferenceSequence:
    """The one-entry sequence (d,): ``ap_average`` on it counts over N."""
    return DifferenceSequence(n, (d,))


def every(n: int) -> DifferenceSequence:
    """The sequence 0..N-1: ``ap_average`` on it counts over N^2."""
    return DifferenceSequence(n, tuple(range(n)))


def brute_count(members: set, n: int, d: int, k: int) -> int:
    """Count starts x whose whole progression sits inside the set."""
    hits = 0
    for x in range(n):
        if all((x + step * d) % n in members for step in range(k)):
            hits += 1
    return hits


def test_rational_count():
    rc = RationalCount(2, 10)
    assert Fraction(rc.numerator, rc.denominator) == Fraction(1, 5)


def test_subset_mask_basics():
    """A subset is an int bitmask; counting refuses bits outside 0..N-1."""
    m = bits([0, 3, 5])
    assert m.bit_count() == 3
    seq = single(7, 1)
    assert ap_average(m, seq, 1) == RationalCount(3, 7)
    for bad in (bits([7]), bits([0, 3, 9]), -1):
        with pytest.raises(ValueError):
            ap_average(bad, seq, 3)
        with pytest.raises(ValueError):
            ap_average(bad, every(7), 3)


def test_single_difference_known_values():
    mask = bits([0, 1, 3])
    assert ap_average(mask, single(5, 3), 3) == RationalCount(1, 5)  # only 0,3,1
    assert ap_average(mask, single(5, 1), 3).numerator == 0
    assert ap_average(bits([0, 1, 3, 4]), single(7, 1), 3).numerator == 0
    # full set carries all N starts for any difference
    assert ap_average(bits(range(5)), single(5, 2), 3) == RationalCount(5, 5)


def test_single_difference_matches_brute_force():
    rng = stream(17, 0)
    for _ in range(40):
        n = int(rng.integers(3, 14))
        k = int(rng.integers(2, 5))
        pick = rng.random(n) < 0.5
        members = {i for i in range(n) if pick[i]}
        d = int(rng.integers(0, n))
        got = ap_average(bits(members), single(n, d), k)
        assert got.numerator == brute_count(members, n, d, k)
        assert got.denominator == n


def test_ap_average_and_all():
    mask = bits([0, 1, 2])
    seq = DifferenceSequence(5, (1, 1, 3))
    tot = ap_average(mask, seq, 3)
    want = sum(brute_count({0, 1, 2}, 5, d, 3) for d in (1, 1, 3))
    assert (tot.numerator, tot.denominator) == (want, 15)
    alltot = ap_average(mask, every(5), 3)
    assert alltot == RationalCount(5, 25)
    wantall = sum(brute_count({0, 1, 2}, 5, d, 3) for d in range(5))
    assert alltot.numerator == wantall


def test_sequence_validation_and_sampling():
    with pytest.raises(ValueError):
        DifferenceSequence(7, (7,))
    with pytest.raises(ValueError):
        DifferenceSequence(7, ())
    with pytest.raises(ValueError):
        DifferenceSequence(0, (0,))  # the modulus must be positive
    seq = DifferenceSequence.sample(7, 5, stream(3, 1))
    assert len(seq.entries) == 5
    assert all(0 <= d < 7 for d in seq.entries)
    assert set(seq.distinct()) == set(seq.entries)
    # same stream key, same sample
    again = DifferenceSequence.sample(7, 5, stream(3, 1))
    assert again.entries == seq.entries
