from fractions import Fraction

import pytest

from aplab.counting import DifferenceSequence
from aplab.groups import (
    ApParams,
    as_density,
    default_block_size,
    density_target,
    single_support,
)


def test_as_density_decimal_exactness():
    # 0.4 must mean 2/5 exactly, not the nearest binary double
    assert as_density(0.4) == Fraction(2, 5)
    assert as_density(0.6) == Fraction(3, 5)
    assert as_density("0.6") == Fraction(3, 5)
    assert as_density(Fraction(1, 3)) == Fraction(1, 3)
    assert as_density(1) == Fraction(1)


def test_density_target_avoids_float_ceil():
    # ceil(0.4 * 5) = 2; the binary double for 0.4 would round this up to 3
    assert density_target(5, ApParams(3, 0.4)) == 2
    assert density_target(5, ApParams(3, 0.6)) == 3
    assert density_target(13, ApParams(3, 0.4)) == 6
    assert density_target(7, ApParams(3, 1)) == 7


def test_group_validation():
    # Z/N needs N >= 1; the modulus is checked where a sequence is built
    with pytest.raises(ValueError):
        DifferenceSequence(0, (0,))
    with pytest.raises(ValueError):
        default_block_size(9, 2)
    with pytest.raises(ValueError):
        single_support(7, 0, 1, 0)


def test_params_validation():
    with pytest.raises(ValueError):
        ApParams(1)
    with pytest.raises(ValueError):
        ApParams(3, 0)
    with pytest.raises(ValueError):
        ApParams(3, Fraction(6, 5))
    p = ApParams(5)
    assert p.r == 2
    with pytest.raises(ValueError):
        _ = ApParams(4).r  # even k has no half-length


def test_single_support():
    assert single_support(11, 0, 3, 1) == [3, 6]
    assert single_support(7, 2, 1, 2) == [3, 4, 5, 6]
