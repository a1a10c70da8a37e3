import random
from fractions import Fraction

import pytest

from crosscap.exactnum import QF3
from crosscap.series import Series, SeriesError


def random_series(rng, low_range=(-2, 2), width=6, qf3=False):
    low = rng.randint(*low_range)
    def coeff():
        f = Fraction(rng.randint(-8, 8), rng.randint(1, 8))
        return QF3(f, Fraction(rng.randint(-8, 8), rng.randint(1, 8))) if qf3 else f
    zero = QF3(0) if qf3 else Fraction(0)
    coeffs = [coeff() for _ in range(width)]
    return Series(coeffs, low, zero)


@pytest.mark.parametrize("qf3", [False, True])
def test_ring_laws(qf3):
    rng = random.Random(23)
    for _ in range(40):
        f = random_series(rng, qf3=qf3)
        g = random_series(rng, qf3=qf3)
        h = random_series(rng, qf3=qf3)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f * g == g * f


def test_truncation_bookkeeping():
    f = Series([Fraction(1)] * 4, -1)     # exponents -1..2
    g = Series([Fraction(1)] * 3, 0)      # exponents 0..2
    assert (f + g).order == 2
    prod = f * g
    assert prod.low == -1
    assert prod.order == min(f.order + g.low, g.order + f.low)
    with pytest.raises(SeriesError):
        prod.coefficient(prod.order + 1)
    assert f.coefficient(-5) == 0


def test_scalar_ops_preserve_order():
    f = Series([Fraction(1), Fraction(2)], 0)
    assert (f + 5).coefficient(0) == 6
    assert (f + 5).order == f.order
    assert (3 - f).coefficient(0) == 2
    assert (f * Fraction(1, 2)).coefficient(1) == 1


def test_leading_zero_stripping():
    f = Series([Fraction(0), Fraction(0), Fraction(3)], -1)
    assert f.low == 1
    assert f.coefficient(0) == 0
    assert f.coefficient(1) == 3


def test_shift_and_truncate():
    f = Series([Fraction(2), Fraction(4)], 0)
    assert f.shift(-1).low == -1
    assert f.truncate(0).order == 0
