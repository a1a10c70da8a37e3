from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from crosscap.exactnum import QF3
from crosscap.series import Series, SeriesError

RATIONALS = st.fractions(min_value=-20, max_value=20, max_denominator=30)


def test_truncation_bookkeeping():
    f = Series([Fraction(1)] * 4, -1)     # exponents -1..2
    g = Series([Fraction(0), Fraction(1), Fraction(1)], 0)  # exponents 1..2
    assert (f.low, f.order) == (-1, 2)
    assert (g.low, g.order) == (1, 2)
    for s in (f, g):
        with pytest.raises(SeriesError):
            s.coefficient(s.order + 1)
    assert f.coefficient(-5) == 0
    assert g.coefficient(0) == 0


def test_str_repr_and_eq():
    assert str(Series([Fraction(1, 2), 0, 3], -1)) \
        == "(1/2)t^-1 + (3)t^1 + O(t^2)"
    assert str(Series([0, 0], 0)) == "O(t^2)"
    assert repr(Series([0, 0, 1], -2)) == "Series([1], low=0)"
    assert Series([1], 0).__eq__([1]) is NotImplemented


def test_leading_zero_stripping():
    f = Series([Fraction(0), Fraction(0), Fraction(3)], -1)
    assert f.low == 1
    assert f.coefficient(0) == 0
    assert f.coefficient(1) == 3


@st.composite
def coefficient_lists(draw):
    """(coeffs, zero): 0..12 Fraction or QF3 coefficients, the first few of
    them zero (in either field) more often than chance would make them."""
    qf3 = draw(st.booleans())
    zero = QF3(0) if qf3 else Fraction(0)
    elem = st.builds(QF3, RATIONALS, RATIONALS) if qf3 else RATIONALS
    zeros = draw(st.lists(st.sampled_from([zero, Fraction(0)]), max_size=4))
    return zeros + draw(st.lists(elem, max_size=8)), zero


@settings(max_examples=60, deadline=None)
@given(given_coeffs=coefficient_lists(), low=st.integers(-4, 4))
def test_constructor_keeps_every_known_coefficient(given_coeffs, low):
    coeffs, zero = given_coeffs
    f = Series(coeffs, low, zero)
    order = low + len(coeffs) - 1
    # stripping leading zeros moves low, never the truncation order
    assert f.order == order
    assert f.is_zero() == (not any(coeffs))
    assert not f.coeffs or f.coeffs[0]
    expected = {e: c for e, c in enumerate(coeffs, start=low)}
    for e in range(low - 3, order + 1):
        assert f.coefficient(e) == expected.get(e, zero), e
        if e < f.low:
            assert f.coefficient(e) is zero, e
    for e in (order + 1, order + 5):
        with pytest.raises(SeriesError):
            f.coefficient(e)
    assert f.coefficients(low - 3, order) \
        == [expected.get(e, zero) for e in range(low - 3, order + 1)]
    with pytest.raises(SeriesError):
        f.coefficients(low, order + 1)
