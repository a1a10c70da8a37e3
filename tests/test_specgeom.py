from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from crosscap.series import Series
from crosscap.specgeom import (SpectralCurveError, alpha2_series,
                               quadrangulation_counts, rp2_correlator_series,
                               x02_series)


class TestAlpha2:
    def test_leading_coefficients(self):
        a2 = alpha2_series(6)
        assert a2.coefficient(0) == 1
        assert a2.coefficient(1) == -12

    def test_defining_identity(self):
        order = 12
        a2 = alpha2_series(order)
        disc = Series.from_terms({0: Fraction(1), 1: Fraction(48)}, order + 1)
        residue = a2.shift(1) * 24 + 1 - disc.sqrt()
        assert residue.is_zero() or all(c == 0 for c in residue.coeffs)


class TestX02:
    def test_principal_and_constant(self):
        x02 = x02_series(6)
        assert x02.low == -1
        assert x02.coefficient(-1) == Fraction(-1, 4)
        assert x02.coefficient(0) == -2

    def test_defining_identity(self):
        order = 12
        x02 = x02_series(order)
        a2 = alpha2_series(order)
        residue = x02.shift(1) * (-4) - 1 - a2.shift(1) * 8
        assert residue.is_zero() or all(c == 0 for c in residue.coeffs)


class TestCorrelator:
    def test_first_two_coefficients(self):
        corr = rp2_correlator_series(4)
        assert corr.coefficient(0) == 5
        assert corr.coefficient(1) == -152  # = c_2 * (-4) = 38 * (-4)

    @pytest.mark.parametrize("order", [1, 5, 12, 25])
    def test_principal_part_exactly_zero(self, order):
        corr = rp2_correlator_series(order)
        assert corr.low >= 0


class TestQuadrangulationCounts:
    def test_first_seven(self):
        assert quadrangulation_counts(7) == \
            [5, 38, 331, 3098, 30330, 306276, 3163737]

    def test_integral_positive_through_20(self):
        counts = quadrangulation_counts(20)
        assert len(counts) == 20
        assert all(isinstance(c, int) and c > 0 for c in counts)
        assert all(b > a for a, b in zip(counts, counts[1:]))

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 120))
    def test_positive_integers_from_the_known_start(self, n):
        counts = quadrangulation_counts(n)
        assert len(counts) == n
        assert all(type(c) is int and c > 0 for c in counts)
        assert counts[:5] == [5, 38, 331, 3098, 30330][:n]

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            quadrangulation_counts(0)
