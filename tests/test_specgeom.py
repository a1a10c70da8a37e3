from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from crosscap.specgeom import (SpectralCurveError, alpha2_series,
                               quadrangulation_counts, rp2_correlator_series,
                               x02_series)


class TestAlpha2:
    def test_leading_coefficients(self):
        a2 = alpha2_series(6)
        assert a2.coefficient(0) == 1
        assert a2.coefficient(1) == -12

    def test_defining_identity(self):
        # 24 lam alpha^2 + 1 = sqrt(1 + 48 lam), squared and over 48 lam
        order = 200
        a2 = alpha2_series(order)
        residue = (a2 * a2).shift(1) * 12 + a2 - 1
        assert residue.is_zero() and residue.order == order


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

    def test_certificate_equation_through_z199(self):
        # P(z, C) = 0 from _extend_quad's docstring, C = sum c[m] z^m;
        # P's coefficients are listed as {power of C: {power of z: coeff}}
        n = 200
        c = quadrangulation_counts(n)
        powers = [[1] + [0] * (n - 1), c]
        for _ in range(3):
            last = powers[-1]
            powers.append([sum(last[i] * c[e - i] for i in range(e + 1))
                           for e in range(n)])
        poly = {4: {6: 3}, 3: {5: 12, 4: -6}, 2: {4: 18, 3: 24, 2: 1},
                1: {3: 12, 2: 66, 1: 8, 0: -2}, 0: {2: 3, 1: 36, 0: 10}}
        total = [0] * n
        for k, row in poly.items():
            for j, a in row.items():
                for e in range(j, n):
                    total[e] += a * powers[k][e - j]
        assert total == [0] * n


@pytest.mark.parametrize("build", [alpha2_series, x02_series,
                                   rp2_correlator_series])
@pytest.mark.parametrize("order", [0, -3])
def test_series_reject_order_below_one(build, order):
    with pytest.raises(ValueError):
        build(order)
