from fractions import Fraction
from functools import cache
from math import comb, factorial

import pytest

from crosscap.asymptotics import INSTANTON_ACTION
from crosscap.exactnum import QF3, SQRT3
from crosscap.sequences import V, u_seq, v_seq
from crosscap.transseries import (MINUS, PLUS, _row, mu_seq, nu_seq, seed_v0k,
                                  vk_table, vpm_series)


FACTORIZATION_ORDER = 200


def bconv(f, g):
    """sum_l C(m,l) f_l g_{m-l} for every m both lists reach: the product
    of two series stored with m! in their scales."""
    n = min(len(f), len(g))
    return [sum(comb(m, l) * f[l] * g[m - l] for l in range(m + 1))
            for m in range(n)]


@cache
def factorization_rhs(k):
    """(-1)^(k-1) v_plus^(k-1) v_minus^k (1 - v_plus vhat_0) through
    x^-FACTORIZATION_ORDER, in row k's scaled integers
    40^m m! 2^(k-1) sqrt3^(m+k-1), each k from the one before it.

    v_plus and v_minus are read as their stored integers P and Q (Omega's
    and nu's scales), and vhat_0 as X_j = 5^j j! R_j / 2 =
    40^j j! sqrt3^(j-1) v_j / 2 for j >= 2, R the scaled v; so
    1 - v_plus vhat_0 is delta_0 - bconv(P, X) in nu's scale, and
    v_plus v_minus is bconv(P, Q) in Omega's."""
    n = FACTORIZATION_ORDER
    plus, minus = PLUS.grown(n)[: n + 1], MINUS.grown(n)[: n + 1]
    if k > 1:
        return [-x for x in bconv(factorization_rhs(k - 1),
                                  bconv(plus, minus))]
    v_hat = [0, 0] + [5 ** j * factorial(j) * big // 2
                      for j, big in enumerate(V.grown(n)[2: n + 1], start=2)]
    one_minus = [-x for x in bconv(plus, v_hat)]
    one_minus[0] += 1
    return bconv(minus, one_minus)


def over_sqrt3(num, den):
    """num / (den sqrt3) as an exact QF3 element."""
    return QF3(0, Fraction(num, 3 * den))


class TestMuSeq:
    def test_first_values(self):
        mu = mu_seq(1)
        assert mu[0] == QF3(1)
        assert mu[1] == over_sqrt3(-5, 64)          # -(5/192) sqrt3

    def test_mu1_times_action(self):
        assert mu_seq(1)[1] * INSTANTON_ACTION == QF3(Fraction(-1, 8))

    def test_linearized_u_equation(self):
        # coefficient expansion of u1'' = 12 u u1 with the exponential
        # prefactor differentiated through; independent of the recursion
        L = 40
        mu = mu_seq(L)
        u = u_seq((L + 2) // 2)

        def u_at(j):  # u at half-index j/2, zero unless j is even
            return u[j // 2] if j % 2 == 0 else Fraction(0)

        factor = INSTANTON_ACTION * Fraction(25, 8)
        for m in range(1, L + 1):
            lhs = factor * (m - 1) * mu[m - 1]
            if m >= 2:
                lhs = lhs + (Fraction(19, 8) - Fraction(5 * m, 4)) \
                    * (Fraction(11, 8) - Fraction(5 * m, 4)) * mu[m - 2]
            rhs = QF3(0)
            for n in range(m):
                rhs = rhs + 12 * u_at(m - n) * mu[n]
            assert lhs == rhs, m


class TestNuSeq:
    def test_first_values(self):
        nu = nu_seq(2)
        assert nu[0] == QF3(1)
        assert nu[1] == over_sqrt3(-1, 4)           # -1/(4 sqrt3)
        assert nu[2] == QF3(Fraction(-3, 32))

    def test_half_nu1_action_is_minus_one_fifth(self):
        assert nu_seq(1)[1] * INSTANTON_ACTION * Fraction(1, 2) \
            == QF3(Fraction(-1, 5))

    def test_linearized_v_equation(self):
        # v1' = v v1 expanded with the exponential prefactor: for every m,
        # [m>=1] (6-5m)/4 nu_{m-1} - sqrt3 nu_m = sum_{k<=m} v_k nu_{m-k}
        L = 40
        nu = nu_seq(L)
        v = v_seq(L)
        for m in range(L + 1):
            lhs = -SQRT3 * nu[m]
            if m >= 1:
                lhs = lhs + Fraction(6 - 5 * m, 4) * nu[m - 1]
            rhs = QF3(0)
            for k in range(m + 1):
                rhs = rhs + v[k] * nu[m - k]
            assert lhs == rhs, m


class TestVkTable:
    def test_seed_examples(self):
        assert seed_v0k(2) == over_sqrt3(-1, 2)     # -(1/6) sqrt3
        assert seed_v0k(5) == QF3(Fraction(1, 144))

    def test_rejects_out_of_domain(self):
        for call in (lambda: seed_v0k(0), lambda: vk_table(-1, 0),
                     lambda: vk_table(0, -1), lambda: vpm_series(0)):
            with pytest.raises(ValueError):
                call()

    def test_row_one_is_nu(self):
        table = vk_table(25, 3)
        assert table.row(1) == nu_seq(25)

    def test_row_zero_is_v(self):
        table = vk_table(25, 3)
        assert table.row(0) == v_seq(25)

    def test_ode_identity_rows(self):
        # rows k >= 2 must satisfy, at every order m,
        # [m>=1](6-5m)/4 v_{m-1,k} - sqrt3 k v_{m,k}
        #   = sum_j v_j v_{m-j,k} + 1/2 sum_{i=1}^{k-1} sum_l v_{l,i} v_{m-l,k-i}
        table = vk_table(15, 4)
        v = v_seq(15)
        for k in range(2, 5):
            for m in range(16):
                lhs = -SQRT3 * k * table.value(m, k)
                if m >= 1:
                    lhs = lhs + Fraction(6 - 5 * m, 4) * table.value(m - 1, k)
                rhs = QF3(0)
                for j in range(m + 1):
                    rhs = rhs + v[j] * table.value(m - j, k)
                dbl = QF3(0)
                for i in range(1, k):
                    for l in range(m + 1):
                        dbl = dbl + table.value(l, i) * table.value(m - l, k - i)
                rhs = rhs + dbl * Fraction(1, 2)
                assert lhs == rhs, (k, m)

    def test_cache_extension_consistent(self):
        small = vk_table(8, 3)
        large = vk_table(16, 3)
        for k in range(4):
            assert large.row(k)[:9] == small.row(k)

    @pytest.mark.parametrize("n, k", [(-1, 0), (0, -1), (6, 0), (0, 3),
                                      (-6, -3)])
    def test_indices_outside_the_table_raise(self, n, k):
        # no wrap-around: v_{-1,0} is not v_{5,0}
        table = vk_table(5, 2)
        with pytest.raises(IndexError):
            table.value(n, k)
        if not 0 <= k <= 2:
            with pytest.raises(IndexError):
                table.row(k)


class TestVpm:
    # known closed coefficients through x^-5
    EXPECTED_PLUS = [over_sqrt3(1, 2), QF3(0), over_sqrt3(5, 192),
                     QF3(Fraction(-25, 1152)), over_sqrt3(3149, 36864),
                     QF3(Fraction(-15995, 110592))]
    EXPECTED_MINUS = [QF3(1), over_sqrt3(-1, 4), QF3(Fraction(-1, 24)),
                      over_sqrt3(-1459, 11520), QF3(Fraction(-5429, 34560)),
                      over_sqrt3(-114343, 138240)]

    def test_known_coefficients(self):
        plus, minus = vpm_series(5)
        for e in range(6):
            assert plus.coefficient(e) == self.EXPECTED_PLUS[e], e
            assert minus.coefficient(e) == self.EXPECTED_MINUS[e], e

    def test_seed_consistency(self):
        plus, minus = vpm_series(1)
        assert plus.coefficient(0) == over_sqrt3(1, 2)
        assert minus.coefficient(0) == QF3(1)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_factorization_identity(self, k):
        # vhat_k = (-1)^(k-1) v_plus^(k-1) v_minus^k (1 - v_plus vhat_0)
        assert factorization_rhs(k) \
            == _row(k).grown(FACTORIZATION_ORDER)[: FACTORIZATION_ORDER + 1]
