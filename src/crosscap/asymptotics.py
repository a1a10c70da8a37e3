"""Arbitrary-precision evaluation of the large-index expansions.

The three evaluators share one pattern: the braces are accumulated exactly
in Q(sqrt3) (coefficients times powers of the instanton action over exact
falling products), the Gamma factors are exact factorials or half-integer
closed forms, and a single conversion to mpmath floats happens at the end.
The Stokes prefactors are stored as the real combinations S/(2 pi i); all
values returned are real.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

import mpmath

from .exactnum import DEFAULT_DPS, QF3, rational_to_float
from .transseries import mu_seq, nu_seq, vk_table

INSTANTON_ACTION = QF3(0, Fraction(8, 5))   # A = 8 sqrt3 / 5
HALF_ACTION = QF3(0, Fraction(4, 5))        # A/2, the v-sector eigenvalue


class AsymParams:
    """The Stokes ratios S/(2 pi i) entering the expansions."""

    @staticmethod
    def s_u_over_2pi_i(dps: int = DEFAULT_DPS) -> mpmath.mpf:
        """S/(2 pi i) = -3^(1/4) / (2 pi^(3/2)) for the u-sector."""
        with mpmath.workdps(dps + 10):
            val = -mpmath.root(3, 4) / (2 * mpmath.pi ** mpmath.mpf("1.5"))
        with mpmath.workdps(dps):
            return +val

    @staticmethod
    def s_prime_over_2pi_i(dps: int = DEFAULT_DPS) -> mpmath.mpf:
        """S'/(2 pi i) = sqrt6 / (2 pi) with the conjectural S' = i sqrt6."""
        with mpmath.workdps(dps + 10):
            val = mpmath.sqrt(6) / (2 * mpmath.pi)
        with mpmath.workdps(dps):
            return +val

    @staticmethod
    def s_minus1_over_2pi_i(dps: int = DEFAULT_DPS) -> mpmath.mpf:
        """S_-1/(2 pi i) = -sqrt6 / (24 pi) from S_-1 = -i sqrt6 / 12."""
        with mpmath.workdps(dps + 10):
            val = -mpmath.sqrt(6) / (24 * mpmath.pi)
        with mpmath.workdps(dps):
            return +val


def _brace(coeffs: list[QF3], action_power: QF3, L: int,
           denom_step) -> QF3:
    """coeffs[0] + sum_{l=1}^{L} coeffs[l] action^l / prod_{m=1}^{l} denom_step(m)."""
    acc = coeffs[0]
    power = QF3(1)
    prod = Fraction(1)
    for l in range(1, L + 1):
        power = power * action_power
        prod *= denom_step(l)
        acc = acc + coeffs[l] * power / prod
    return acc


def gamma_exact_half(twice: int) -> Fraction:
    """Gamma(twice/2) / sqrt(pi), rational; twice odd and positive."""
    if twice <= 0 or twice % 2 == 0:
        raise ValueError("expects a positive odd numerator over 2")
    m = (twice - 1) // 2  # Gamma(m + 1/2)
    return Fraction(factorial(2 * m), 4 ** m * factorial(m))


def asym_u(n: int, L: int, dps: int = DEFAULT_DPS) -> mpmath.mpf:
    """Expansion value for u_n at truncation order L:

    A^(-2n+1/2) Gamma(2n-1/2) (S/2pi i) {1 + sum mu_l A^l / prod (2n-1/2-m)}.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if L < 0:
        raise ValueError("L must be >= 0")
    mu = mu_seq(L)
    brace = _brace(mu, INSTANTON_ACTION, L,
                   lambda m: Fraction(4 * n - 1 - 2 * m, 2))
    gamma_rat = gamma_exact_half(4 * n - 1)
    with mpmath.workdps(dps + 15):
        a = INSTANTON_ACTION.to_float(dps + 15)
        pref = a ** (-2 * n + mpmath.mpf("0.5"))
        gamma_val = rational_to_float(gamma_rat, dps + 15) * mpmath.sqrt(mpmath.pi)
        val = pref * gamma_val * AsymParams.s_u_over_2pi_i(dps + 15) \
            * brace.to_float(dps + 15)
    with mpmath.workdps(dps):
        return +val


def asym_v(n: int, L: int, dps: int = DEFAULT_DPS) -> mpmath.mpf:
    """Expansion value for v_n at truncation order L:

    (A/2)^(-n) Gamma(n) (sqrt6/(2 pi)) {1 + sum nu_l (A/2)^l / prod (n-m)}.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if L >= n:
        raise ValueError("L must be < n (the product prod(n-m) hits zero)")
    nu = nu_seq(L)
    brace = _brace(nu, HALF_ACTION, L, lambda m: Fraction(n - m))
    exact = (HALF_ACTION ** (-n)) * brace * factorial(n - 1)
    with mpmath.workdps(dps + 15):
        val = exact.to_float(dps + 15) * AsymParams.s_prime_over_2pi_i(dps + 15)
    with mpmath.workdps(dps):
        return +val


def asym_vk(k: int, n: int, L: int, dps: int = DEFAULT_DPS) -> mpmath.mpf:
    """Expansion value for v_{n,k} at truncation order L, both instanton
    directions:

      lambda^(-n) (k+1) (S'/2pi i) Gamma(n) {v_{0,k+1} + ...}
      + (-lambda)^(-n) (k-1) (S_-1/2pi i) Gamma(n) {v_{0,k-1} + ...(-lambda)^l}

    with lambda = A/2; the second term is absent for k <= 1 (rows below
    k = 0 are zero, and the k-1 factor kills k = 1).
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if n < 1:
        raise ValueError("n must be >= 1")
    if L >= n:
        raise ValueError("L must be < n (the product prod(n-m) hits zero)")
    table = vk_table(L, k + 1)
    gamma = factorial(n - 1)
    fwd = _brace(table.row(k + 1), HALF_ACTION, L, lambda m: Fraction(n - m))
    exact_fwd = (HALF_ACTION ** (-n)) * fwd * ((k + 1) * gamma)
    with mpmath.workdps(dps + 15):
        val = exact_fwd.to_float(dps + 15) * AsymParams.s_prime_over_2pi_i(dps + 15)
        if k >= 2:
            back = _brace(table.row(k - 1), -HALF_ACTION, L,
                          lambda m: Fraction(n - m))
            sign = 1 if n % 2 == 0 else -1
            exact_back = (HALF_ACTION ** (-n)) * back * ((k - 1) * gamma * sign)
            val += exact_back.to_float(dps + 15) \
                * AsymParams.s_minus1_over_2pi_i(dps + 15)
    with mpmath.workdps(dps):
        return +val


def relative_error(approx: mpmath.mpf, exact, dps: int = DEFAULT_DPS) -> mpmath.mpf:
    """|approx/exact - 1| with the exact value converted at dps + 20."""
    with mpmath.workdps(dps + 20):
        if isinstance(exact, QF3):
            ex = exact.to_float(dps + 20)
        else:
            ex = rational_to_float(exact, dps + 20)
        return abs(mpmath.mpf(approx) / ex - 1)
