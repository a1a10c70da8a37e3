"""Arbitrary-precision evaluation of the large-index expansions.

The three evaluators share one pattern: the braces are accumulated exactly
in Q(sqrt3) (coefficients times powers of the instanton action over exact
falling products), the Gamma factors are exact factorials or half-integer
closed forms, and the Stokes prefactors S/(2 pi i) fold in as a rational
times sqrt30/pi or sqrt6/pi.  Each value is then rounded once
(``exactnum.round_sum``); all values returned are real.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

import mpmath
from mpmath.libmp import to_rational

from .exactnum import DEFAULT_DPS, QF3, gamma_half_integer, round_sum
from .transseries import mu_seq, nu_seq, vk_table

INSTANTON_ACTION = QF3(0, Fraction(8, 5))   # A = 8 sqrt3 / 5
HALF_ACTION = QF3(0, Fraction(4, 5))        # A/2, the v-sector eigenvalue


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


def asym_u(n: int, L: int, dps: int = DEFAULT_DPS) -> mpmath.mpf:
    """Expansion value for u_n at truncation order L:

    A^(-2n+1/2) Gamma(2n-1/2) (S/2pi i) {1 + sum mu_l A^l / prod (2n-1/2-m)},

    with S/(2 pi i) = -3^(1/4) / (2 pi^(3/2)).  As A^2 = 192/25,
    A^(1/2) 3^(1/4) = 2 sqrt30 / 5 and Gamma(2n-1/2) = g sqrt(pi) with g
    rational, this is -(25/192)^n (g/5) {...} sqrt30/pi.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if L < 0:
        raise ValueError("L must be >= 0")
    mu = mu_seq(L)
    brace = _brace(mu, INSTANTON_ACTION, L,
                   lambda m: Fraction(4 * n - 1 - 2 * m, 2))
    g = gamma_half_integer(Fraction(4 * n - 1, 2)).coeff
    return round_sum((brace * (Fraction(25, 192) ** n * g / 5)).parts(-1, -1, 30),
                     dps)


def _times_sqrt6_over_pi(z: QF3, n: int, dps: int) -> mpmath.mpf:
    """(A/2)^(-n) Gamma(n) z sqrt6/pi, rounded once."""
    exact = HALF_ACTION ** (-n) * z * factorial(n - 1)
    return round_sum(exact.parts(1, -1, 6), dps)


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
    return _times_sqrt6_over_pi(brace / 2, n, dps)


def asym_vk(k: int, n: int, L: int, dps: int = DEFAULT_DPS) -> mpmath.mpf:
    """Expansion value for v_{n,k} at truncation order L, both instanton
    directions:

      lambda^(-n) (k+1) (S'/2pi i) Gamma(n) {v_{0,k+1} + ...}
      + (-lambda)^(-n) (k-1) (S_-1/2pi i) Gamma(n) {v_{0,k-1} + ...(-lambda)^l}

    with lambda = A/2, S'/(2 pi i) = sqrt6/(2 pi) and S_-1/(2 pi i) =
    -sqrt6/(24 pi); the second term is absent for k <= 1 (rows below k = 0
    are zero, and the k-1 factor kills k = 1).
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if n < 1:
        raise ValueError("n must be >= 1")
    if L >= n:
        raise ValueError("L must be < n (the product prod(n-m) hits zero)")
    table = vk_table(L, k + 1)
    fwd = _brace(table.row(k + 1), HALF_ACTION, L, lambda m: Fraction(n - m))
    z = fwd * Fraction(k + 1, 2)
    if k >= 2:
        back = _brace(table.row(k - 1), -HALF_ACTION, L,
                      lambda m: Fraction(n - m))
        z = z - back * Fraction((k - 1) * (-1) ** n, 24)
    return _times_sqrt6_over_pi(z, n, dps)


def relative_error(approx: mpmath.mpf, exact, dps: int = DEFAULT_DPS) -> mpmath.mpf:
    """|approx/exact - 1|, exact over approx's binary value, rounded once."""
    ratio = QF3(Fraction(*to_rational(approx._mpf_))) / exact
    return abs((ratio - 1).to_float(dps))
