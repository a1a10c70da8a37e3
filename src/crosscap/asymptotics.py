"""Arbitrary-precision evaluation of the large-index expansions.

The three evaluators share one pattern.  Each brace is one exact Horner sum
over the tables' stored integers (``sequences._brace``): with
M_l = 320^l l! sqrt3^l mu_l and W_{l,k} the integers of row k (S_l at k = 1),

    sum mu_l A^l / prod_{m<=l} (2n-1/2-m)  =  sum M_l / prod 100 m (4n-1-2m),
    (2 sqrt3)^(k-1) sum v_{l,k} (+-A/2)^l / prod_{m<=l} (n-m)
                                           =  sum W_{l,k} / prod (+-50 m (n-m)).

The Gamma factors are factorials: Gamma(2n-1/2) / sqrt(pi) = (4n-2)! /
(4^(2n-1) (2n-1)!) and (A/2)^(-n) Gamma(n) = 5^n (n-1)! / (4^n sqrt3^n).
With the Stokes prefactors S/(2 pi i) folded in, each value is one integer
over another times sqrt30/pi, sqrt6/pi or sqrt18/pi, rounded once
(``exactnum.round_sum``); all values returned are real.
"""

from __future__ import annotations

from math import factorial, perm

from .exactnum import (DEFAULT_DPS, QF3, SQRT3, _check_dps, _mpf_ratio,
                       round_sum)
from .sequences import _brace
from .transseries import MU, _row

INSTANTON_ACTION = 8 * SQRT3 / 5   # A = 8 sqrt3 / 5
HALF_ACTION = 4 * SQRT3 / 5        # A/2, the v-sector eigenvalue


def asym_u(n: int, L: int, dps: int = DEFAULT_DPS):
    """Expansion value for u_n at truncation order L:

    A^(-2n+1/2) Gamma(2n-1/2) (S/2pi i) {1 + sum mu_l A^l / prod (2n-1/2-m)},

    with S/(2 pi i) = -3^(1/4) / (2 pi^(3/2)).  As A^2 = 192/25 and
    A^(1/2) 3^(1/4) = 2 sqrt30 / 5, this is, with Gamma(2n-1/2) as above,
    -5^(2n-1) (4n-2)! / (192^n 4^(2n-1) (2n-1)!) {...} sqrt30/pi.
    """
    _check_dps(dps)
    if n < 1:
        raise ValueError("n must be >= 1")
    if L < 0:
        raise ValueError("L must be >= 0")
    p, q = _brace(MU.grown(L), L, lambda m: 100 * m * (4 * n - 1 - 2 * m))
    p *= 5 ** (2 * n - 1) * perm(4 * n - 2, 2 * n - 1)
    return round_sum([((-1, -1, 30), (p, 192 ** n * q << 4 * n - 2))], dps)


def _times_sqrt6_over_pi(p: int, q: int, k: int, n: int, dps: int):
    """(A/2)^(-n) Gamma(n) (p/q) / (2 (2 sqrt3)^k) sqrt6/pi, rounded once;
    an odd sqrt3^-(n+k) is sqrt3 / 3^((n+k+1)/2), giving sqrt18/pi."""
    e = n + k
    return round_sum([((1, -1, 18 if e % 2 else 6),
                       (5 ** n * factorial(n - 1) * p,
                        q * 3 ** ((e + 1) // 2) << 2 * n + k + 1))], dps)


def asym_v(n: int, L: int, dps: int = DEFAULT_DPS):
    """Expansion value for v_n at truncation order L:

    (A/2)^(-n) Gamma(n) (sqrt6/(2 pi)) {1 + sum nu_l (A/2)^l / prod (n-m)}.
    """
    return asym_vk(0, n, L, dps)


def asym_vk(k: int, n: int, L: int, dps: int = DEFAULT_DPS):
    """Expansion value for v_{n,k} at truncation order L, both instanton
    directions:

      lambda^(-n) (k+1) (S'/2pi i) Gamma(n) {v_{0,k+1} + ...}
      + (-lambda)^(-n) (k-1) (S_-1/2pi i) Gamma(n) {v_{0,k-1} + ...(-lambda)^l}

    with lambda = A/2, S'/(2 pi i) = sqrt6/(2 pi) and S_-1/(2 pi i) =
    -sqrt6/(24 pi); the second term is absent for k <= 1 (rows below k = 0
    are zero, and the k-1 factor kills k = 1).  In the braces' scale the two
    braces F and B, of rows k+1 and k-1, combine as (k+1) F - (-1)^n (k-1) B
    over 2 (2 sqrt3)^k, B's denominator (-1)^L F's (its steps negated).
    """
    _check_dps(dps)
    if k < 0:
        raise ValueError("k must be >= 0")
    if n < 1:
        raise ValueError("n must be >= 1")
    if L < 0:
        raise ValueError("L must be >= 0")
    if L >= n:
        raise ValueError("L must be < n (the product prod(n-m) hits zero)")
    p, q = _brace(_row(k + 1).grown(L), L, lambda m: 50 * m * (n - m))
    p *= k + 1
    if k >= 2:
        back, _ = _brace(_row(k - 1).grown(L), L, lambda m: -50 * m * (n - m))
        p -= (-1) ** (n + L) * (k - 1) * back
    return _times_sqrt6_over_pi(p, q, k, n, dps)


def relative_error(approx, exact, dps: int = DEFAULT_DPS):
    """|approx/exact - 1|, exact over approx's binary value P/Q, rounded once.

    With exact = (alpha + beta sqrt3) / (a_den b_den), its parts a and b
    over their denominators, and D = alpha^2 - 3 beta^2, the ratio is
    P a_den b_den (alpha - beta sqrt3) / (Q D): two parts over integers.
    ``approx`` must be an ``mpmath.mpf``: a Python float or int raises
    ``TypeError``.
    """
    exact = exact if isinstance(exact, QF3) else QF3(exact)
    (a, a_den), (b, b_den) = (exact.a.as_integer_ratio(),
                              exact.b.as_integer_ratio())
    alpha, beta = a * b_den, b * a_den
    norm = alpha * alpha - 3 * beta * beta
    if not norm:
        raise ZeroDivisionError("relative error against an exact 0")
    p, q = _mpf_ratio(approx)
    p, q = p * a_den * b_den, q * norm
    return abs(round_sum([((1, 0, 1), (p * alpha - q, q)),
                          ((1, 0, 3), (-p * beta, q))], dps))
