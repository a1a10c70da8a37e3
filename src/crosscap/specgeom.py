"""Quartic spectral-curve series and projective-plane quadrangulation counts.

With the 't Hooft parameter fixed to 1, the quartic curve data are

    alpha^2(lam) = (-1 + sqrt(1 + 48 lam)) / (24 lam)
    x0^2(lam)    = -(1 + 8 lam alpha^2) / (4 lam)

and the one-crosscap four-valent resolvent residue

    x0^4 - alpha^4 - x0^2 (x0^2 + 2 alpha^2) sqrt(1 - 4 alpha^2 / x0^2)

is a regular power series t^2 sum c_n (-4 lam t)^(n-1) whose integer
coefficients c_n count rooted quadrangulations of RP^2 with n vertices.

The counts are computed from the linear recurrence, c[m] = c_{m+1},

    n(n+1)(n+2) c[n] = 4n(n+1)(8n-5) c[n-1] - 144n(n-1)(2n-3) c[n-2]
                       - 216(2n-3)(4n-5) c[n-3] + 1728(n-2)(2n-5)(2n-3) c[n-4]

for n >= 4, from c[0..3] = 5, 38, 331, 3098.  ``_extend_quad``'s docstring
holds its certificate: the algebraic equation of the correlator and the
differential equation the recurrence is read from.  The series above stay
as the derivation and as the tests' reference.
"""

from __future__ import annotations

from fractions import Fraction

from .sequences import Table
from .series import Series


class SpectralCurveError(ValueError):
    """An identity that must hold exactly failed; signals an arithmetic bug."""


def alpha2_series(order: int) -> Series:
    """Squared endpoint alpha^2 as a power series in lam, constant term 1."""
    if order < 1:
        raise ValueError("order must be >= 1")
    disc = Series.from_terms({0: Fraction(1), 1: Fraction(48)}, order + 1)
    num = disc.sqrt() - 1          # vanishing constant term, exactly
    return (num * Fraction(1, 24)).shift(-1).truncate(order)


def x02_series(order: int) -> Series:
    """Squared saddle location x0^2, a Laurent series with principal part -1/(4 lam)."""
    if order < 1:
        raise ValueError("order must be >= 1")
    alpha2 = alpha2_series(order + 1)
    num = alpha2.shift(1) * 8 + 1
    return (num * Fraction(-1, 4)).shift(-1).truncate(order)


def rp2_correlator_series(order: int) -> Series:
    """The quadrangulation generating series; exactly regular at lam = 0."""
    if order < 1:
        raise ValueError("order must be >= 1")
    work = order + 4
    alpha2 = alpha2_series(work)
    x02 = x02_series(work)
    lam_alpha2 = alpha2.shift(1)
    # 4 alpha^2 / x0^2 = -16 lam alpha^2 / (1 + 8 lam alpha^2), regular
    ratio = (lam_alpha2 * (-16)) / (lam_alpha2 * 8 + 1)
    root = (1 - ratio).sqrt()      # branch with constant term +1
    corr = x02 * x02 - alpha2 * alpha2 - x02 * (x02 + alpha2 * 2) * root
    if corr.low < 0:
        bad = corr.coefficients(corr.low, -1)
        raise SpectralCurveError(
            f"nonzero principal part {bad} at exponent {corr.low}")
    if corr.order < order:
        raise SpectralCurveError("internal truncation fell short")
    return corr.truncate(order)


def _extend_quad(big: list[int], top: int) -> None:
    """Grow the counts big[m] = c_{m+1} in place through m = top by the
    recurrence of the module docstring, one exact division per step.

    Certificate.  With z = -4 lam the correlator is C(z) = sum c[m] z^m.
    Put alpha^2 = A, so 3zA^2 - A + 1 = 0, x0^2 = (1 - 2zA)/z and
    1 - 4 alpha^2/x0^2 = (1 - 6zA)/(1 - 2zA).  Squaring out the root and
    taking the resultant in A leaves C's algebraic equation,

        P(z, C) = 3z^6 C^4 + 6z^4 (2z - 1) C^3 + z^2 (18z^2 + 24z + 1) C^2
                  + 2(6z^3 + 33z^2 + 4z - 1) C + 3z^2 + 36z + 10 = 0,

    irreducible over Q, with C(0) = 5 its one root regular at z = 0.  With
    theta = z d/dz, let

        L = theta(theta+1)(theta+2) - 4z (theta+1)(theta+2)(8 theta+3)
            + 144z^2 (theta+1)(theta+2)(2 theta+1)
            + 216z^3 (2 theta+3)(4 theta+7)
            - 1728z^4 (theta+2)(2 theta+3)(2 theta+5).

    Each derivative of C is a rational function of z and C, by
    C' = -P_z/P_C, and P_C is prime to P.  So L C - 108z(1 - 6z + 48z^2)
    is N(z, C)/P_C^5 with N of degree 16 in C, and N leaves remainder 0 on
    division by P (reduced once, in sympy, outside the package).  Hence
    L C = 108z - 648z^2 + 5184z^3.  Its z^n coefficient for n >= 4 is the
    recurrence, and n(n+1)(n+2) != 0 there; the seeds are C's first four
    coefficients.

    A step whose division is inexact, or whose quotient is not positive,
    raises ``SpectralCurveError``.
    """
    if not big:
        big.extend((5, 38, 331, 3098))
    for n in range(len(big), top + 1):
        num = (4 * n * (n + 1) * (8 * n - 5) * big[n - 1]
               - 144 * n * (n - 1) * (2 * n - 3) * big[n - 2]
               - 216 * (2 * n - 3) * (4 * n - 5) * big[n - 3]
               + 1728 * (n - 2) * (2 * n - 5) * (2 * n - 3) * big[n - 4])
        den = n * (n + 1) * (n + 2)
        q, r = divmod(num, den)
        if r or q <= 0:
            raise SpectralCurveError(
                f"c_{n + 1} = {Fraction(num, den)} is not a positive integer")
        big.append(q)


QUAD = Table(_extend_quad, lambda x, m: x)


def quadrangulation_counts(n_max: int) -> list[int]:
    """c_1 .. c_{n_max}: rooted quadrangulations of the projective plane.

    Cached like the other tables: a call at or below a built size computes
    nothing; a larger one runs the recurrence on from the built counts and
    publishes the new tail.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    return QUAD.upto(n_max - 1)
