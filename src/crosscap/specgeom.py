"""Quartic spectral-curve series and projective-plane quadrangulation counts.

With the 't Hooft parameter fixed to 1, the quartic curve data are

    alpha^2(lam) = (-1 + sqrt(1 + 48 lam)) / (24 lam)
    x0^2(lam)    = -(1 + 8 lam alpha^2) / (4 lam)

and the one-crosscap four-valent resolvent residue

    x0^4 - alpha^4 - x0^2 (x0^2 + 2 alpha^2) sqrt(1 - 4 alpha^2 / x0^2)

is a regular power series t^2 sum c_n (-4 lam t)^(n-1) whose integer
coefficients c_n count rooted quadrangulations of RP^2 with n faces (and
so n + 1 vertices): c_1 = 5 glues one square.

The counts are computed from the linear recurrence, c[m] = c_{m+1},

    n(n+1)(n+2) c[n] = 4n(n+1)(8n-5) c[n-1] - 144n(n-1)(2n-3) c[n-2]
                       - 216(2n-3)(4n-5) c[n-3] + 1728(n-2)(2n-5)(2n-3) c[n-4]

for n >= 4, from c[0..3] = 5, 38, 331, 3098.  ``_extend_quad``'s docstring
holds its certificate: the algebraic equation of the correlator and the
differential equation the recurrence is read from.

The public series are built from closed forms, with C_n the Catalan number:

    alpha^2(lam) = sum (-12)^n C_n lam^n
    x0^2(lam)    = -1/(4 lam) - 2 alpha^2(lam)
    residue      = sum c_{m+1} (-4 lam)^m     (t = 1)

The derivation above, with its square roots and reciprocal, lives in the
tests, as the independent reference for these forms and the recurrence.
"""

from __future__ import annotations

from fractions import Fraction

from .sequences import Table
from .series import Series


class SpectralCurveError(ValueError):
    """An identity that must hold exactly failed; signals an arithmetic bug."""


def alpha2_series(order: int) -> Series:
    """Squared endpoint alpha^2 as a power series in lam, constant term 1:
    the coefficient of lam^n is (-12)^n C_n, C_n the Catalan number."""
    if order < 1:
        raise ValueError("order must be >= 1")
    terms = [1]
    for n in range(order):      # C_{n+1} = 2(2n+1) C_n / (n+2)
        terms.append(-24 * (2 * n + 1) * terms[n] // (n + 2))
    return Series([Fraction(t) for t in terms])


def x02_series(order: int) -> Series:
    """Squared saddle location x0^2 = -1/(4 lam) - 2 alpha^2, a Laurent
    series with principal part -1/(4 lam)."""
    alpha2 = alpha2_series(order)
    return Series([Fraction(-1, 4)] + [-2 * c for c in alpha2.coeffs], -1)


def rp2_correlator_series(order: int) -> Series:
    """The quadrangulation generating series sum c_{m+1} (-4 lam)^m."""
    if order < 1:
        raise ValueError("order must be >= 1")
    counts = quadrangulation_counts(order + 1)
    return Series([Fraction(c * (-4) ** m) for m, c in enumerate(counts)])


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
    """c_1 .. c_{n_max}: c_n rooted quadrangulations of the projective
    plane with n faces, n + 1 vertices.

    Cached like the other tables: a call at or below a built size computes
    nothing; a larger one runs the recurrence on from the built counts and
    publishes the new tail.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    return QUAD.upto(n_max - 1)
