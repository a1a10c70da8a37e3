"""Quartic spectral-curve series and projective-plane quadrangulation counts.

With the 't Hooft parameter fixed to 1, the quartic curve data are

    alpha^2(lam) = (-1 + sqrt(1 + 48 lam)) / (24 lam)
    x0^2(lam)    = -(1 + 8 lam alpha^2) / (4 lam)

and the one-crosscap four-valent resolvent residue

    x0^4 - alpha^4 - x0^2 (x0^2 + 2 alpha^2) sqrt(1 - 4 alpha^2 / x0^2)

is a regular power series t^2 sum c_n (-4 lam t)^(n-1) whose integer
coefficients c_n count rooted quadrangulations of RP^2 with n vertices.
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
    """Grow the counts big[m] = c_{m+1} in place through m = top, from the
    correlator series computed afresh."""
    corr = rp2_correlator_series(max(1, top))
    for m in range(len(big), top + 1):
        q = corr.coefficient(m) / Fraction(-4) ** m
        if q.denominator != 1 or q <= 0:
            raise SpectralCurveError(
                f"c_{m + 1} = {q} is not a positive integer")
        big.append(int(q))


QUAD = Table(_extend_quad, lambda x, m: x)


def quadrangulation_counts(n_max: int) -> list[int]:
    """c_1 .. c_{n_max}: rooted quadrangulations of the projective plane.

    Cached like the other tables: a call at or below a built size computes
    nothing; a larger one computes the series afresh and publishes the new
    tail.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    return QUAD.upto(n_max - 1)
