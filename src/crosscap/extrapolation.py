"""Richardson transforms of the Stokes-probing sequences, exact, rounded once.

The probe sequences are

    s_n = 2 pi (A/2)^n v_n / Gamma(n)          ->  sqrt6        (= -i S')
    r_n = n (s_n / sqrt6 - 1)                  ->  -1/5         (= nu_1 A / 2)

and the N-th Richardson transform at n is the linear combination

    s^(N)_n = (1/N!) sum_{k=0}^{N} (-1)^(k+N) C(N,k) (n+k)^N s_{n+k}.

By parity s_n = 2 pi sqrt3 q_n and r_n = sqrt2 pi (n q_n) - n with q_n
rational, and the sequence behind S_-1 is 2 pi sqrt3 L_n - 3 sqrt6 B_n with
L_n, B_n rational.  By linearity each transform is a few constants times
exact rational transforms (``_transform``), combined and rounded once
(``_round``); ``richardson`` transforms user float data exactly as given.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, lcm

import mpmath
from mpmath.libmp import to_rational

from .exactnum import DEFAULT_DPS, round_sum
from .sequences import v_seq
from .transseries import vk_table


class PrecisionWarning(UserWarning):
    """Fewer than 30 digits of the input's precision survive the weights."""


@dataclass(frozen=True)
class FloatSeq:
    """Indexed run of equal-precision values: entry i holds index start + i."""

    start: int
    values: tuple
    dps: int

    def __getitem__(self, n: int) -> mpmath.mpf:
        if n < self.start or n > self.last:
            raise IndexError(f"index {n} outside [{self.start}, {self.last}]")
        return self.values[n - self.start]

    @property
    def last(self) -> int:
        return self.start + len(self.values) - 1

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class RichardsonResult:
    order: int
    index: int
    value: mpmath.mpf


def _transform(x, order: int, n: int) -> tuple:
    """(1/N!) sum_k (-1)^(k+N) C(N,k) (n+k)^N x[n+k], N = order, x[m] ints or
    Fractions, exactly: (numerator, denominator), one integer sum over the
    terms' common denominator, not reduced."""
    if n < 1 or order < 0:
        raise ValueError(f"a transform needs n >= 1, order >= 0: {n}, {order}")
    terms = [x[n + k] for k in range(order + 1)]
    den = lcm(*(t.denominator for t in terms))
    total = sum((-1) ** (k + order) * comb(order, k) * (n + k) ** order
                * t.numerator * (den // t.denominator)
                for k, t in enumerate(terms))
    return total, den * factorial(order)


def _round(parts: list, order: int, n: int, dps: int) -> mpmath.mpf:
    """Order-``order`` transform at n of sum c pi^a sqrt(b) x[m] over the
    ((c, a, b), x) ``parts``: each x transformed exactly, the sum rounded
    once to dps digits."""
    return round_sum([(const, _transform(x, order, n)) for const, x in parts],
                     dps)


def _sqrt3_parts(row: list) -> list:
    """q_m = (A/2)^m row[m] / (sqrt3 Gamma(m)) for m >= 1 (entry 0 reads 0).
    Entries are rational multiples of sqrt3 at even m and rational at odd m,
    so q_m = c_m (4/5)^m 3^floor(m/2) / (m-1)!, c_m the nonzero part."""
    out, num, den = [0], 1, 1
    for m in range(1, len(row)):
        num *= 12 if m % 2 == 0 else 4
        den *= 5 * max(m - 1, 1)
        c, rest = (row[m].b, row[m].a) if m % 2 == 0 else (row[m].a, row[m].b)
        if rest:
            raise ArithmeticError(f"entry {m} breaks the parity rule")
        out.append(Fraction(c.numerator * num, c.denominator * den))
    return out


def _probe(which: str, lo: int, top: int) -> list:
    """Probe ``which`` over lo..top as (constant, exact sequence) parts: "s"
    2 pi sqrt3 q_m, "r" sqrt2 pi m q_m - m, "sminus1" the k = 2 row less its
    forward part, (-1)^m [2 pi lam^m v_{m,2}/Gamma(m) - 3 sqrt6 B_m] with lam
    = A/2, B_m = sum_{l <= min(m//2, top//2, m-1)} v_{l,3} lam^l / (m-1)_l."""
    if which in ("s", "r"):
        q = _sqrt3_parts(v_seq(top))
        if which == "s":
            return [((2, 1, 3), q)]
        return [((1, 1, 2), [m * x for m, x in enumerate(q)]),
                ((-1, 0, 1), range(top + 1))]
    if which != "sminus1":
        raise ValueError(f"unknown probe {which!r}")
    table, width = vk_table(top, 3), top // 2
    lead = _sqrt3_parts(table.row(2))
    lam_pow_3 = [(e.a if l % 2 == 0 else e.b) * Fraction(4, 5) ** l
                 * 3 ** ((l + 1) // 2)  # v_{l,3} lam^l, rational by parity
                 for l, e in enumerate(table.row(3)[:width + 1])]
    signed_lead, brace = {}, {}
    for m in range(lo, top + 1):
        acc, prod = Fraction(0), 1
        for l in range(min(m // 2, width, m - 1) + 1):
            prod *= m - l if l else 1
            acc += lam_pow_3[l] / prod
        signed_lead[m], brace[m] = (-1) ** m * lead[m], (-1) ** m * acc
    return [((2, 1, 3), signed_lead), ((-3, 0, 6), brace)]


def s_seq(n_max: int, dps: int = DEFAULT_DPS) -> FloatSeq:
    """s_1 .. s_{n_max} at dps digits, each exact value rounded once."""
    rows = convergence_rows("s", n_max, (0,), dps)
    return FloatSeq(1, tuple(value for _, value in rows), dps)


def r_seq(n_max: int, dps: int = DEFAULT_DPS) -> FloatSeq:
    """r_1 .. r_{n_max} at dps digits, r_n = n (s_n / sqrt6 - 1)."""
    rows = convergence_rows("r", n_max, (0,), dps)
    return FloatSeq(1, tuple(value for _, value in rows), dps)


def probe_richardson(which: str, order: int, n: int,
                     dps: int = DEFAULT_DPS) -> RichardsonResult:
    """Order-``order`` transform of the probe ``which`` ("s" or "r") at n."""
    value = _round(_probe(which, n, n + order), order, n, dps)
    return RichardsonResult(order, n, value)


def richardson(seq: FloatSeq, order: int, n: int) -> RichardsonResult:
    """Order-``order`` transform of ``seq`` at index n (data through n +
    order), exact over the binary values given and rounded once at seq.dps.
    Warns when the weights leave fewer than 30 of the inputs' digits.
    """
    if n < seq.start or n + order > seq.last:
        raise ValueError(
            f"transform at n={n} needs entries {n}..{n + order}, "
            f"sequence covers {seq.start}..{seq.last}")
    exact = {m: Fraction(*to_rational(seq[m]._mpf_))
             for m in range(n, n + order + 1)}
    value = _round([((1, 0, 1), exact)], order, n, seq.dps)
    guard = seq.dps - len(str(sum(comb(order, k) * (n + k) ** order
                                  for k in range(order + 1)) // factorial(order)))
    if guard < 30:
        warnings.warn(
            f"only {guard} guard digits at dps={seq.dps} for order "
            f"{order} at n={n}", PrecisionWarning, stacklevel=2)
    return RichardsonResult(order, n, value)


def matched_digits(value: mpmath.mpf, target: mpmath.mpf, dps: int) -> int:
    """Largest k with |value/target - 1| < 0.5 * 10^(1-k), capped at dps."""
    with mpmath.workdps(dps):
        rel = abs(mpmath.mpf(value) / mpmath.mpf(target) - 1)
        if rel == 0:
            return dps
        k = int(mpmath.floor(1 - mpmath.log10(2 * rel)))
    return max(0, min(k, dps))


@dataclass(frozen=True)
class StokesEstimate:
    value: mpmath.mpf
    target: mpmath.mpf
    digits: int
    transform: RichardsonResult


def estimate_stokes(which: str, n_max: int = 250, order: int = 30,
                    dps: int = DEFAULT_DPS) -> StokesEstimate:
    """Estimate a Stokes constant by Richardson extrapolation.

    ``which`` is "sprime" (limit -i S' = sqrt6, from the s-sequence) or
    "sminus1" (limit -i S_-1 = -sqrt6/12, from the k = 2 table row).
    """
    probe = {"sprime": "s", "sminus1": "sminus1"}.get(which)
    if probe is None:
        raise ValueError("which must be 'sprime' or 'sminus1'")
    value = _round(_probe(probe, n_max, n_max + order), order, n_max, dps)
    target = round_sum([((1, 0, 6), (1, 1) if probe == "s" else (-1, 12))],
                       dps)
    return StokesEstimate(value, target, matched_digits(value, target, dps),
                          RichardsonResult(order, n_max, value))


def convergence_rows(which: str, n_max: int = 250, orders: tuple = (0, 1, 5),
                     dps: int = DEFAULT_DPS) -> list[tuple]:
    """(n, transform values per order) rows behind the convergence plots."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    parts = _probe(which, 1, n_max + max(orders))
    return [(n, *(_round(parts, N, n, dps) for N in orders))
            for n in range(1, n_max + 1)]
