"""Richardson transforms of the Stokes-probing sequences, exact, rounded once.

The probe sequences are

    s_n = 2 pi (A/2)^n v_n / Gamma(n)          ->  sqrt6        (= -i S')
    r_n = n (s_n / sqrt6 - 1)                  ->  -1/5         (= nu_1 A / 2)

and the N-th Richardson transform at n is the linear combination

    s^(N)_n = (1/N!) sum_{k=0}^{N} (-1)^(k+N) C(N,k) (n+k)^N s_{n+k}
            = (1/N!) Delta^N [m^N s_m] at m = n.

By parity s_n = 2 pi sqrt3 q_n and r_n = sqrt2 pi (n q_n) - n with q_n
rational, and the sequence behind S_-1 is 2 pi sqrt3 L_n - 3 sqrt6 B_n with
L_n, B_n rational.  By linearity each transform is a few constants times
exact rational transforms, combined and rounded once.  Each rational
transform is one integer over the closed-form denominator of the window's
last entry.  The transforms of crosscap's own sequences build it from the
tables' stored integers (``_probe`` describes each probe): a single window
by Horner's rule (``sequences._horner``, ``_parts``), rounded by
``round_sum``; a row's run of windows by N forward-difference passes over
the whole run (``_run_parts``), rounded by one run kernel
(``exactnum._round_run``), which steps each constant over the run's
denominators by one small division per window and reads each integer
only to the bits it keeps.  S_-1's integers are closed forms at each
index, so a window or a run reads them at its own indices only, from one
per-index store each (``transseries._ROW2_AT`` and ``_BRACES_AT``): a
single window grows nu and w through its end, rows 2 and 3 through half
of it.
``richardson`` sums user float data exactly as given, each value p / 2^e
over the window's largest 2^E.
"""

from __future__ import annotations

import warnings
from itertools import accumulate
from math import comb, factorial, perm
from operator import mul

from .exactnum import (DEFAULT_DPS, _check_dps, _mpf_ratio, _nstr, _Record,
                       _round_run, matched_digits, round_sum)
from .sequences import V, Table, _AtIndex, _horner
from .transseries import _ROW2_AT, _row


class PrecisionWarning(UserWarning):
    """Fewer than 30 digits of the input's precision survive the weights."""


class FloatSeq(_Record):
    """Indexed run of equal-precision values: entry i holds index start + i."""

    __slots__ = ("start", "values", "dps")

    def __init__(self, start: int, values: tuple, dps: int) -> None:
        super().__init__(start, values, dps)

    def __getitem__(self, n: int):
        if n < self.start or n > self.last:
            raise IndexError(f"index {n} outside [{self.start}, {self.last}]")
        return self.values[n - self.start]

    @property
    def last(self) -> int:
        return self.start + len(self.values) - 1

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)


class RichardsonResult(_Record):
    __slots__ = ("order", "index", "value")

    def __init__(self, order: int, index: int, value) -> None:
        super().__init__(order, index, value)


def _weights(order: int, n: int) -> list[int]:
    """(-1)^(k+N) C(N,k) (n+k)^N for k = 0..N, N = order."""
    if n < 1 or order < 0:
        raise ValueError(f"a transform needs n >= 1, order >= 0: {n}, {order}")
    return [(-1) ** (k + order) * comb(order, k) * (n + k) ** order
            for k in range(order + 1)]


def _q_den(m: int) -> int:
    """q's denominator d_m = 10^m (m-1)!, m >= 1."""
    return 10 ** m * factorial(m - 1)


def _q_step(m: int) -> int:
    """d_m / d_{m-1} for q's denominators."""
    return 10 * (m - 1)


def _lead_den(m: int) -> int:
    """The S_-1 lead's denominator d_m = 6 50^m m! (m-1)!, m >= 1."""
    return 6 * 50 ** m * factorial(m) * factorial(m - 1)


def _lead_step(m: int) -> int:
    """d_m / d_{m-1} for the S_-1 lead's denominators."""
    return 50 * m * (m - 1)


def _braces(m0: int, m1: int) -> list[int]:
    """The integers X_m = d_m B_m for m = m0..m1 >= 1, over the S_-1 lead's
    d_m = 6 50^m m! (m-1)!: B_m is the Horner sum H_m of W_{l,3} through
    l = h = m//2 with step 50 l (m-l), over 12 50^h h! (m-1)! / (m-1-h)!,
    so X_m = 25 50^(m-h-1) (m!/h!) (m-1-h)! H_m.  Each reads row 3 only
    through m//2."""
    big_w3 = _row(3).grown(m1 // 2)
    out = []
    for m in range(m0, m1 + 1):
        h = m // 2
        out.append(_horner([1] * (h + 1), big_w3, 0,
                           lambda l: 50 * l * (m - l))
                   * 25 * 50 ** (m - h - 1) * perm(m, m - h)
                   * factorial(m - 1 - h))
    return out


# Shared by every S_-1 window, row and estimate, so each X_m is built once
# per process.
_BRACES_AT = _AtIndex(_braces)


def _v_ints(n0: int, n1: int) -> list[int]:
    """R_m for m = n0..n1: V grown through n1."""
    return V.grown(n1)


def _probe(which: str) -> tuple:
    """The probe ``which`` as ``_parts`` and ``_run_parts`` read it: its
    denominators' step and closed form, the sign and extra power of m its
    weights carry, and its terms, each a constant and ``ints(n0, n1)``,
    integers indexable at m = n0..n1.

    By parity the probes are s_m = 2 pi sqrt3 q_m, r_m = sqrt2 pi m q_m - m
    and, behind S_-1, (-1)^m [2 pi sqrt3 L_m - 3 sqrt6 B_m], with
    q_m = R_m / d_m over ``_q_den``, and L_m = W_{m,2} / d_m and
    B_m = X_m / d_m over ``_lead_den``, where
    B_m = sum_{l <= m//2} v_{l,3} (A/2)^l / ((m-1) ... (m-l)) and X_m are
    the integers in ``_BRACES_AT``.  Windows and runs alike read W_{m,2}
    from ``transseries._ROW2_AT``, so that one window needs nu and Omega
    through n+N but rows 2 and 3 only through (n+N)//2.  r's term -m is
    the closed form ``_m_part``.
    """
    if which == "s":
        return _q_step, _q_den, 1, 0, [((2, 1, 3), _v_ints)]
    if which == "r":
        return _q_step, _q_den, 1, 1, [((1, 1, 2), _v_ints)]
    if which == "sminus1":
        return (_lead_step, _lead_den, -1, 0,
                [((2, 1, 3), _ROW2_AT.over), ((-3, 0, 6), _BRACES_AT.over)])
    raise ValueError(f"unknown probe {which!r}")


def _m_part(order: int, n: int) -> int:
    """The order-N transform of m itself, (N+1)(2n+N)/2, an integer: one
    of N + 1 and 2n + N is even."""
    return (order + 1) * (2 * n + order) // 2


def _parts(which: str, order: int, n: int) -> list:
    """The ``round_sum`` parts of the order-``order`` transform of the probe
    ``which`` at n, one Horner sum per term over the window n..n+order
    only: the kernel for a single window."""
    step, den, sign, power, terms = _probe(which)
    top = n + order
    weights = [sign ** m * m ** power * w
               for m, w in enumerate(_weights(order, n), n)]
    d = factorial(order) * den(top)
    parts = [(const, (_horner(weights, ints(n, top), n, step), d))
             for const, ints in terms]
    if which == "r":
        parts.append(((-1, 0, 1), (_m_part(order, n), 1)))
    return parts


def _run_parts(which: str, order: int, n0: int, n1: int) -> tuple:
    """The transforms at n = n0..n1 as ``exactnum._round_run`` reads them:
    (terms, d0, steps), window i the terms' entries i over
    d_i = d0 steps[0] ... steps[i-1], the denominator ``_parts`` builds at
    n0 + i.  Built by N = order forward differences: the transform is
    Delta^N [m^N x_m] / N!.  Each term's run x_m = X_m / d_m,
    m = n0..n1+N, is scaled to its integers (with the weights' sign and
    power); pass p maps entry i to a[i+1] - step(n0+i+p+1) a[i], so entry
    i ends as the same integer over d_{n0+i+N} that ``_parts`` builds.
    r's term -m is its closed form ``_m_part`` times d_i.  Cheaper than
    ``_parts`` per window once a run passes about N/2; built as read."""
    step, den, sign, power, terms = _probe(which)
    top = n1 + order
    steps = [step(m) for m in range(n0 + 1, top + 1)]
    runs = []
    for const, ints in terms:
        xs = ints(n0, top)
        a = [sign ** m * m ** (order + power) * xs[m]
             for m in range(n0, top + 1)]
        for p in range(order):
            a = [hi - s * lo for hi, s, lo in zip(a[1:], steps[p:], a)]
        runs.append((const, a))
    d0, steps = factorial(order) * den(n0 + order), steps[order:]
    if which == "r":
        runs.append(((-1, 0, 1), [
            _m_part(order, n) * d for n, d in
            zip(range(n0, n1 + 1), accumulate(steps, mul, initial=d0))]))
    return runs, d0, steps


# The rounded transforms behind convergence_rows and their plot text, one
# Table per (probe, order, dps); see _rows.
_TRANSFORM_ROWS: dict = {}


def _rows(which: str, order: int, dps: int) -> Table:
    """The order-``order`` transforms of the probe ``which`` at dps digits,
    cached: entry i is the transform at n = i + 1, rounded in ``ints`` and
    printed in ``values``."""
    table = _TRANSFORM_ROWS.get((which, order, dps))
    if table is None:
        def grow(rows: list, n: int) -> None:
            rows.extend(_round_run(
                *_run_parts(which, order, len(rows) + 1, n + 1), dps))
        table = _TRANSFORM_ROWS.setdefault(
            (which, order, dps), Table(grow, lambda x, m: _nstr(x, dps)))
    return table


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
    """Order-``order`` transform of the probe ``which`` ("s", "r" or
    "sminus1") at n."""
    _check_dps(dps)
    return RichardsonResult(order, n, round_sum(_parts(which, order, n), dps))


def richardson(seq: FloatSeq, order: int, n: int) -> RichardsonResult:
    """Order-``order`` transform of ``seq`` at index n (data through n +
    order), exact over the binary values given and rounded once at seq.dps:
    each value p / 2^e, scaled to the window's largest 2^E, in one integer
    sum over 2^E N!.  Warns when the weights leave fewer than 30 of the
    inputs' digits.  The values must be ``mpmath.mpf``: a Python float or
    int raises ``TypeError``.
    """
    if n < seq.start or n + order > seq.last:
        raise ValueError(
            f"transform at n={n} needs entries {n}..{n + order}, "
            f"sequence covers {seq.start}..{seq.last}")
    weights, scale = _weights(order, n), factorial(order)
    exact = [_mpf_ratio(seq[m]) for m in range(n, n + order + 1)]
    den = max(q for _, q in exact)
    total = sum(w * p * (den // q) for w, (p, q) in zip(weights, exact))
    value = round_sum([((1, 0, 1), (total, den * scale))], seq.dps)
    # digits lost: the least c >= 0 with sum |w| <= 10^c N!
    bound = sum(map(abs, weights))
    guard = seq.dps - (len(str((bound - 1) // scale)) if bound > scale else 0)
    if guard < 30:
        warnings.warn(
            f"only {guard} guard digits at dps={seq.dps} for order "
            f"{order} at n={n}", PrecisionWarning, stacklevel=2)
    return RichardsonResult(order, n, value)


class StokesEstimate(_Record):
    __slots__ = ("value", "target", "digits", "transform")

    def __init__(self, value, target, digits: int,
                 transform: RichardsonResult) -> None:
        super().__init__(value, target, digits, transform)


def estimate_stokes(which: str, n_max: int = 250, order: int = 30,
                    dps: int = DEFAULT_DPS) -> StokesEstimate:
    """Estimate a Stokes constant by Richardson extrapolation.

    ``which`` is "sprime" (limit -i S' = sqrt6, from the s-sequence) or
    "sminus1" (limit -i S_-1 = -sqrt6/12, from the k = 2 table row).
    """
    probe = {"sprime": "s", "sminus1": "sminus1"}.get(which)
    if probe is None:
        raise ValueError("which must be 'sprime' or 'sminus1'")
    transform = probe_richardson(probe, order, n_max, dps)
    target = round_sum([((1, 0, 6), (1, 1) if probe == "s" else (-1, 12))],
                       dps)
    return StokesEstimate(transform.value, target,
                          matched_digits(transform.value, target, dps),
                          transform)


def convergence_rows(which: str, n_max: int = 250, orders: tuple = (0, 1, 5),
                     dps: int = DEFAULT_DPS) -> list[tuple]:
    """(n, transform values per order) rows behind the convergence plots,
    n = 1..n_max.  Each value is rounded once per process: the rows are
    cached per (probe, order, dps) in ``_TRANSFORM_ROWS``, and printed only
    when ``plotdata`` reads them."""
    _probe(which)  # an unknown probe raises here, before _rows makes a Table
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if not orders or min(orders) < 0:
        raise ValueError(f"orders must be one or more integers >= 0: {orders}")
    _check_dps(dps)
    # zip stops at n_max: entries past it may be growing in another thread
    columns = [_rows(which, N, dps).grown(n_max - 1) for N in orders]
    return list(zip(range(1, n_max + 1), *columns))
