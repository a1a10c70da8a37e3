"""The two core coefficient sequences and the map-counting constants.

``u_seq`` solves  u_n = (25(n-1)^2 - 1)/48 * u_{n-1} - 1/2 sum u_k u_{n-k}
with u_0 = 1; ``v_seq`` solves the coupled first-order recursion

    v_n = (1/(2*sqrt3)) * (-3 u_{n/2} + (5n-6)/2 * v_{n-1} + sum v_k v_{n-k})

with v_0 = -sqrt3 and u at a non-integer index read as 0.  From these the
orientable-surface constants t_g, the non-orientable constants p_g, and the
psi-class intersection numbers are exact one-liners.

Both builders cache in a ``Table``: asking for N after M < N reuses the
first M+1 entries.  So do t_g and p_g, whose tables hold the ``SymConst``
values in place of integers and their printed text as entries.  The
recursions run on the scaled integers U_m = 96^m u_m and
R_m = 8^m sqrt3^(m-1) v_m, which every library reader takes through
``grown``; both float layers sum them with ``_horner``.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from itertools import groupby
from math import factorial, prod

from .exactnum import _ZERO, QF3, SymConst

# Held while a cached table grows; see Table.
_EXTEND_LOCK = threading.RLock()


class Table:
    """A cached exact table: the scaled integers ``ints``, which its
    recursion ``grow(ints, n)`` extends through index n in place, and the
    public entries ``values``, ``value(x, m)`` for the integer x at index m,
    built the first time they are read.

    One rule keeps the tables safe across threads: a table grows under one
    reentrant lock, and its ``grow`` builds each table it reads through that
    table's ``grown``, which takes the lock again.  A grow appends only
    finished entries, in index order, and new values are published by one
    list.extend, so a hit, which reads the length of ``ints`` or ``values``,
    takes no lock.
    """

    def __init__(self, grow, value) -> None:
        self.ints: list = []
        self.values: list = []
        self.grow, self.value = grow, value

    def grown(self, n: int) -> list:
        """The integers ``ints``, grown first through index n if shorter."""
        ints = self.ints
        if len(ints) <= n:
            with _EXTEND_LOCK:
                if len(ints) <= n:
                    self.grow(ints, n)
        return ints

    def upto(self, n: int) -> list:
        """Entries 0..n, built from ``grown(n)`` if not read before."""
        if n < 0:
            raise ValueError("n must be non-negative")
        values = self.values
        if len(values) <= n:
            with _EXTEND_LOCK:
                start = len(values)
                values.extend([self.value(x, m) for m, x in
                               enumerate(self.grown(n)[start:n + 1], start)])
        return values[: n + 1]


class _AtIndex:
    """Integers x_m kept per index m, for readers of any run of indices:
    ``over(n0, n1)`` fills each run of missing indices in n0..n1 by
    ``compute(m0, m1)``, which returns x_{m0} .. x_{m1}, under the tables'
    lock, and returns the dict.  Entries go in finished, so a hit takes no
    lock and only checks that each index is present."""

    def __init__(self, compute) -> None:
        self.ints: dict = {}
        self.compute = compute

    def over(self, n0: int, n1: int) -> dict:
        ints = self.ints
        if not all(map(ints.__contains__, range(n0, n1 + 1))):
            with _EXTEND_LOCK:
                missing = [m for m in range(n0, n1 + 1) if m not in ints]
                for _, run in groupby(enumerate(missing),
                                      lambda im: im[1] - im[0]):
                    ms = [m for _, m in run]
                    ints.update(zip(ms, self.compute(ms[0], ms[-1])))
        return ints


def _half_self_convolution(xs: list[int], m: int) -> int:
    """(1/2) sum_{k=1}^{m-1} xs[k] xs[m-k], each product taken once.

    Exact when xs[m/2] is even (m even), as every U_k and R_k, k >= 1, is.
    """
    acc = sum(map(int.__mul__, xs[1:(m + 1) // 2], xs[m - 1:m // 2:-1]))
    return acc + (xs[m // 2] ** 2 >> 1 if m % 2 == 0 else 0)


def _horner(weights: list[int], xs: list[int], n: int, step) -> int:
    """sum_k weights[k] xs[n+k] step(n+k+1) ... step(n+N), N = len(weights)
    - 1, by Horner's rule: the window's integer sum over the denominator
    d_{n+N} when entry m is xs[m] / d_m and step(m) = d_m / d_{m-1}."""
    acc = 0
    for m, w in enumerate(weights, n):
        acc = acc * step(m) + w * xs[m]
    return acc


def _brace(big: list[int], top: int, step) -> tuple[int, int]:
    """sum_{l <= top} big[l] / (step(1) ... step(l)) exactly, as two integers:
    one Horner sum and step(1) ... step(top).  Every expansion brace has this
    form on the stored integers (``asymptotics``), and so has S_-1's B_m."""
    return (_horner([1] * (top + 1), big, 0, step),
            prod(map(step, range(1, top + 1))))


def _from_scaled(num: int, den: int, e: int) -> QF3:
    """num / (den sqrt3^e): a rational for even e, a rational times sqrt3
    for odd e."""
    q = Fraction(num, den * 3 ** ((e + 1) // 2))
    return QF3(q) if e % 2 == 0 else QF3(_ZERO, q)


def extend_u(big: list[int], n: int) -> None:
    """Grow the integers U_m = 96^m u_m in place through index n,

        U_m = 2(25(m-1)^2 - 1) U_{m-1} - (1/2) sum_{k=1}^{m-1} U_k U_{m-k},

    U_0 = 1.
    """
    if not big:
        big.append(1)
    for m in range(len(big), n + 1):
        big.append(2 * (25 * (m - 1) ** 2 - 1) * big[m - 1]
                   - _half_self_convolution(big, m))


def extend_v(big: list[int], big_u: list[int], n: int) -> None:
    """Grow the integers R_m = 8^m sqrt3^(m-1) v_m in place through index n,

        R_m = 2(5m-6) R_{m-1} + (1/2) sum_{k=1}^{m-1} R_k R_{m-k}
              - [m even] 2^(m/2-1) U_{m/2},

    R_0 = -1; ``big_u`` must hold U_m through m = n//2.
    """
    if not big:
        big.append(-1)
    for m in range(len(big), n + 1):
        r = 2 * (5 * m - 6) * big[m - 1] + _half_self_convolution(big, m)
        if m % 2 == 0:
            r -= big_u[m // 2] << (m // 2 - 1)
        big.append(r)


U = Table(extend_u, lambda x, m: Fraction(x, 96 ** m))
V = Table(lambda big, n: extend_v(big, U.grown(n // 2), n),
          lambda x, m: _from_scaled(x, 8 ** m, m - 1))


def u_seq(n: int) -> list[Fraction]:
    """u_0 .. u_n, exact."""
    return U.upto(n)


def v_seq(n: int) -> list[QF3]:
    """v_0 .. v_n, exact elements of Q(sqrt3)."""
    return V.upto(n)


def _extend_t(ts: list, n: int) -> None:
    """Append t_g through g = n: t_g = -u_g / (2^(g-2) Gamma((5g-1)/2))."""
    big_u = U.grown(n)
    for g in range(len(ts), n + 1):
        ts.append(SymConst(Fraction(-big_u[g] << 2, 96 ** g << g),
                           gamma_arg=Fraction(5 * g - 1, 2)))


def _extend_p(ps: list, n: int) -> None:
    """Append p_{(m+1)/2} through m = n:
    p_{(m+1)/2} = v_m / (2^((m-3)/2) Gamma((5m-1)/4))."""
    big_v = V.grown(n)
    for m in range(len(ps), n + 1):
        ps.append(SymConst(Fraction(big_v[m], 8 ** m), rad2=3 - m,
                           rad3=1 - m, gamma_arg=Fraction(5 * m - 1, 4)))


# These tables hold the SymConst values in place of integers, T at index g
# and P at index twog - 1, and their printed text as their entries.
T = Table(_extend_t, lambda x, g: str(x))
P = Table(_extend_p, lambda x, m: str(x))


def t_of_g(g: int) -> SymConst:
    """Orientable-surface constant t_g = -u_g / (2^(g-2) Gamma((5g-1)/2))."""
    if g < 0:
        raise ValueError("g must be non-negative")
    return T.grown(g)[g]


def p_of_g(twog: int) -> SymConst:
    """Non-orientable constant p_g for g = twog/2 (twog a positive integer).

    p_{(n+1)/2} = v_n / (2^((n-3)/2) Gamma((5n-1)/4)) with n = twog - 1.
    Quarter-integer Gamma arguments (half-integer g) stay symbolic.
    """
    if twog < 1:
        raise ValueError("twog must be positive")
    return P.grown(twog - 1)[twog - 1]


def intersection_number(g: int) -> Fraction:
    """<sigma_2^(3g-3)>_g = (3g-3)! * (-4^g / ((5g-5)(5g-3))) * u_g, g >= 2."""
    if g < 2:
        raise ValueError("defined for g >= 2 (the 5g-5 factor vanishes at g = 1)")
    return factorial(3 * g - 3) * Fraction(-(4 ** g) * U.grown(g)[g],
                                           96 ** g * (5 * g - 5) * (5 * g - 3))
