"""One-instanton coefficients, the multi-instanton table, and its
two-series factorization.

``mu_seq`` and ``nu_seq`` solve the linearized recursions attached to the
u- and v-sequences.  ``vk_table`` holds the full table v_{n,k}: row 0 is
the v-sequence, row 1 is nu (normalization v_{0,1} = 1), and rows k >= 2
follow

    v_{n+1,k} = -(1/(sqrt3 (k-1))) * { 5n/4 v_{n,k}
                + sum_{l=2}^{n+1} v_{n+1-l,k} v_l
                + 1/2 sum_{i=1}^{k-1} sum_{l=0}^{n+1} v_{l,i} v_{n+1-l,k-i} }

seeded by the closed form v_{0,k} = (-1)^(k-1) (2 sqrt3)^(1-k).  The sectors
are geometric: with vhat_k = sum_{n>=0} v_{n,k} x^-n,

    vhat_k = nu w^(k-1),  k >= 1,

for one series w with a first-order recursion (``_extend_omega``), so row
k >= 3 is row k-1 times w (``_extend_row``), and row 2 is read off w^2,
each of its products taken once (``_row2_ints``).  These recursions, and
those of mu, nu and the pair below, run on scaled integers; each table is a
``Table``, and the rows form the list ``ROWS``, which ``_row`` extends.
Row 2's integers are kept per index (``_ROW2_AT``), which its ``Table``
and every S_-1 window read.

``vpm_series`` gives the two formal power series v_plus, v_minus with

    vhat_k = (-1)^(k-1) v_plus^(k-1) v_minus^k (1 - v_plus vhat_0),  k >= 1,

where vhat_0 = sum_{n>=2} v_n x^-n.  Its cases k = 2 and k = 1 read
w = -v_plus v_minus and v_minus = nu - w vhat_0, and then every k holds.
"""

from __future__ import annotations

from functools import partial
from math import comb, factorial
from operator import add, mul

from .exactnum import QF3
from .sequences import _EXTEND_LOCK, U, V, Table, _AtIndex, _from_scaled
from .series import Series

_QZERO = QF3(0)


def _mu_den(l: int) -> int:
    return 320 ** l * factorial(l)


def extend_mu(big: list[int], big_u: list[int], n: int) -> None:
    """Grow the integers M_l = 320^l l! sqrt3^l mu_l in place through index n,

        M_l = sum_{j=1}^{(l+1)/2} 2^(7j-4) 5^(2j-2) (l-1)!/(l-2j+1)!
                  U_j M_{l-2j+1}  -  (10l-9)(10l-1) M_{l-1},

    M_0 = 1, the sum taken in Horner form; ``big_u`` must hold the scaled
    u-sequence U_j through j = (n+1)//2.
    """
    if not big:
        big.append(1)
    for l in range(len(big), n + 1):
        acc = 0
        for j in range((l + 1) // 2, 0, -1):
            acc = acc * (3200 * (l - 2 * j + 1) * (l - 2 * j)) \
                + big_u[j] * big[l - 2 * j + 1]
        big.append(8 * acc - (10 * l - 9) * (10 * l - 1) * big[l - 1])


def _vk_den(n: int, k: int) -> int:
    """40^n n! 2^(k-1): the rational part of the scale of v_{n,k}."""
    return 40 ** n * factorial(n) << (k - 1)


def extend_nu(big: list[int], big_v: list[int], n: int) -> None:
    """Grow the integers S_m = 40^m m! sqrt3^m nu_m in place through index n,

        S_m = -sum_{k<m} 5^(m-1-k) (m-1)!/k! (R_{m+1-k}/2) S_k,

    S_0 = 1, the sum taken in Horner form; ``big_v`` must hold the scaled
    v-sequence R_j through j = n+1.  The sum reads R as stored: each R_j
    with j >= 1 is even, so the sum is, and it is halved once, exactly.
    """
    if not big:
        big.append(1)
    for m in range(len(big), n + 1):
        acc = 0
        for k in range(m):
            acc = acc * (5 * k) + big_v[m + 1 - k] * big[k]
        big.append(-(acc >> 1))


MU = Table(lambda big, n: extend_mu(big, U.grown((n + 1) // 2), n),
           lambda x, l: _from_scaled(x, _mu_den(l), l))
NU = Table(lambda big, n: extend_nu(big, V.grown(n + 1), n),
           lambda x, m: _from_scaled(x, _vk_den(m, 1), m))


def mu_seq(n: int) -> list[QF3]:
    """mu_0 .. mu_n, the u-sector one-instanton coefficients."""
    return MU.upto(n)


def nu_seq(n: int) -> list[QF3]:
    """nu_0 .. nu_n, the v-sector one-instanton coefficients."""
    return NU.upto(n)


def _extend_omega(big: list[int], big_nu: list[int], n: int) -> None:
    """Grow the integers Omega_j = 40^j j! 2 sqrt3^(j+1) w_j in place through
    index n, one small-times-big product each,

        Omega_j = -(S_j + 50 j (j-1) Omega_{j-1}),   Omega_0 = -1,

    ``big_nu`` holding S_j through j = n.  Derivation: in z = 1/x, with
    theta = z d/dz, the row recursion and, at k = 1, nu's recursion are

        E_k:  sqrt3 (k-1) vhat_k + (5/4) z theta vhat_k + vhat_0 vhat_k
              + (1/2) sum_{i=1}^{k-1} vhat_i vhat_{k-i} = 0,

    the z^0 terms holding by the seed.  Define w = vhat_2 / nu (nu_0 = 1).
    E_2 - w E_1 is nu (sqrt3 w + (5/4) z theta w + nu/2) = 0, whose z^j term
    is w_j = -(1/(2 sqrt3)) ((5(j-1)/2) w_{j-1} + nu_j), w_0 = -1/(2 sqrt3):
    the recursion above in Omega's scale.  For vhat_k = nu w^(k-1) the left
    side of E_k is w^(k-1) E_1 + (k-1) nu w^(k-2) (that same bracket) = 0,
    and E_k, k >= 2, fixes row k from the rows below it: row k is nu w^(k-1).
    """
    if not big:
        big.append(-1)
    for j in range(len(big), n + 1):
        big.append(-(big_nu[j] + 50 * j * (j - 1) * big[j - 1]))


# Only kernels read w, so its entries stay integers: no Fraction is built.
OMEGA = Table(lambda big, n: _extend_omega(big, NU.grown(n), n),
              lambda x, j: x)


def seed_v0k(k: int) -> QF3:
    """Closed form v_{0,k} = (-1)^(k-1) (2 sqrt3)^(1-k), k >= 1."""
    if k < 1:
        raise ValueError("k must be positive")
    return _from_scaled((-1) ** (k - 1), 1 << (k - 1), k - 1)


class VkTable:
    """Immutable view of the table v_{n,k}, 0 <= n <= max_index, 0 <= k <= max_sector."""

    def __init__(self, rows: list[list[QF3]]) -> None:
        self._rows = rows

    @property
    def max_index(self) -> int:
        return len(self._rows[0]) - 1

    @property
    def max_sector(self) -> int:
        return len(self._rows) - 1

    def value(self, n: int, k: int) -> QF3:
        if not (0 <= n <= self.max_index and 0 <= k <= self.max_sector):
            raise IndexError(f"(n, k) = ({n}, {k}) outside [0, "
                             f"{self.max_index}] x [0, {self.max_sector}]")
        return self._rows[k][n]

    def row(self, k: int) -> list[QF3]:
        if not 0 <= k <= self.max_sector:
            raise IndexError(f"k={k} outside [0, {self.max_sector}]")
        return list(self._rows[k])


def _binomial_rows(m0: int, n: int):
    """(m, C(m, .)) for m = m0..n, each row of binomials from the one before
    by Pascal's rule, so none is multiplied out."""
    binom = [comb(m0, i) for i in range(m0 + 1)]
    for m in range(m0, n + 1):
        yield m, binom
        binom = [1, *map(add, binom, binom[1:]), 1]


def _binomial_dot(binom: list[int], xs: list[int], ys: list[int], n: int,
                  top: int) -> int:
    """sum_{i<=top} C(n,i) xs[i] ys[n-i] (0 for top < 0), ``binom`` holding
    C(n, .): the x^-n term of a product of two series stored with n! in
    their scales."""
    return sum(map(mul, map(mul, binom[: top + 1], xs),
                   reversed(ys[n - top: n + 1])))


def _row2_ints(big_omega: list[int], m0: int, m1: int) -> list[int]:
    """The integers W_{m,2} of row 2 (``_extend_row``) for m = m0..m1,
    ``big_omega`` holding Omega_j through j = m1, read off w^2, each of its
    products taken once.  Omega's recursion is nu = -2 sqrt3 w - (5/2)
    z theta w, with (z theta f)_m = (m-1) f_{m-1}; as
    2 w z theta w = z theta (w^2),

        vhat_k = nu w^(k-1) = -2 sqrt3 w^k - (5/(2k)) z theta (w^k),

    which, with P^(k)_m = 40^m m! 2^k sqrt3^(m+k) (w^k)_m the integers of
    w^k, reads W_{m,k} = -(k P^(k)_m + 50 m (m-1) P^(k)_{m-1}) / k.  At
    k = 2 it is W_{m,2} = -P_m - 25 m (m-1) P_{m-1}, with
    P_m = sum_l C(m,l) Omega_l Omega_{m-l} the integers of w^2, twice the
    sum over l < m/2 plus, for even m, the middle term.  P_{m0-1} is taken
    first, so any run of indices is its own: ``_ROW2_AT`` calls this for
    each run it lacks."""
    out, p_last = [], 0
    for m, binom in _binomial_rows(max(m0 - 1, 0), m1):
        p = 2 * _binomial_dot(binom, big_omega, big_omega, m, (m - 1) // 2)
        if m % 2 == 0:
            p += binom[m // 2] * big_omega[m // 2] ** 2
        if m >= m0:
            out.append(-p - 25 * m * (m - 1) * p_last)
        p_last = p
    return out


# Row 2's integers at every index read so far, by its Table's grow, an S_-1
# window or an S_-1 run: each W_{m,2} is computed once per process.
_ROW2_AT = _AtIndex(lambda m0, m1: _row2_ints(OMEGA.grown(m1), m0, m1))


def _extend_row(k: int, big: list[int], n: int) -> None:
    """Grow the integers W_{m,k} = 40^m m! 2^(k-1) sqrt3^(m+k-1) v_{m,k} of
    a row k >= 2 in place through index n.  Row 2 copies its entries from
    ``_ROW2_AT``.  A row k >= 3 reads row k-1, grown first:
    vhat_k = vhat_{k-1} w reads W_{m,k} = sum_{l<=m} C(m,l) W_{l,k-1}
    Omega_{m-l}.  No row is longer than the one below it, so the short rows
    below k are a run just below it, grown here lowest first: no grow nests
    another.
    """
    m0 = len(big)
    if k == 2:
        big_w2 = _ROW2_AT.over(m0, n)
        big.extend([big_w2[m] for m in range(m0, n + 1)])
        return
    low = k - 1
    while low > 1 and len(ROWS[low].ints) <= n:
        low -= 1
    for row in ROWS[low:k]:
        row.grown(n)
    lower, big_omega = ROWS[k - 1].ints, OMEGA.grown(n)
    for m, binom in _binomial_rows(m0, n):
        big.append(_binomial_dot(binom, lower, big_omega, m, m))


# Row k of v_{n,k} is ROWS[k]: row 0 is v, row 1 is nu; see _row.
ROWS: list[Table] = [V, NU]


def _row(k: int) -> Table:
    """Row k of v_{n,k} as a table; the rows k >= 2 are made on first use
    and grown (``_extend_row``), both lowest first."""
    if len(ROWS) <= k:
        with _EXTEND_LOCK:
            for j in range(len(ROWS), k + 1):
                ROWS.append(Table(partial(_extend_row, j), lambda x, n, j=j:
                                  _from_scaled(x, _vk_den(n, j), n + j - 1)))
    return ROWS[k]


def vk_table(n_max: int, k_max: int) -> VkTable:
    """Exact table of v_{n,k} for n <= n_max, k <= k_max."""
    if n_max < 0 or k_max < 0:
        raise ValueError("table bounds must be non-negative")
    # a row k >= 2 gets its values only here, after every row below it;
    # nu_seq builds nu's alone, so row 0 is checked too
    if len(_row(k_max).values) <= n_max or len(V.values) <= n_max:
        for row in ROWS[: k_max + 1]:
            row.upto(n_max)
    return VkTable([row.values[: n_max + 1] for row in ROWS[: k_max + 1]])


def _extend_minus(big: list[int], big_v: list[int], big_nu: list[int],
                  big_omega: list[int], n: int) -> None:
    """Grow the integers Q_m = 40^m m! sqrt3^m minus_m (nu's scale) in place
    through index n: v_minus = nu - w vhat_0 reads, with R_j (even, j >= 1)
    the scaled v,

        Q_m = S_m - sum_{i<=m-2} C(m,i) Omega_i 5^(m-i) (m-i)! R_{m-i}/2.
    """
    v_hat = [0, 0] + [5 ** j * factorial(j) * (big_v[j] >> 1)
                      for j in range(2, n + 1)]
    for m, binom in _binomial_rows(len(big), n):
        big.append(big_nu[m] - _binomial_dot(binom, big_omega, v_hat, m,
                                             m - 2))


def _extend_plus(big: list[int], big_minus: list[int], big_omega: list[int],
                 n: int) -> None:
    """Grow the integers P_m = 40^m m! 2 sqrt3^(m+1) plus_m (Omega's scale)
    in place through index n: v_plus v_minus = -w and Q_0 = 1 give
    P_m = -(Omega_m + sum_{i<m} C(m,i) P_i Q_{m-i}).
    """
    for m, binom in _binomial_rows(len(big), n):
        big.append(-big_omega[m] - _binomial_dot(binom, big, big_minus, m,
                                                 m - 1))


MINUS = Table(lambda big, n: _extend_minus(big, V.grown(n), NU.grown(n),
                                            OMEGA.grown(n), n), NU.value)
PLUS = Table(lambda big, n: _extend_plus(big, MINUS.grown(n),
                                         OMEGA.grown(n), n),
             lambda x, n: _from_scaled(x, _vk_den(n, 2), n + 1))


def vpm_series(order: int) -> tuple[Series, Series]:
    """The factorization pair (v_plus, v_minus) through x^-order.

    Built from nu and w, like the rows k >= 2.  Cached like the other
    tables: a call at or below a built order extends nothing.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    return (Series(PLUS.upto(order), 0, _QZERO),
            Series(MINUS.upto(order), 0, _QZERO))
