"""One-instanton coefficients, the multi-instanton table, and its
two-series factorization.

``mu_seq`` and ``nu_seq`` solve the linearized recursions attached to the
u- and v-sequences.  ``vk_table`` holds the full table v_{n,k}: row 0 is
the v-sequence, row 1 is nu (normalization v_{0,1} = 1), and rows k >= 2
follow

    v_{n+1,k} = -(1/(sqrt3 (k-1))) * { 5n/4 v_{n,k}
                + sum_{l=2}^{n+1} v_{n+1-l,k} v_l
                + 1/2 sum_{i=1}^{k-1} sum_{l=0}^{n+1} v_{l,i} v_{n+1-l,k-i} }

seeded by the closed form v_{0,k} = (-1)^(k-1) (2 sqrt3)^(1-k).  These
recursions, and those of mu, nu and the pair below, run on scaled integers;
each table is a ``Table``, and the rows form the list ``ROWS``.

``vpm_series`` recovers the two formal power series v_plus, v_minus with

    vhat_k = (-1)^(k-1) v_plus^(k-1) v_minus^k (1 - v_plus vhat_0),  k >= 1,

where vhat_0 = sum_{n>=2} v_n x^-n and vhat_k = sum_{n>=0} v_{n,k} x^-n,
by solving the k = 1 and k = 2 identities order by order.
"""

from __future__ import annotations

from math import factorial

from .exactnum import QF3
from .sequences import _EXTEND_LOCK, U, V, Table, _from_scaled, u_seq, v_seq
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
    """40^n n! ((k-1)!)^n 2^(k-1): the rational part of the scale of v_{n,k}."""
    return 40 ** n * factorial(n) * factorial(k - 1) ** n << (k - 1)


def extend_nu(big: list[int], big_v: list[int], n: int) -> None:
    """Grow the integers S_m = 40^m m! sqrt3^m nu_m in place through index n,

        S_m = -sum_{k<m} 5^(m-1-k) (m-1)!/k! (R_{m+1-k}/2) S_k,

    S_0 = 1, the sum taken in Horner form; ``big_v`` must hold the scaled
    v-sequence R_j (even for j >= 1) through j = n+1.
    """
    half_r = [r >> 1 for r in big_v[: n + 2]]
    if not big:
        big.append(1)
    for m in range(len(big), n + 1):
        acc = 0
        for k in range(m):
            acc = acc * (5 * k) + half_r[m + 1 - k] * big[k]
        big.append(-acc)


MU = Table(lambda big, n: extend_mu(big, U.ints, n),
           lambda x, l: _from_scaled(x, _mu_den(l), l),
           lambda n: u_seq((n + 1) // 2))
NU = Table(lambda big, n: extend_nu(big, V.ints, n),
           lambda x, m: _from_scaled(x, _vk_den(m, 1), m),
           lambda n: v_seq(n + 1))


def mu_seq(n: int) -> list[QF3]:
    """mu_0 .. mu_n, the u-sector one-instanton coefficients."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return MU.upto(n)


def nu_seq(n: int) -> list[QF3]:
    """nu_0 .. nu_n, the v-sector one-instanton coefficients."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return NU.upto(n)


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
        return self._rows[k][n]

    def row(self, k: int) -> list[QF3]:
        return list(self._rows[k])


def _extend_vk_row(k: int, big: list[int], lower: list[list[int]],
                   n_max: int) -> None:
    """Grow the integers W_{n,k} of row k in place through index n_max.

    With c_k = (k-1)!, the row runs on the integers

        W_{n,k} = 40^n n! c_k^n 2^(k-1) sqrt3^(n+k-1) v_{n,k},

    W_{0,k} = (-1)^(k-1); W_{n,1} is S_n.  For N = n+1, with the scaled
    v-sequence R_l = ``lower[0][l]`` and W_{l,i} = ``lower[i][l]``, i < k,

        -W_{N,k} = 25 (k-2)! N n (2 W_{n,k}
                       + c_k sum_{l=2}^N 5^(l-2) c_k^(l-2) (n-1)!/(N-l)! R_l W_{N-l,k})
                   + 1/(k-1) sum_{i=1}^{k-1} sum_{l=0}^N C(N,l)
                       (c_k/c_i)^l (c_k/c_{k-i})^(N-l) W_{l,i} W_{N-l,k-i},

    every coefficient an integer.  The terms i and k-i of the double sum
    are equal, so each pair is taken once.
    """
    if not big:
        big.append((-1) ** (k - 1))
    if len(big) > n_max:
        return
    c_k = factorial(k - 1)
    big_v = lower[0]
    pairs = []
    for i in range(1, k // 2 + 1):
        a, b = c_k // factorial(i - 1), c_k // factorial(k - i - 1)
        pairs.append((1 if 2 * i == k else 2,
                      [a ** l * w for l, w in enumerate(lower[i][: n_max + 1])],
                      [b ** l * w for l, w in enumerate(lower[k - i][: n_max + 1])]))
    for n in range(len(big) - 1, n_max):
        N = n + 1
        acc = 0
        for l in range(N, 1, -1):
            acc = acc * (5 * (N - l) * c_k) + big_v[l] * big[N - l]
        dbl = 0
        for weight, xs, ys in pairs:
            binom, conv = 1, 0
            for l in range(N + 1):
                conv += binom * xs[l] * ys[N - l]
                binom = binom * (N - l) // (l + 1)
            dbl += weight * conv
        big.append(-(25 * factorial(k - 2) * N * n * (2 * big[n] + c_k * acc)
                     + dbl // (k - 1)))


# Row k of v_{n,k} is ROWS[k]: row 0 is v, row 1 is nu.
ROWS: list[Table] = [V, NU]


def _row(k: int) -> Table:
    """Row k >= 2 as a table, grown from the integers of the rows below it."""
    return Table(
        lambda big, n: _extend_vk_row(k, big, [r.ints for r in ROWS[:k]], n),
        lambda x, n: _from_scaled(x, _vk_den(n, k), n + k - 1),
        lambda n: vk_table(n, k - 1))


def vk_table(n_max: int, k_max: int) -> VkTable:
    """Exact table of v_{n,k} for n <= n_max, k <= k_max."""
    if n_max < 0 or k_max < 0:
        raise ValueError("table bounds must be non-negative")
    if len(ROWS) <= k_max:
        with _EXTEND_LOCK:
            while len(ROWS) <= k_max:
                ROWS.append(_row(len(ROWS)))
    # a row never outgrows the rows below it, so row k_max is the shortest
    if len(ROWS[k_max].values) <= n_max:
        v_seq(n_max)
        if k_max >= 1:
            nu_seq(n_max)
        ROWS[k_max].upto(n_max)
    return VkTable([row.values[: n_max + 1] for row in ROWS[: k_max + 1]])


def _binomial_dot(binom: list[int], xs: list[int], ys: list[int], n: int,
                  top: int) -> int:
    """sum_{i<=top} C(n,i) xs[i] ys[n-i], with ``binom`` row n of Pascal's
    triangle."""
    if top < 0:
        return 0
    return sum(map(int.__mul__, map(int.__mul__, binom[: top + 1], xs[: top + 1]),
                   reversed(ys[n - top: n + 1])))


def _extend_vpm(big: list[tuple[int, int, int, int]], big_v: list[int],
                big_nu: list[int], big_w2: list[int], order: int) -> None:
    """Grow the integers (P_n, Q_n, Y_n, G_n) of the pair in ``big`` in place
    through n = order, one order at a time.

    With g = 1 - v_plus vhat_0, the k = 1 identity reads v_minus g = nu and
    the k = 2 identity v_plus v_minus (v_minus g) = -vhat_2.  With
    pv0 = v_plus vhat_0 and m2g = v_minus nu, the recursion runs on

        P_n = 40^n n! 2 sqrt3^(n+1) plus_n   (the scale of row 2),
        Q_n = 40^n n! sqrt3^n minus_n        (the scale of nu),
        Y_n = 40^n n! sqrt3^n pv0_n,  G_n = 40^n n! sqrt3^n m2g_n,

    so that, with R_j, S_j and W_{j,2} the scaled v-sequence, nu and row 2,
    every product of two series is a binomial convolution:

        Y_n = sum_{i<=n-2} C(n,i) 5^(n-i) (n-i)! P_i R_{n-i}/2,
        Q_n = S_n + sum_{i<=n-2} C(n,i) Q_i Y_{n-i},
        G_n = sum_{i<=n} C(n,i) Q_i S_{n-i},
        P_n = -(W_{n,2} + sum_{i<n} C(n,i) P_i G_{n-i}),

    all integers (G_0 = Q_0 S_0 = 1; R_j is even for j >= 1).
    """
    start = len(big)
    plus, minus, pv0, m2g = map(list, zip(*big)) if big else ([], [], [], [])
    # 5^j j! R_j / 2: vhat_0 in the scale of Y, from j = 2
    v_hat = [0, 0] + [5 ** j * factorial(j) * (big_v[j] >> 1)
                      for j in range(2, order + 1)]
    for n in range(start, order + 1):
        binom = [1]
        for i in range(n):
            binom.append(binom[i] * (n - i) // (i + 1))
        pv0.append(_binomial_dot(binom, plus, v_hat, n, n - 2))
        minus.append(big_nu[n] + _binomial_dot(binom, minus, pv0, n, n - 2))
        m2g.append(_binomial_dot(binom, minus, big_nu, n, n))
        plus.append(-big_w2[n] - _binomial_dot(binom, plus, m2g, n, n - 1))
    big.extend(zip(plus[start:], minus[start:], pv0[start:], m2g[start:]))


# The pair: PLUS holds the integers (P_n, Q_n, Y_n, G_n), MINUS a copy of Q.
PLUS = Table(lambda big, n: _extend_vpm(big, V.ints, NU.ints, ROWS[2].ints, n),
             lambda x, n: _from_scaled(x[0], _vk_den(n, 2), n + 1),
             lambda n: vk_table(n, 2))
MINUS = Table(
    lambda big, n: big.extend(x[1] for x in PLUS.ints[len(big):n + 1]),
    NU.value, PLUS.upto)


def vpm_series(order: int) -> tuple[Series, Series]:
    """The factorization pair (v_plus, v_minus) through x^-order.

    Solved order by order from the k = 1 and k = 2 identities; the k >= 3
    rows are then determined and serve as independent checks.  Cached like
    the other tables: a call at or below a built order extends nothing.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    minus = MINUS.upto(order)
    return (Series(PLUS.values[: order + 1], 0, _QZERO),
            Series(minus, 0, _QZERO))
