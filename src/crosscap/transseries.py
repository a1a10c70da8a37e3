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
recursions, and those of mu, nu and the pair below, run on scaled integers,
which are the stored form of each table; an entry also becomes a QF3 once,
when it is added to the cache.

``vpm_series`` recovers the two formal power series v_plus, v_minus with

    vhat_k = (-1)^(k-1) v_plus^(k-1) v_minus^k (1 - v_plus vhat_0),  k >= 1,

where vhat_0 = sum_{n>=2} v_n x^-n and vhat_k = sum_{n>=0} v_{n,k} x^-n,
by solving the k = 1 and k = 2 identities order by order.
"""

from __future__ import annotations

from math import factorial

from .exactnum import QF3
from . import sequences
from .sequences import _EXTEND_LOCK, _from_scaled, u_seq, v_seq
from .series import Series

_QZERO = QF3(0)


class TransseriesError(ValueError):
    """Order-by-order solve hit an unsolvable order."""

    def __init__(self, order: int, message: str) -> None:
        super().__init__(f"order {order}: {message}")
        self.order = order


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


# Stored like the tables of ``sequences``: the scaled integers, extended
# first, and the public values, published last.
_MU: list[QF3] = []
_MU_INT: list[int] = []
_NU: list[QF3] = []
_NU_INT: list[int] = []


def mu_seq(n: int) -> list[QF3]:
    """mu_0 .. mu_n, the u-sector one-instanton coefficients."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if len(_MU) <= n:
        u_seq((n + 1) // 2)
        with _EXTEND_LOCK:
            if len(_MU) <= n:
                extend_mu(_MU_INT, sequences._U_INT, n)
                _MU.extend([_from_scaled(_MU_INT[l], _mu_den(l), l)
                            for l in range(len(_MU), n + 1)])
    return _MU[: n + 1]


def nu_seq(n: int) -> list[QF3]:
    """nu_0 .. nu_n, the v-sector one-instanton coefficients."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if len(_NU) <= n:
        v_seq(n + 1)
        with _EXTEND_LOCK:
            if len(_NU) <= n:
                extend_nu(_NU_INT, sequences._V_INT, n)
                _NU.extend([_from_scaled(_NU_INT[m], _vk_den(m, 1), m)
                            for m in range(len(_NU), n + 1)])
    return _NU[: n + 1]


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


_VK_EXTRA: list[list[QF3]] = []  # rows k >= 2, entry 0 is row k=2
_VK_INT: list[list[int]] = []  # their integers W_{n,k}


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


def vk_table(n_max: int, k_max: int) -> VkTable:
    """Exact table of v_{n,k} for n <= n_max, k <= k_max."""
    if n_max < 0 or k_max < 0:
        raise ValueError("table bounds must be non-negative")
    rows: list[list[QF3]] = [v_seq(n_max)]
    if k_max >= 1:
        rows.append(nu_seq(n_max))
    # a row never outgrows the rows below it, so row k_max is the shortest
    if k_max >= 2 and (len(_VK_EXTRA) < k_max - 1
                       or len(_VK_EXTRA[k_max - 2]) <= n_max):
        with _EXTEND_LOCK:
            lower = [sequences._V_INT, _NU_INT]
            for k in range(2, k_max + 1):
                if len(_VK_EXTRA) < k - 1:
                    _VK_INT.append([])
                    _VK_EXTRA.append([])
                big, row = _VK_INT[k - 2], _VK_EXTRA[k - 2]
                _extend_vk_row(k, big, lower, n_max)
                row.extend([_from_scaled(big[n], _vk_den(n, k), n + k - 1)
                            for n in range(len(row), len(big))])
                lower.append(big)
    rows += [row[: n_max + 1] for row in _VK_EXTRA[: k_max - 1]]
    return VkTable(rows)


# The factorization pair, stored like the tables: the integers of v_plus
# and v_minus and of the two series their recursion reads, pv0 = v_plus
# vhat_0 and m2g = v_minus nu, all four of one length and extended first;
# then the public v_plus and, last, v_minus, whose length a hit reads.
_PLUS: list[QF3] = []
_MINUS: list[QF3] = []
_PLUS_INT: list[int] = []
_MINUS_INT: list[int] = []
_PV0: list[int] = []
_M2G: list[int] = []


def _binomial_dot(binom: list[int], xs: list[int], ys: list[int], n: int,
                  top: int) -> int:
    """sum_{i<=top} C(n,i) xs[i] ys[n-i], with ``binom`` row n of Pascal's
    triangle."""
    if top < 0:
        return 0
    return sum(map(int.__mul__, map(int.__mul__, binom[: top + 1], xs[: top + 1]),
                   reversed(ys[n - top: n + 1])))


def _extend_vpm(big_v: list[int], big_nu: list[int], big_w2: list[int],
                order: int) -> None:
    """Grow the integers of the cached pair through x^-order, one order at a
    time.

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

    all integers (G_0 = Q_0 S_0 = 1; R_j is even for j >= 1).  The new
    entries of the four lists are appended by one ``list.extend`` each.
    """
    plus, minus, pv0, m2g = _PLUS_INT[:], _MINUS_INT[:], _PV0[:], _M2G[:]
    # 5^j j! R_j / 2: vhat_0 in the scale of Y, from j = 2
    v_hat = [0, 0] + [5 ** j * factorial(j) * (big_v[j] >> 1)
                      for j in range(2, order + 1)]
    for n in range(len(minus), order + 1):
        binom = [1]
        for i in range(n):
            binom.append(binom[i] * (n - i) // (i + 1))
        pv0.append(_binomial_dot(binom, plus, v_hat, n, n - 2))
        minus.append(big_nu[n] + _binomial_dot(binom, minus, pv0, n, n - 2))
        m2g.append(_binomial_dot(binom, minus, big_nu, n, n))
        plus.append(-big_w2[n] - _binomial_dot(binom, plus, m2g, n, n - 1))
    for cached, built in ((_PV0, pv0), (_M2G, m2g), (_PLUS_INT, plus),
                          (_MINUS_INT, minus)):
        cached.extend(built[len(cached):])


def vpm_series(order: int) -> tuple[Series, Series]:
    """The factorization pair (v_plus, v_minus) through x^-order.

    Solved order by order from the k = 1 and k = 2 identities; the k >= 3
    rows are then determined and serve as independent checks.  Cached like
    the other tables: a call at or below a built order extends nothing.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if len(_MINUS) <= order:
        table = vk_table(order, 2)
        if not table.value(0, 1):
            raise TransseriesError(0, "v_{0,1} vanishes; normalization broken")
        with _EXTEND_LOCK:
            if len(_MINUS) <= order:
                _extend_vpm(sequences._V_INT, _NU_INT, _VK_INT[0], order)
                _PLUS.extend([_from_scaled(_PLUS_INT[n], _vk_den(n, 2), n + 1)
                              for n in range(len(_PLUS), order + 1)])
                _MINUS.extend([_from_scaled(_MINUS_INT[n], _vk_den(n, 1), n)
                               for n in range(len(_MINUS), order + 1)])
    return (Series(_PLUS[: order + 1], 0, _QZERO),
            Series(_MINUS[: order + 1], 0, _QZERO))
