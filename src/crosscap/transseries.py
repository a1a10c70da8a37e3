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
recursions, and those of mu and nu, run on scaled integers; an entry
becomes a QF3 once, when it is added to the cache.

``vpm_series`` recovers the two formal power series v_plus, v_minus with

    vhat_k = (-1)^(k-1) v_plus^(k-1) v_minus^k (1 - v_plus vhat_0),  k >= 1,

where vhat_0 = sum_{n>=2} v_n x^-n and vhat_k = sum_{n>=0} v_{n,k} x^-n,
by solving the k = 1 and k = 2 identities order by order.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .exactnum import QF3
from .sequences import (_EXTEND_LOCK, _from_scaled, _scaled_u, _scaled_v,
                        _to_scaled, u_seq, v_seq)
from .series import Series

_QZERO = QF3(0)


class TransseriesError(ValueError):
    """Order-by-order solve hit an unsolvable order."""

    def __init__(self, order: int, message: str) -> None:
        super().__init__(f"order {order}: {message}")
        self.order = order


def _mu_den(l: int) -> int:
    return 320 ** l * factorial(l)


def extend_mu(values: list[QF3], u_values: list[Fraction], n: int) -> None:
    """Grow a mu-recursion table in place through index n.

    ``u_values`` must cover indices up to (n+1)//2.  The recursion runs on
    the integers M_l = 320^l l! sqrt3^l mu_l, M_0 = 1,

        M_l = sum_{j=1}^{(l+1)/2} 2^(7j-4) 5^(2j-2) (l-1)!/(l-2j+1)!
                  U_j M_{l-2j+1}  -  (10l-9)(10l-1) M_{l-1},

    the sum taken in Horner form, and the new entries are appended by one
    ``list.extend``.
    """
    big_u = _scaled_u(u_values[: (n + 1) // 2 + 1])
    big = [_to_scaled(x, _mu_den(l), l) for l, x in enumerate(values)] or [1]
    for l in range(len(big), n + 1):
        acc = 0
        for j in range((l + 1) // 2, 0, -1):
            acc = acc * (3200 * (l - 2 * j + 1) * (l - 2 * j)) \
                + big_u[j] * big[l - 2 * j + 1]
        big.append(8 * acc - (10 * l - 9) * (10 * l - 1) * big[l - 1])
    values.extend([_from_scaled(big[l], _mu_den(l), l)
                   for l in range(len(values), n + 1)])


def _vk_den(n: int, k: int) -> int:
    """40^n n! ((k-1)!)^n 2^(k-1): the rational part of the scale of v_{n,k}."""
    return 40 ** n * factorial(n) * factorial(k - 1) ** n << (k - 1)


def _scaled_nu(nu_values: list[QF3]) -> list[int]:
    """S_m = 40^m m! sqrt3^m nu_m, integers (S_0 = 1)."""
    return [_to_scaled(x, _vk_den(m, 1), m) for m, x in enumerate(nu_values)]


def extend_nu(values: list[QF3], v_values: list[QF3], n: int) -> None:
    """Grow a nu-recursion table in place through index n.

    ``v_values`` must cover indices up to n+1.  The recursion runs on the
    integers S_m = 40^m m! sqrt3^m nu_m, S_0 = 1,

        S_m = -sum_{k<m} 5^(m-1-k) (m-1)!/k! (R_{m+1-k}/2) S_k,

    the sum taken in Horner form (R_j is even for j >= 1), and the new
    entries are appended by one ``list.extend``.
    """
    half_r = [r >> 1 for r in _scaled_v(v_values[: n + 2])]
    big = _scaled_nu(values) or [1]
    for m in range(len(big), n + 1):
        acc = 0
        for k in range(m):
            acc = acc * (5 * k) + half_r[m + 1 - k] * big[k]
        big.append(-acc)
    values.extend([_from_scaled(big[m], _vk_den(m, 1), m)
                   for m in range(len(values), n + 1)])


_MU: list[QF3] = []
_NU: list[QF3] = []


def mu_seq(n: int) -> list[QF3]:
    """mu_0 .. mu_n, the u-sector one-instanton coefficients."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if len(_MU) <= n:
        u = u_seq((n + 1) // 2)
        with _EXTEND_LOCK:
            if len(_MU) <= n:
                extend_mu(_MU, u, n)
    return _MU[: n + 1]


def nu_seq(n: int) -> list[QF3]:
    """nu_0 .. nu_n, the v-sector one-instanton coefficients."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if len(_NU) <= n:
        v = v_seq(n + 1)
        with _EXTEND_LOCK:
            if len(_NU) <= n:
                extend_nu(_NU, v, n)
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


def _extend_vk_row(k: int, row: list[QF3], lower: list[list[int]],
                   n_max: int) -> list[int]:
    """Grow row k of the table in place through index n_max and return its
    scaled integers W_{n,k}, n <= n_max.

    With c_k = (k-1)!, the row runs on the integers

        W_{n,k} = 40^n n! c_k^n 2^(k-1) sqrt3^(n+k-1) v_{n,k},

    W_{0,k} = (-1)^(k-1); W_{n,1} is S_n.  For N = n+1, with the scaled
    v-sequence R_l = ``lower[0][l]`` and W_{l,i} = ``lower[i][l]``, i < k,

        -W_{N,k} = 25 (k-2)! N n (2 W_{n,k}
                       + c_k sum_{l=2}^N 5^(l-2) c_k^(l-2) (n-1)!/(N-l)! R_l W_{N-l,k})
                   + 1/(k-1) sum_{i=1}^{k-1} sum_{l=0}^N C(N,l)
                       (c_k/c_i)^l (c_k/c_{k-i})^(N-l) W_{l,i} W_{N-l,k-i},

    every coefficient an integer.  The terms i and k-i of the double sum
    are equal, so each pair is taken once.  The new entries are appended by
    one ``list.extend``.
    """
    c_k = factorial(k - 1)
    big_v = lower[0]
    big = [_to_scaled(x, _vk_den(n, k), n + k - 1)
           for n, x in enumerate(row[: n_max + 1])] or [(-1) ** (k - 1)]
    pairs = []
    for i in range(1, k // 2 + 1):
        a, b = c_k // factorial(i - 1), c_k // factorial(k - i - 1)
        pairs.append((1 if 2 * i == k else 2,
                      [a ** l * w for l, w in enumerate(lower[i])],
                      [b ** l * w for l, w in enumerate(lower[k - i])]))
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
    row.extend([_from_scaled(big[n], _vk_den(n, k), n + k - 1)
                for n in range(len(row), n_max + 1)])
    return big


def vk_table(n_max: int, k_max: int) -> VkTable:
    """Exact table of v_{n,k} for n <= n_max, k <= k_max."""
    if n_max < 0 or k_max < 0:
        raise ValueError("table bounds must be non-negative")
    v = v_seq(n_max)
    rows: list[list[QF3]] = [v]
    if k_max >= 1:
        rows.append(nu_seq(n_max))
    # a row never outgrows the rows below it, so row k_max is the shortest
    if k_max >= 2 and (len(_VK_EXTRA) < k_max - 1
                       or len(_VK_EXTRA[k_max - 2]) <= n_max):
        with _EXTEND_LOCK:
            lower = [_scaled_v(v), _scaled_nu(rows[1])]
            for k in range(2, k_max + 1):
                if len(_VK_EXTRA) < k - 1:
                    _VK_EXTRA.append([])
                lower.append(_extend_vk_row(k, _VK_EXTRA[k - 2], lower, n_max))
    rows += [row[: n_max + 1] for row in _VK_EXTRA[: k_max - 1]]
    return VkTable(rows)


def vpm_series(order: int) -> tuple[Series, Series]:
    """The factorization pair (v_plus, v_minus) through x^-order.

    Solved order by order from the k = 1 and k = 2 identities; the k >= 3
    rows are then determined and serve as independent checks.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    table = vk_table(order, 2)
    v = v_seq(order)
    nu = table.row(1)
    row2 = table.row(2)
    if not nu[0]:
        raise TransseriesError(0, "v_{0,1} vanishes; normalization broken")

    v0 = [v[n] if n >= 2 else _QZERO for n in range(order + 1)]
    plus: list[QF3] = []
    minus: list[QF3] = []

    def conv(xs, ys, m):
        acc = _QZERO
        for i in range(m + 1):
            acc = acc + xs[i] * ys[m - i]
        return acc

    for n in range(order + 1):
        # (v_plus * vhat_0)_j needs plus[0 .. j-2] only
        pv0 = [_QZERO if j < 2 else conv(plus + [_QZERO, _QZERO], v0, j)
               for j in range(n + 1)]
        m_n = nu[n]
        for j in range(2, n + 1):
            m_n = m_n + pv0[j] * minus[n - j]
        minus.append(m_n)

        p_tmp = plus + [_QZERO]
        m2 = [conv(minus, minus, j) for j in range(n + 1)]
        g = [QF3(1) if j == 0 else -(_QZERO if j < 2 else conv(p_tmp, v0, j))
             for j in range(n + 1)]
        m2g = [conv(m2, g, j) for j in range(n + 1)]
        if not m2g[0]:
            raise TransseriesError(n, "leading coefficient of v_minus^2 vanished")
        rest = conv(p_tmp, m2g, n)
        plus.append((-row2[n] - rest) / m2g[0])

    zero = _QZERO
    return (Series(plus, 0, zero), Series(minus, 0, zero))
