"""The scaled-integer recursions and the integer Richardson probes against
Fraction/QF3 references, path independence of the cached tables, the
parity invariant, concurrent cache builds, and the cached ``plotdata`` text
against a direct rendering.

The reference functions below are the recursions written directly over
``Fraction``/``QF3``: the table recursions, the O(n^3) ``vpm_series`` solve
that rebuilds every convolution at every order, and the probe sequences
built as one ``Fraction`` per table entry.  The library runs the same
recursions on integers, or incrementally, and must reproduce them entry for
entry, and its transforms bit for bit.  The library builds the rows k >= 2
from nu and w; ``paper_row_ints``, the paper's row recursion on scaled
integers, checks them further out than the QF3 references reach.

The library does no arithmetic on a ``Series``: it builds the
spectral-curve series from closed forms and the quadrangulation counts from
a recurrence.  ``ref_spectral`` derives all three series from the quartic
curve with a per-term product, reciprocal and square root (``ref_mul``,
``ref_inverse``, ``ref_sqrt``), and is the independent reference for the
closed forms and for the recurrence.
"""

import contextlib
import csv
import hashlib
import io
import json
import os
import sys
import threading
import warnings
from contextlib import ExitStack, contextmanager
from fractions import Fraction
from functools import cache
from unittest.mock import patch

from math import comb, factorial, isqrt, lcm, perm

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from crosscap import cli, extrapolation, sequences, specgeom, transseries
from crosscap.asymptotics import asym_u, asym_v, asym_vk
from crosscap.exactnum import QF3, SymConst, _round_run, round_sum
from crosscap.extrapolation import (FloatSeq, PrecisionWarning, _lead_den,
                                    _lead_step, _parts, _q_den, _q_step,
                                    _run_parts, convergence_rows,
                                    estimate_stokes, probe_richardson, r_seq,
                                    richardson, s_seq)
from crosscap.sequences import (Table, _AtIndex, _brace, _from_scaled, u_seq,
                                v_seq)
from crosscap.series import Series
from crosscap.specgeom import (SpectralCurveError, alpha2_series,
                               quadrangulation_counts, rp2_correlator_series,
                               x02_series)
from crosscap.transseries import (mu_seq, nu_seq, seed_v0k, vk_table,
                                  vpm_series)

REF_N = 80
MAX_ROW = 4


# ---------------------------------------------------------------------------
# QF3 reference recursions
# ---------------------------------------------------------------------------

def ref_u(n):
    values = [Fraction(1)]
    for m in range(1, n + 1):
        acc = Fraction(0)
        for k in range(1, m):
            acc += values[k] * values[m - k]
        values.append(Fraction(25 * (m - 1) ** 2 - 1, 48) * values[m - 1]
                      - acc / 2)
    return values


def ref_v(u, n):
    half_inv_sqrt3 = QF3(0, 2).inverse()
    values = [QF3(0, -1)]
    for m in range(1, n + 1):
        acc = QF3(0)
        for k in range(1, m):
            acc = acc + values[k] * values[m - k]
        u_term = QF3(-3 * u[m // 2]) if m % 2 == 0 else QF3(0)
        values.append(half_inv_sqrt3
                      * (u_term + Fraction(5 * m - 6, 2) * values[m - 1] + acc))
    return values


def ref_mu(u, n):
    values = [QF3(1)]
    for l in range(1, n + 1):
        acc = QF3(0)
        for k in range(l):
            idx2 = l - k + 1
            if idx2 % 2 == 0:
                acc = acc + values[k] * u[idx2 // 2]
        inner = (Fraction(192, 25) * acc
                 - (Fraction(l) - Fraction(9, 10))
                 * (Fraction(l) - Fraction(1, 10)) * values[l - 1])
        values.append(QF3(0, 16 * l).inverse() * 5 * inner)
    return values


def ref_nu(v, n):
    values = [QF3(1)]
    for m in range(1, n + 1):
        acc = QF3(0)
        for k in range(m):
            acc = acc + v[m + 1 - k] * values[k]
        values.append(Fraction(-4, 5 * m) * acc)
    return values


def ref_row(k, v, lower, n_max):
    row = [QF3(0, 2) ** (1 - k) * (-1) ** (k - 1)]
    scale = QF3(0, -(k - 1)).inverse()
    for n in range(n_max):
        acc = Fraction(5 * n, 4) * row[n]
        for l in range(2, n + 2):
            acc = acc + row[n + 1 - l] * v[l]
        dbl = QF3(0)
        for i in range(1, k):
            left, right = lower[i], lower[k - i]
            for l in range(n + 2):
                dbl = dbl + left[l] * right[n + 1 - l]
        row.append(scale * (acc + dbl * Fraction(1, 2)))
    return row


def paper_row_ints(k, big, lower, n_max):
    """Grow the integers W_{n,k} of row k in place through index n_max by
    the paper's row recursion, which does not go through w.

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


def ref_mul(f, g):
    low = f.low + g.low
    order = min(f.order + g.low, g.order + f.low)
    coeffs = []
    for e in range(low, order + 1):
        acc = f.zero
        for i in range(f.low, min(f.order, e - g.low) + 1):
            acc = acc + f.coeffs[i - f.low] * g.coefficient(e - i)
        coeffs.append(acc)
    return Series(coeffs, low, f.zero)


def ref_inverse(f):
    lead = f.coeffs[0]
    inv_lead = lead.inverse() if isinstance(lead, QF3) else 1 / Fraction(lead)
    out = [inv_lead]
    for m in range(1, len(f.coeffs)):
        acc = f.zero
        for i in range(1, m + 1):
            acc = acc + f.coeffs[i] * out[m - i]
        out.append(-inv_lead * acc)
    return Series(out, -f.low, f.zero)


def ref_sqrt(f):
    # over Fraction, with the lead the square of a rational
    lead = Fraction(f.coeffs[0])
    root = Fraction(isqrt(lead.numerator), isqrt(lead.denominator))
    assert root * root == lead
    half = 1 / (root + root)
    out = [root]
    for m in range(1, len(f.coeffs)):
        acc = f.coeffs[m]
        for i in range(1, m):
            acc = acc - out[i] * out[m - i]
        out.append(half * acc)
    return Series(out, f.low // 2, f.zero)


def ref_vpm(order):
    table = vk_table(order, 2)
    v, nu, row2 = table.row(0), table.row(1), table.row(2)
    zero = QF3(0)
    v0 = [v[n] if n >= 2 else zero for n in range(order + 1)]
    plus, minus = [], []

    def conv(xs, ys, m):
        acc = zero
        for i in range(m + 1):
            acc = acc + xs[i] * ys[m - i]
        return acc

    for n in range(order + 1):
        pv0 = [zero if j < 2 else conv(plus + [zero, zero], v0, j)
               for j in range(n + 1)]
        m_n = nu[n]
        for j in range(2, n + 1):
            m_n = m_n + pv0[j] * minus[n - j]
        minus.append(m_n)
        p_tmp = plus + [zero]
        m2 = [conv(minus, minus, j) for j in range(n + 1)]
        g = [QF3(1) if j == 0 else -(zero if j < 2 else conv(p_tmp, v0, j))
             for j in range(n + 1)]
        m2g = [conv(m2, g, j) for j in range(n + 1)]
        rest = conv(p_tmp, m2g, n)
        plus.append((-row2[n] - rest) / m2g[0])
    return plus, minus


@cache
def reference():
    u = ref_u(REF_N + 1)
    v = ref_v(u, REF_N + 1)
    tables = {"u": u[: REF_N + 1], "v": v[: REF_N + 1],
              "mu": ref_mu(u, REF_N), "nu": ref_nu(v, REF_N)}
    rows = [tables["v"], tables["nu"]]
    for k in range(2, MAX_ROW + 1):
        rows.append(ref_row(k, v, rows, REF_N))
        tables[f"row{k}"] = rows[k]
    return tables


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

BUILDERS = {
    "u": u_seq,
    "v": v_seq,
    "mu": mu_seq,
    "nu": nu_seq,
    **{f"row{k}": (lambda n, k=k: vk_table(n, k).row(k))
       for k in range(2, MAX_ROW + 1)},
}


@contextmanager
def fresh_caches():
    """Empty stand-ins for every table and every per-index store in the
    crosscap modules, and rows k >= 2 and the cached transform rows
    dropped, for one block."""
    caches = {id(x): x for name, module in list(sys.modules.items())
              if name.startswith("crosscap.")
              for x in vars(module).values()
              if isinstance(x, (Table, _AtIndex))}
    with ExitStack() as stack:
        for store in caches.values():
            if isinstance(store, _AtIndex):
                stack.enter_context(patch.object(store, "ints", {}))
                continue
            stack.enter_context(patch.object(store, "ints", []))
            stack.enter_context(patch.object(store, "values", []))
        stack.enter_context(patch.object(
            transseries, "ROWS", [sequences.V, transseries.NU]))
        stack.enter_context(patch.dict(extrapolation._TRANSFORM_ROWS,
                                       clear=True))
        yield


def vpm_lists(order):
    plus, minus = vpm_series(order)
    return plus.coeffs, minus.coeffs


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------

def test_one_build_matches_reference():
    ref = reference()
    with fresh_caches():
        for name, build in BUILDERS.items():
            assert build(REF_N) == ref[name], name


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(BUILDERS)),
       steps=st.lists(st.integers(0, REF_N), min_size=1, max_size=5))
def test_stepwise_build_matches_reference(name, steps):
    # any split of a build into calls gives the entries of one build
    ref = reference()[name]
    with fresh_caches():
        for n in steps:
            assert BUILDERS[name](n) == ref[: n + 1], (name, n)
        top = max(steps)
        assert BUILDERS[name](top) == ref[: top + 1]


def test_deep_sectors_build_without_nesting():
    # a call nested per row would pass the recursion limit near k = 1000
    ks = (1, 2, 3, 999, 1000, 1001, 1499, 1500)
    with fresh_caches():
        table = vk_table(3, 1500)
        assert [table.value(0, k) for k in ks] == list(map(seed_v0k, ks))
    with fresh_caches():
        value = asym_vk(1500, 5, 4, 30)
    with fresh_caches():
        # every row made and grown through 2 first: the deep row's grow
        # then grows the 1500 rows below it
        vk_table(2, 1501)
        assert asym_vk(1500, 5, 4, 30) == value
        assert vk_table(5, 1501).row(1500)[:4] == table.row(1500)


def test_rows_match_paper_recursion():
    # rows k >= 2 and the pair both come from w, and the factorization
    # identity then holds whatever w is; the paper's row recursion, on
    # integers in its own ((k-1)!)^n scale, is the independent side
    # (ref_row stops at REF_N)
    top, table = 200, vk_table(200, 4)
    lower = [sequences.V.ints, transseries.NU.ints]
    for k in range(2, 5):
        big = []
        paper_row_ints(k, big, lower, top)
        lower.append(big)
        assert [_from_scaled(x, 40 ** n * factorial(n) * factorial(k - 1) ** n
                             << (k - 1), n + k - 1)
                for n, x in enumerate(big)] == table.row(k), k


def binomial_dot_ints(xs, ys, n, top):
    """sum_{i<=top} C(n,i) xs[i] ys[n-i], each binomial multiplied out from
    the one before: the convolution every row k >= 2 once took entry by
    entry, before row 2 read w^2 and the binomials came by Pascal's rule."""
    if top < 0:
        return 0
    binom = [1]
    for i in range(top):
        binom.append(binom[i] * (n - i) // (i + 1))
    return sum(map(int.__mul__, map(int.__mul__, binom, xs[: top + 1]),
                   reversed(ys[n - top: n + 1])))


SPLIT_N = 300


@cache
def convolution_rows():
    """The integers of rows 2..5 through SPLIT_N, row k as row k-1 times w."""
    big_omega = transseries.OMEGA.grown(SPLIT_N)
    rows = [transseries.NU.grown(SPLIT_N)]
    for _ in range(2, 6):
        rows.append([binomial_dot_ints(rows[-1], big_omega, m, m)
                     for m in range(SPLIT_N + 1)])
    return {k: rows[k - 1] for k in range(2, 6)}


@settings(max_examples=8, deadline=None)
@given(steps=st.lists(st.tuples(st.integers(2, 5), st.integers(0, SPLIT_N)),
                      max_size=5))
def test_rows_match_convolution_kernel(steps):
    # any split of rows 2..5 into grows, each resuming where its row
    # stopped (row 2 then takes P_{m0-1} again), gives the convolutions;
    # nu and w stay built, the rows k >= 2 and row 2's store start empty
    ref = convolution_rows()
    with patch.object(transseries, "ROWS", [sequences.V, transseries.NU]), \
            patch.dict(transseries._ROW2_AT.ints, clear=True):
        for k, n in [*steps, (5, SPLIT_N)]:
            transseries._row(k).grown(n)
            for j, row in enumerate(transseries.ROWS[2:], 2):
                assert row.ints == ref[j][: len(row.ints)], (k, n, j)
        assert all(len(transseries.ROWS[k].ints) == SPLIT_N + 1
                   for k in range(2, 6))


def test_rows_are_nu_times_powers_of_w():
    # vhat_k = nu w^(k-1) = -2 sqrt3 w^k - (5/(2k)) z theta (w^k): with P
    # the integers of w^k, k W_{m,k} = -(k P_m + 50 m (m-1) P_{m-1}), the
    # division by k exact; k = 1 is Omega's own recursion
    top, big_omega = 250, transseries.OMEGA.grown(250)
    power = big_omega
    for k in range(1, 7):
        if k > 1:
            power = [binomial_dot_ints(power, big_omega, m, m)
                     for m in range(top + 1)]
        row = transseries._row(k).grown(top)
        for m in range(top + 1):
            num = k * power[m] + (50 * m * (m - 1) * power[m - 1] if m else 0)
            assert num % k == 0 and row[m] == -(num // k), (k, m)


# v_{n,k} is a rational times sqrt3 exactly when n+k is even; row 0 is v,
# row 1 is nu, and mu alternates like nu.
PARITY_K = {"v": 0, "nu": 1, "mu": 1, **{f"row{k}": k for k in range(2, MAX_ROW + 1)}}


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(sorted(PARITY_K)), n=st.integers(0, 240))
def test_parity_invariant(name, n):
    k = PARITY_K[name]
    for m, x in enumerate(BUILDERS[name](n)):
        if (m + k) % 2 == 0:
            assert x.a == 0, (name, m)
        else:
            assert x.b == 0, (name, m)


def test_concurrent_builds_match_serial():
    sizes = (37, 61, 88, 115)

    def work(n):
        return v_seq(n + 20), nu_seq(n + 10), \
            [vk_table(n, 3).row(k) for k in range(4)], vpm_lists(n // 4 + 5), \
            quadrangulation_counts(n // 2 + 10), \
            convergence_rows("s", n // 2, (0, 5), 40), \
            extrapolation._rows("r", 5, 40).upto(n // 3), \
            asym_vk(2, n // 2, 5, 40), \
            estimate_stokes("sminus1", n // 3, 4, 40), \
            estimate_stokes("sminus1", n + 30, 4, 40), \
            sequences.t_of_g(n), sequences.p_of_g(n)

    with fresh_caches():
        serial = [work(n) for n in sizes]

    def race():
        results = [None] * len(sizes)
        barrier = threading.Barrier(len(sizes))

        def run(i):
            barrier.wait(timeout=30)
            results[i] = work(sizes[i])

        with fresh_caches():
            threads = [threading.Thread(target=run, args=(i,))
                       for i in range(len(sizes))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
        return results

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):  # a lost update does not show on every run
            assert race() == serial
    finally:
        sys.setswitchinterval(interval)


def test_cache_hit_takes_no_lock():
    hits = (lambda: u_seq(30), lambda: v_seq(30), lambda: mu_seq(30),
            lambda: nu_seq(30), lambda: vk_table(30, 3),
            lambda: vpm_series(30), lambda: quadrangulation_counts(30),
            lambda: convergence_rows("sminus1", 30, (0, 1), 40),
            lambda: estimate_stokes("sminus1", 80, 5, 40),
            lambda: (sequences.t_of_g(30), sequences.p_of_g(30)),
            lambda: cli.run(["plotdata", "unorquot", "--nmax", "30",
                             "--prec", "40", "--output", os.devnull]))
    for hit in hits:
        hit()
    with sequences._EXTEND_LOCK:
        for i, hit in enumerate(hits):
            t = threading.Thread(target=hit, daemon=True)
            t.start()
            t.join(timeout=5)
            assert not t.is_alive(), i


# ---------------------------------------------------------------------------
# vpm_series
# ---------------------------------------------------------------------------

VPM_N = 40


@cache
def vpm_reference():
    return ref_vpm(VPM_N)


def test_vpm_matches_reference():
    ref = vpm_reference()
    with fresh_caches():
        assert vpm_lists(VPM_N) == ref
        # a repeat at the same or a smaller order extends nothing
        with patch.object(transseries, "_extend_minus",
                          side_effect=AssertionError("extended")), \
                patch.object(transseries, "_extend_plus",
                             side_effect=AssertionError("extended")):
            assert vpm_lists(VPM_N) == ref
            assert vpm_lists(7) == (ref[0][:8], ref[1][:8])


@settings(max_examples=20, deadline=None)
@given(steps=st.lists(st.integers(1, VPM_N), min_size=1, max_size=4))
def test_vpm_stepwise_build_matches_reference(steps):
    plus, minus = vpm_reference()
    with fresh_caches():
        for n in steps:
            assert vpm_lists(n) == (plus[: n + 1], minus[: n + 1]), n


# ---------------------------------------------------------------------------
# quadrangulation counts
# ---------------------------------------------------------------------------

QUAD_N = 60
SPECTRAL_N = 200


@cache
def ref_spectral():
    """alpha^2, x0^2 and the correlator of the quartic curve, derived over
    Fraction as the ``specgeom`` docstring writes them, with the reference
    product, reciprocal and square root; the correlator is known through
    SPECTRAL_N + 3."""
    work = SPECTRAL_N + 4
    zero = Fraction(0)
    # alpha^2 = (sqrt(1 + 48 lam) - 1) / (24 lam)
    sqrt_disc = ref_sqrt(Series([Fraction(1), Fraction(48)] + [zero] * work))
    alpha2 = Series([c / 24 for c in sqrt_disc.coeffs[1:]])
    # x0^2 = -(1 + 8 lam alpha^2) / (4 lam)
    one_plus = Series([Fraction(1)] + [8 * c for c in alpha2.coeffs])
    x02 = Series([c / -4 for c in one_plus.coeffs], -1)
    # 4 alpha^2 / x0^2 = -16 lam alpha^2 / (1 + 8 lam alpha^2), regular
    ratio = ref_mul(Series([-16 * c for c in alpha2.coeffs], 1),
                    ref_inverse(one_plus))
    root = ref_sqrt(Series([Fraction(1)] + [-c for c in ratio.coeffs]))
    x02_2a = Series([x + 2 * a for x, a in zip(x02.coeffs,
                                               [zero] + alpha2.coeffs)], -1)
    # x0^4 - alpha^4 - x0^2 (x0^2 + 2 alpha^2) sqrt(1 - 4 alpha^2 / x0^2)
    terms = (ref_mul(x02, x02), ref_mul(alpha2, alpha2),
             ref_mul(ref_mul(x02, x02_2a), root))
    corr = Series([x - a - b for x, a, b in
                   zip(*(t.coefficients(-2, work - 1) for t in terms))], -2)
    return alpha2, x02, corr


def same(f, g):
    """Equal exponent range, coefficients and coefficient types."""
    return (f.low, f.order, f.coeffs, [type(c) for c in f.coeffs]) \
        == (g.low, g.order, g.coeffs, [type(c) for c in g.coeffs])


def test_spectral_series_match_reference():
    alpha2, x02, corr = ref_spectral()
    assert corr.low == 0
    for order in range(1, SPECTRAL_N + 1):
        assert same(alpha2_series(order),
                    Series(alpha2.coeffs[: order + 1])), order
        assert same(x02_series(order),
                    Series(x02.coeffs[: order + 2], -1)), order
        assert same(rp2_correlator_series(order),
                    Series(corr.coeffs[: order + 1])), order


@cache
def quad_reference(n=QUAD_N):
    """c_1 .. c_n read off the reference correlator, not the recurrence."""
    corr = ref_spectral()[2]
    return [int(corr.coefficient(m) / Fraction(-4) ** m) for m in range(n)]


def test_quad_hit_computes_nothing():
    ref = quad_reference()
    with fresh_caches():
        assert quadrangulation_counts(QUAD_N) == ref
        with patch.object(specgeom.QUAD, "grow",
                          side_effect=AssertionError("recomputed")):
            assert quadrangulation_counts(QUAD_N) == ref
            assert quadrangulation_counts(7) == ref[:7]


def test_quad_recurrence_matches_correlator_through_200():
    with fresh_caches():
        assert quadrangulation_counts(SPECTRAL_N) == quad_reference(SPECTRAL_N)


@pytest.mark.parametrize("m", range(4))
def test_quad_corrupted_seed_fails_fast(m):
    big = [5, 38, 331, 3098]
    big[m] += 1
    with pytest.raises(SpectralCurveError,
                       match=r"^c_7 = .* is not a positive integer$"):
        specgeom._extend_quad(big, 40)


@settings(max_examples=20, deadline=None)
@given(steps=st.lists(st.integers(1, QUAD_N), min_size=1, max_size=4))
def test_quad_stepwise_build_matches_reference(steps):
    ref = quad_reference()
    with fresh_caches():
        for n in steps:
            counts = quadrangulation_counts(n)
            assert counts == ref[:n], n
            counts.append(0)  # the caller's list, not the cache
        assert quadrangulation_counts(QUAD_N) == ref


# ---------------------------------------------------------------------------
# Richardson probes
# ---------------------------------------------------------------------------

def ref_sqrt3_parts(row):
    """q_m = (A/2)^m row[m] / (sqrt3 Gamma(m)) for m >= 1 (entry 0 reads 0),
    c_m (4/5)^m 3^floor(m/2) / (m-1)! with c_m the nonzero part of row[m]."""
    out, num, den = [0], 1, 1
    for m in range(1, len(row)):
        num *= 12 if m % 2 == 0 else 4
        den *= 5 * max(m - 1, 1)
        c, rest = (row[m].b, row[m].a) if m % 2 == 0 else (row[m].a, row[m].b)
        assert not rest, f"entry {m} breaks the parity rule"
        out.append(Fraction(c.numerator * num, c.denominator * den))
    return out


def ref_lam_pow_3(row3):
    """v_{l,3} lam^l, lam = A/2, rational by parity."""
    return [(e.a if l % 2 == 0 else e.b) * Fraction(4, 5) ** l
            * 3 ** ((l + 1) // 2) for l, e in enumerate(row3)]


def ref_probe(which, lo, top):
    """Probe ``which`` over lo..top as (constant, exact sequence) parts."""
    if which in ("s", "r"):
        q = ref_sqrt3_parts(v_seq(top))
        if which == "s":
            return [((2, 1, 3), q)]
        return [((1, 1, 2), [m * x for m, x in enumerate(q)]),
                ((-1, 0, 1), range(top + 1))]
    table, width = vk_table(top, 3), top // 2
    lead = ref_sqrt3_parts(table.row(2))
    lam_pow_3 = ref_lam_pow_3(table.row(3)[:width + 1])
    signed_lead, brace = {}, {}
    for m in range(lo, top + 1):
        acc, prod = Fraction(0), 1
        for l in range(min(m // 2, width, m - 1) + 1):
            prod *= m - l if l else 1
            acc += lam_pow_3[l] / prod
        signed_lead[m], brace[m] = (-1) ** m * lead[m], (-1) ** m * acc
    return [((2, 1, 3), signed_lead), ((-3, 0, 6), brace)]


def ref_transform(x, order, n):
    """(1/N!) sum_k (-1)^(k+N) C(N,k) (n+k)^N x[n+k], N = order, x[m] ints or
    Fractions, exactly: (numerator, denominator), one integer sum over the
    lcm of the terms' denominators."""
    terms = [Fraction(x[n + k]) for k in range(order + 1)]
    den = lcm(*(t.denominator for t in terms))
    total = sum((-1) ** (k + order) * comb(order, k) * (n + k) ** order
                * t.numerator * (den // t.denominator)
                for k, t in enumerate(terms))
    return total, den * factorial(order)


def ref_round(parts, order, n, dps):
    return round_sum([(const, ref_transform(x, order, n))
                      for const, x in parts], dps)


def library_probe(which, order, n, dps):
    if which == "sminus1":
        return estimate_stokes("sminus1", n, order, dps).value
    return probe_richardson(which, order, n, dps).value


@settings(max_examples=30, deadline=None)
@given(which=st.sampled_from(["s", "r", "sminus1"]), n=st.integers(1, 300),
       order=st.integers(0, 30), dps=st.integers(30, 250))
def test_probe_matches_reference_bit_for_bit(which, n, order, dps):
    ref = ref_round(ref_probe(which, n, n + order), order, n, dps)
    assert library_probe(which, order, n, dps)._mpf_ == ref._mpf_


def test_convergence_rows_match_reference():
    n_max, orders, dps = 120, (0, 1, 5), 100
    for which in ("s", "r", "sminus1"):
        parts = ref_probe(which, 1, n_max + max(orders))
        ref = [(n, *(ref_round(parts, N, n, dps)._mpf_ for N in orders))
               for n in range(1, n_max + 1)]
        rows = convergence_rows(which, n_max, orders, dps)
        assert [(n, *(x._mpf_ for x in xs)) for n, *xs in rows] == ref, which


@settings(max_examples=60, deadline=None)
@given(data=st.data(), order=st.integers(0, 30), n=st.integers(1, 300),
       dps=st.integers(15, 120))
def test_richardson_matches_reference_bit_for_bit(data, order, n, dps):
    # binary values of mixed sign and exponent, zeros among them
    bits = mpmath.libmp.dps_to_prec(dps)
    pairs = data.draw(st.lists(
        st.tuples(st.just(0) | st.integers(-(1 << bits) + 1, (1 << bits) - 1),
                  st.integers(-400, 400)),
        min_size=order + 1, max_size=order + 1))
    values = tuple(mpmath.mp.make_mpf(mpmath.libmp.from_man_exp(man, exp))
                   for man, exp in pairs)
    exact = {m: man * Fraction(2) ** exp
             for m, (man, exp) in enumerate(pairs, n)}
    ref = round_sum([((1, 0, 1), ref_transform(exact, order, n))], dps)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PrecisionWarning)
        value = richardson(FloatSeq(n, values, dps), order, n).value
    assert value._mpf_ == ref._mpf_


def test_probe_closed_forms():
    top = 200
    q = ref_sqrt3_parts(v_seq(top))
    big_v = sequences.V.ints
    assert all(Fraction(big_v[m], 10 ** m * factorial(m - 1)) == q[m]
               for m in range(1, top + 1))
    table = vk_table(top, 3)
    lead = ref_sqrt3_parts(table.row(2))
    lam_pow_3 = ref_lam_pow_3(table.row(3))
    big_w2, big_w3 = transseries.ROWS[2].ints, transseries.ROWS[3].ints
    assert all(Fraction(big_w2[m], 6 * 50 ** m * factorial(m) * factorial(m - 1))
               == lead[m] for m in range(1, top + 1))
    assert all(Fraction(big_w3[l], 12 * 50 ** l * factorial(l)) == lam_pow_3[l]
               for l in range(top + 1))
    # the order-N transform of x_m = m
    for order in range(31):
        for n in range(1, top + 1, 3):
            assert Fraction(*ref_transform(range(n + order + 1), order, n)) \
                == Fraction((order + 1) * (2 * n + order), 2), (order, n)


@pytest.mark.parametrize("which", ["s", "r", "sminus1"])
def test_run_kernel_matches_window_kernel(which):
    # every n in 1..300, in the runs a row grown to 40, then 97, then 300
    # builds: the forward differences give the Horner sums' integers over
    # the same stepped denominators (r's -m, an integer there, times d_i)
    for order in (0, 1, 5, 10, 30):
        for n0, n1 in ((1, 40), (41, 97), (98, 300)):
            terms, d, steps = _run_parts(which, order, n0, n1)
            assert len(steps) == n1 - n0
            for i, n in enumerate(range(n0, n1 + 1)):
                d *= steps[i - 1] if i else 1
                parts = _parts(which, order, n)
                assert [const for const, _ in terms] == \
                    [const for const, _ in parts], (order, n)
                for (_, x), (_, (p, q)) in zip(terms, parts):
                    assert (x[i], d) == (p, q) or (x[i], q) == (p * d, 1), \
                        (order, n)


def test_integers_from_the_tables_to_round_sum():
    # the expansions and the transforms build no Fraction, QF3 or SymConst,
    # tables included: every Gamma factor and window denominator is a
    # closed form in integers
    refused = AssertionError("an exact rational was built")
    with fresh_caches(), ExitStack() as stack:
        stack.enter_context(patch.object(Fraction, "__new__",
                                         side_effect=refused))
        for cls in (QF3, SymConst):
            stack.enter_context(patch.object(cls, "__init__",
                                             side_effect=refused))
        asym_u(50, 5, 60)
        asym_v(180, 6, 60)
        asym_vk(3, 60, 5, 60)   # n + k odd: the sqrt18/pi constant
        asym_vk(2, 61, 7, 60)
        estimate_stokes("sprime", 40, 6, 60)
        estimate_stokes("sminus1", 40, 6, 60)
        probe_richardson("r", 5, 30, 60)
        convergence_rows("sminus1", 50, (0, 1, 5), 60)
    for m in range(2, 1101):
        assert _q_den(m) == _q_den(m - 1) * _q_step(m), m
        assert _lead_den(m) == _lead_den(m - 1) * _lead_step(m), m
    # Gamma(2n - 1/2) / sqrt(pi), as asym_u reads it
    for n in range(1, 301):
        assert Fraction(perm(4 * n - 2, 2 * n - 1), 4 ** (2 * n - 1)) \
            == 1 / SymConst(1, gamma_arg=Fraction(4 * n - 1, 2)).coeff, n


# ---------------------------------------------------------------------------
# cached transform rows
# ---------------------------------------------------------------------------

ROW_CALLS = [("s", 40, (0, 1, 5), 60), ("r", 25, (1, 5), 30),
             ("s", 12, (5, 10), 60), ("sminus1", 30, (0, 2), 200),
             ("s", 70, (1, 10), 60), ("r", 60, (0, 1, 5), 30),
             ("sminus1", 9, (2, 3), 200), ("s", 33, (0, 5), 200),
             ("r", 8, (5,), 30), ("sminus1", 45, (0, 1, 3), 200),
             ("s", 70, (0, 1, 5, 10), 60), ("r", 61, (1,), 30)]


def test_transform_rows_match_direct_rounding():
    # interleaved calls, n_max growing and shrinking, overlapping orders:
    # every value is the direct rounding of its own transform
    direct = {}
    with fresh_caches():
        for which, n_max, orders, dps in ROW_CALLS:
            rows = convergence_rows(which, n_max, orders, dps)
            assert [row[0] for row in rows] == list(range(1, n_max + 1))
            for n, *values in rows:
                for order, value in zip(orders, values):
                    key = which, order, n, dps
                    if key not in direct:
                        direct[key] = round_sum(
                            _parts(which, order, n), dps)._mpf_
                    assert value._mpf_ == direct[key], key


def test_transform_row_hit_rounds_nothing():
    with fresh_caches():
        rows = convergence_rows("s", 40, (0, 1, 5), 60)
        with patch.object(extrapolation, "_round_run",
                          side_effect=AssertionError("rounded again")):
            assert convergence_rows("s", 40, (0, 1, 5), 60) == rows
            assert convergence_rows("s", 25, (5, 0), 60) == \
                [(n, s5, s0) for n, s0, _, s5 in rows[:25]]


def test_growing_rows_rounds_only_the_new_values():
    with fresh_caches():
        convergence_rows("r", 40, (0, 1, 5), 60)
        rounded = []

        def counted(*args):
            values = _round_run(*args)
            rounded.extend(values)
            return values

        with patch.object(extrapolation, "_round_run", counted):
            convergence_rows("r", 60, (0, 1, 5), 60)
        assert len(rounded) == 20 * 3


@pytest.mark.parametrize("args", [("s", 0, (0, 1), 40),
                                  ("r", 30, (0, -1), 40),
                                  ("sprime", 30, (0,), 40),
                                  ("s", 10, (0,), 0),
                                  ("s", 10, (), 40)])
def test_bad_rows_request_creates_no_table(args):
    with fresh_caches():
        convergence_rows("s", 10, (0,), 40)
        before = dict(extrapolation._TRANSFORM_ROWS)
        with pytest.raises(ValueError):
            convergence_rows(*args)
        assert extrapolation._TRANSFORM_ROWS == before


def kernel_only_reads():
    estimate_stokes("sprime", 60, 10, 60)
    estimate_stokes("sminus1", 30, 6, 60)
    asym_vk(2, 40, 5, 60)


def test_kernels_read_integers_only():
    with fresh_caches():
        kernel_only_reads()
        tables = {"U": sequences.U, "V": sequences.V, "nu": transseries.NU,
                  "Omega": transseries.OMEGA, "row2": transseries.ROWS[2],
                  "row3": transseries.ROWS[3]}
        for name, table in tables.items():
            assert table.ints and not table.values, name


def test_public_tables_after_kernel_only_growth():
    def public():
        return (vk_table(50, 1).row(0),
                [vk_table(50, k).row(k) for k in range(4)], v_seq(70),
                vpm_lists(30), nu_seq(60))

    with fresh_caches():
        fresh = public()
    with fresh_caches():
        kernel_only_reads()
        nu_seq(60)  # nu's values alone: vk_table must still build row 0's
        assert public() == fresh


# ---------------------------------------------------------------------------
# the shared S_-1 braces
# ---------------------------------------------------------------------------

def test_braces_are_the_row3_brace():
    # grown in steps by an estimate, rows and the store itself
    with fresh_caches():
        estimate_stokes("sminus1", 30, 6, 40)
        convergence_rows("sminus1", 100, (0, 5), 40)
        braces = extrapolation._BRACES_AT.over(1, 260)
        big_w3 = transseries.ROWS[3].ints
        assert sorted(braces) == list(range(1, 261))
        # X_m = d_m B_m over the lead's d_m
        for m in range(1, 261):
            assert braces[m] == 6 * 50 ** m * factorial(m) * factorial(m - 1) \
                * Fraction(*_brace(big_w3, m // 2,
                                   lambda l: 50 * l * (m - l))) / 12, m


def test_second_sminus1_estimate_builds_no_brace():
    # a repeated window, and one inside the indices a row run built, take
    # no P-dot and no brace Horner sum
    refused = AssertionError("lead or brace rebuilt")
    with fresh_caches():
        first = estimate_stokes("sminus1", 60, 8, 60)
        rows = convergence_rows("sminus1", 60, (0, 1, 5), 60)
        with patch.object(transseries._ROW2_AT, "compute",
                          side_effect=refused), \
                patch.object(extrapolation._BRACES_AT, "compute",
                             side_effect=refused):
            assert estimate_stokes("sminus1", 60, 8, 60) == first
            estimate_stokes("sminus1", 50, 10, 60)
            assert convergence_rows("sminus1", 60, (0, 1, 5), 60) == rows


def test_sminus1_window_reads_only_its_own_indices():
    # nu and Omega through n + N, rows 2 and 3 through (n + N)//2, the
    # braces at the window's own indices, and row 2's store at the Table's
    # entries and the window's own
    with fresh_caches():
        estimate_stokes("sminus1", 100, 10, 60)
        assert len(transseries.ROWS[2].ints) == 56
        assert len(transseries.ROWS[3].ints) == 56
        assert len(transseries.OMEGA.ints) == 111
        window = list(range(100, 111))
        assert sorted(transseries._ROW2_AT.ints) == [*range(56), *window]
        assert sorted(extrapolation._BRACES_AT.ints) == window


@settings(max_examples=10, deadline=None)
@given(steps=st.lists(st.one_of(
    st.tuples(st.just("grow"), st.integers(0, SPLIT_N)),
    st.tuples(st.just("window"), st.integers(1, SPLIT_N),
              st.integers(0, 40))), min_size=1, max_size=8))
def test_window_lead_matches_row2(steps):
    # windows in random order, interleaved with row 2's growth: the
    # kernel's W_{m,2} at each window's own indices are row 2's integers
    ref = convolution_rows()[2]
    big_omega = transseries.OMEGA.grown(SPLIT_N)
    store = transseries._ROW2_AT
    with patch.object(transseries, "ROWS", [sequences.V, transseries.NU]), \
            patch.dict(store.ints, clear=True):
        for step in steps:
            if step[0] == "grow":
                transseries._row(2).grown(step[1])
                continue
            n0 = step[1]
            n1 = min(n0 + step[2], SPLIT_N)
            assert transseries._row2_ints(big_omega, n0, n1) == \
                ref[n0: n1 + 1], (n0, n1)
            lead = store.over(n0, n1)
            assert [lead[m] for m in range(n0, n1 + 1)] == \
                ref[n0: n1 + 1], (n0, n1)
        # growing the row inserts into the store: iterate over a snapshot
        for m, w in list(store.ints.items()):
            assert w == transseries._row(2).grown(m)[m], m


def test_each_row2_integer_is_computed_once():
    # rows, single windows and row-sized reads in any order share one
    # store: the W_{m,2} kernel, under every name it is called by, is asked
    # for each index once
    kernel, asked = transseries._row2_ints, []

    def recorded(big_omega, m0, m1):
        asked.append((m0, m1))
        return kernel(big_omega, m0, m1)

    with fresh_caches(), ExitStack() as stack:
        for name, module in list(sys.modules.items()):
            if name.startswith("crosscap.") and \
                    getattr(module, "_row2_ints", None) is kernel:
                stack.enter_context(
                    patch.object(module, "_row2_ints", recorded))
        vk_table(105, 2)
        estimate_stokes("sminus1", 100, 10, 60)
        estimate_stokes("sminus1", 200, 10, 60)
        vk_table(260, 2)
        row2 = transseries.ROWS[2].ints
    indices = sorted(m for m0, m1 in asked for m in range(m0, m1 + 1))
    assert indices == list(range(261)), asked
    assert row2 == convolution_rows()[2][:261]


# SHA-256 prefix of the sminus1 rows and estimates below, as computed when
# each window built its own braces
SMINUS1_SIZES = ((9, (2, 3), 3, 200), (45, (0, 1, 3), 6, 200),
                 (120, (0, 1, 5), 10, 100), (250, (0, 1, 5), 30, 200))
SMINUS1_DIGEST = "5709cc9c3837a974"


def sminus1_digest(estimate_first):
    digest = hashlib.sha256()
    with fresh_caches():
        for n_max, orders, order, dps in SMINUS1_SIZES:
            if estimate_first:
                est = estimate_stokes("sminus1", n_max, order, dps)
            for n, *values in convergence_rows("sminus1", n_max, orders, dps):
                digest.update(repr((n, [x._mpf_ for x in values])).encode())
            if not estimate_first:
                est = estimate_stokes("sminus1", n_max, order, dps)
            digest.update(repr((est.value._mpf_, est.digits)).encode())
    return digest.hexdigest()[:16]


def test_sminus1_values_unchanged():
    assert sminus1_digest(estimate_first=False) == SMINUS1_DIGEST


def test_sminus1_values_unchanged_estimate_first():
    # each estimate's window runs before its rows, on lead and braces it
    # builds per index
    assert sminus1_digest(estimate_first=True) == SMINUS1_DIGEST


# ---------------------------------------------------------------------------
# cached plot text
# ---------------------------------------------------------------------------

def plot_request(name, nmax, dps, fmt="csv"):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.run(["plotdata", name, "--nmax", str(nmax), "--prec",
                        str(dps), "--format", fmt]) == 0
    return out.getvalue()


def plot_reference(name, nmax, dps, fmt):
    """The bytes of a plotdata request, rendered directly from
    ``convergence_rows``."""
    which = "s" if name == "unorquot" else "r"
    rows = [(n, *(mpmath.nstr(x, dps, strip_zeros=True) for x in values))
            for n, *values in convergence_rows(which, nmax, (0, 1, 5), dps)]
    if fmt == "json":
        return json.dumps({"command": "plotdata",
                           "params": {"name": name, "nmax": nmax},
                           "precision": dps,
                           "values": [list(row) for row in rows]}) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, quoting=csv.QUOTE_NONNUMERIC,
                            lineterminator="\n")
        writer.writerow(["n"] + [f"{which}{N}[dps={dps}]" for N in (0, 1, 5)])
        writer.writerows(rows)
        return buf.getvalue()
    return "\n".join([f"# precision: {dps}"]
                     + ["\t".join(map(str, row)) for row in rows]) + "\n"


PLOT_CALLS = [("unorquot", 40, 60), ("firstcorr", 25, 30),
              ("unorquot", 12, 60), ("firstcorr", 70, 200),
              ("unorquot", 70, 60), ("firstcorr", 60, 30),
              ("unorquot", 9, 200), ("firstcorr", 33, 200),
              ("unorquot", 61, 30), ("firstcorr", 8, 60),
              ("unorquot", 70, 200), ("firstcorr", 71, 30)]


def test_plotdata_text_matches_direct_rendering():
    # interleaved requests, nmax growing and shrinking, every format
    with fresh_caches():
        for name, nmax, dps in PLOT_CALLS:
            for fmt in ("table", "json", "csv"):
                assert plot_request(name, nmax, dps, fmt) == \
                    plot_reference(name, nmax, dps, fmt), (name, nmax, dps, fmt)


def test_plotdata_hit_renders_nothing():
    with fresh_caches():
        first = plot_request("unorquot", 40, 60)
        with patch.object(extrapolation, "_nstr",
                          wraps=extrapolation._nstr) as counted:
            assert plot_request("unorquot", 40, 60) == first
            assert plot_request("unorquot", 25, 60, "json") == \
                plot_reference("unorquot", 25, 60, "json")
        assert counted.call_count == 0


def test_growing_plotdata_renders_only_the_new_values():
    with fresh_caches():
        plot_request("firstcorr", 40, 60)
        with patch.object(extrapolation, "_nstr",
                          wraps=extrapolation._nstr) as counted:
            plot_request("firstcorr", 60, 60)
        assert counted.call_count == 3 * 20


# SHA-256 of the README's two plotdata commands (default precision), as
# printed when every transform was its own Horner sum
README_PLOT_DIGESTS = {
    "unorquot": "16a3fcbb3b17b3b27533857bd591b2f5357b7c17a18447d3ec1ac78d73a45edd",
    "firstcorr": "2de211b5aae141d54b97fd9c942ae7c3c21c6606173a8f5a7f761c58eef303ef",
}


@pytest.mark.parametrize("name", sorted(README_PLOT_DIGESTS))
def test_readme_plotdata_bytes_unchanged(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.run(["plotdata", name, "--nmax", "250",
                        "--format", "csv"]) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == \
        README_PLOT_DIGESTS[name]


@pytest.mark.parametrize("argv", [["--nmax", "0"],
                                  ["--nmax", "5", "--prec", "10"]])
def test_rejected_plotdata_creates_no_text_table(argv, capsys):
    with fresh_caches():
        plot_request("unorquot", 10, 40)
        before = dict(extrapolation._TRANSFORM_ROWS)
        assert cli.run(["plotdata", "firstcorr", *argv]) == 2
        assert extrapolation._TRANSFORM_ROWS == before


def test_plotdata_after_rows_prints_the_cached_rounding():
    with fresh_caches():
        convergence_rows("r", 40, (0, 1, 5), 60)
        with patch.object(extrapolation, "_round_run",
                          side_effect=AssertionError("rounded again")):
            text = plot_request("firstcorr", 40, 60)
        assert text == plot_reference("firstcorr", 40, 60, "csv")


def test_convergence_rows_print_nothing():
    with fresh_caches():
        with patch.object(extrapolation, "_nstr",
                          side_effect=AssertionError("printed")):
            convergence_rows("s", 40, (0, 1, 5), 60)
            s_seq(30, 60)
            r_seq(30, 60)


def sminus1_rows_reference(n_max, orders, dps):
    parts = ref_probe("sminus1", 1, n_max + max(orders))
    return [(n, *(ref_round(parts, N, n, dps) for N in orders))
            for n in range(1, n_max + 1)]


# A first build from empty caches, (build, reference), per table graph
# entry point.
FIRST_BUILDS = {
    **{name: (lambda build=build: build(REF_N),
              lambda name=name: reference()[name])
       for name, build in BUILDERS.items()},
    "vpm": (lambda: vpm_lists(VPM_N), vpm_reference),
    "quad": (lambda: quadrangulation_counts(QUAD_N), quad_reference),
    "sminus1_rows": (lambda: convergence_rows("sminus1", 30, (0, 2), 60),
                     lambda: sminus1_rows_reference(30, (0, 2), 60)),
    "plotdata": (lambda: plot_request("firstcorr", 30, 40),
                 lambda: plot_reference("firstcorr", 30, 40, "csv")),
}


@pytest.mark.parametrize("name", FIRST_BUILDS)
def test_first_plotdata_from_empty_caches_finishes(name):
    # a table's grow builds the tables it reads inside the lock it holds,
    # which it takes again for each of them; so the lock must be reentrant,
    # or the first build from empty caches hangs
    build, ref = FIRST_BUILDS[name]
    out = []
    with fresh_caches():
        t = threading.Thread(target=lambda: out.append(build()), daemon=True)
        t.start()
        t.join(timeout=30)
        assert not t.is_alive()
        assert out == [ref()]
