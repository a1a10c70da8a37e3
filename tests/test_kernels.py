"""The scaled-integer recursions against a QF3 reference, path independence
of the cached tables, the parity invariant, and concurrent cache builds.

The reference functions below are the recursions written directly over
``Fraction``/``QF3``; the library runs the same recursions on scaled
integers and must reproduce them entry for entry.
"""

import sys
import threading
from contextlib import contextmanager
from fractions import Fraction
from functools import cache
from unittest.mock import patch

from hypothesis import given, settings, strategies as st

from crosscap import sequences, transseries
from crosscap.exactnum import QF3
from crosscap.sequences import u_seq, v_seq
from crosscap.transseries import mu_seq, nu_seq, vk_table

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
    """Empty stand-ins for every module-level table, for one block."""
    with patch.object(sequences, "_U", []), patch.object(sequences, "_V", []), \
            patch.object(transseries, "_MU", []), \
            patch.object(transseries, "_NU", []), \
            patch.object(transseries, "_VK_EXTRA", []):
        yield


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
            [vk_table(n, 3).row(k) for k in range(4)]

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
