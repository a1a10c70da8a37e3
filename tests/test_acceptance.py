"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured detail (run with ``pytest tests/test_acceptance.py -v -s``).

Criterion 4 is split.  04a checks the digit-agreement claims against the
limits sqrt6 and -1/5, and that each transform is the exact one rounded
once.  04b pins the four order-20/30 transforms at n = 250
to an exact evaluation of the defining formula, and holds four quoted
~30-digit reference strings to the digit counts their source claims.  The
strings came with the first version of this suite; where they were quoted
from is not recorded.  Three of their tails sit 2.2, 176 and 3.4 units of
the last printed digit off the exact transforms, and no single convention
of the transform reproduces them (see the 04b docstring).
"""

import random
import time
from fractions import Fraction
from math import factorial

import mpmath
import pytest

from crosscap.asymptotics import asym_u, asym_v, relative_error
from crosscap.exactnum import QF3, SymConst, rational_to_float
from crosscap.extrapolation import (FloatSeq, estimate_stokes, matched_digits,
                                    probe_richardson, richardson)
from crosscap.sequences import intersection_number, p_of_g, t_of_g, u_seq, v_seq
from crosscap.specgeom import quadrangulation_counts
from crosscap.transseries import seed_v0k, vk_table, vpm_series

DPS = 200


def _report(cid: str, detail: str) -> None:
    print(f"ACCEPTANCE {cid}: PASS ({detail})")


def test_acceptance_01_exact_t_values():
    t0 = time.monotonic()
    assert t_of_g(0) == SymConst(2, pi_half=-1)
    assert t_of_g(1) == SymConst(Fraction(1, 24))
    assert t_of_g(2) == SymConst(Fraction(7, 4320), pi_half=-1)
    dt = time.monotonic() - t0
    assert dt < 1.0
    _report("01", f"t_0, t_1, t_2 symbolically exact in {dt:.3f}s")


def test_acceptance_02_exact_p_values():
    t0 = time.monotonic()
    g199over4 = Fraction(199, 4)
    big_num = int("123887808112935830245933139830914484247202420217195796827"
                  "8854904568087551305256373")
    big_den = 10986030082548950321157435333449889551411576832
    expected = {
        1: SymConst(-2, rad2=1, rad3=1, gamma_arg=Fraction(-1, 4)),
        2: SymConst(Fraction(1, 2)),
        3: SymConst(Fraction(1, 3), rad2=1, rad3=1, gamma_arg=Fraction(1, 4)),
        4: SymConst(Fraction(5, 36), pi_half=-1),
        5: SymConst(Fraction(1033, 1024), rad2=-1, rad3=-1,
                    gamma_arg=Fraction(19, 4)),
        6: SymConst(Fraction(3149, 442368)),
        7: SymConst(Fraction(1599895, 294912), rad2=-1, rad3=-1,
                    gamma_arg=Fraction(29, 4)),
        8: SymConst(Fraction(484667, 560431872), pi_half=-1),
        41: SymConst(Fraction(big_num, big_den), rad2=-1, rad3=-1,
                     gamma_arg=g199over4),
    }
    for twog, want in expected.items():
        assert p_of_g(twog) == want, f"p at twog={twog}"
    dt = time.monotonic() - t0
    assert dt < 5.0
    _report("02", f"first three, next five, and the twog=41 value exact "
                  f"in {dt:.3f}s")


def test_acceptance_03_quadrangulation_counts():
    t0 = time.monotonic()
    counts = quadrangulation_counts(20)
    assert counts[:7] == [5, 38, 331, 3098, 30330, 306276, 3163737]
    assert all(isinstance(c, int) and c > 0 for c in counts)
    dt = time.monotonic() - t0
    assert dt < 5.0
    _report("03", f"c_1..c_7 exact, c_8..c_20 positive integers in {dt:.3f}s")


@pytest.fixture(scope="module")
def transforms_at_250():
    return {key: probe_richardson(key[0], int(key[1:]), 250, DPS).value
            for key in ("s20", "s30", "r20", "r30")}


def test_acceptance_04a_transform_digit_matches(transforms_at_250):
    t0 = time.monotonic()
    with mpmath.workdps(DPS):
        sqrt6 = mpmath.sqrt(6)
        minus_fifth = -mpmath.mpf(1) / 5
    d_s20 = matched_digits(transforms_at_250["s20"], sqrt6, DPS)
    d_s30 = matched_digits(transforms_at_250["s30"], sqrt6, DPS)
    d_r20 = matched_digits(transforms_at_250["r20"], minus_fifth, DPS)
    d_r30 = matched_digits(transforms_at_250["r30"], minus_fifth, DPS)
    assert d_s20 >= 28
    assert d_s30 >= 30
    assert d_r20 >= 26
    assert d_r30 >= 29
    est = estimate_stokes("sprime", n_max=250, order=30, dps=DPS)
    assert est.digits >= 30
    # rounded once: each value within 10^(1 - DPS) of the exact transform
    v = v_seq(280)
    values = dict(transforms_at_250, sprime=est.value)
    worst = 0
    for key, value in values.items():
        probe, order = ("s", 30) if key == "sprime" else (key[0], int(key[1:]))
        exact, _ = _exact_transform(v, probe, order, 250)
        with mpmath.workdps(DPS + 60):
            rel = abs(value / exact - 1)
        assert rel < mpmath.mpf(10) ** (1 - DPS), (key, mpmath.nstr(rel, 3))
        worst = max(worst, rel)
    dt = time.monotonic() - t0
    assert dt < 180
    _report("04a", f"digit matches s20={d_s20} s30={d_s30} (sqrt6), "
                   f"r20={d_r20} r30={d_r30} (-1/5), sprime estimate "
                   f"{est.digits} digits; all within {mpmath.nstr(worst, 2)} "
                   f"of exact; in {dt:.1f}s")


def _exact_transform(v, probe: str, order: int, n: int):
    """Order-``order`` transform of s (probe "s") or r (probe "r") at index n.

    s_m = 2 pi (A/2)^m v_m / Gamma(m) and r_m = m (s_m / sqrt6 - 1) with
    A/2 = 4 sqrt3 / 5.  The weights m^N (-1)^(k+N) / (k! (N-k)!), m = n + k,
    are summed over exact Q(sqrt3) terms; the factor 2 pi (or 2 pi / sqrt6)
    is applied once and the sum rounded once at DPS + 60 digits.  Returns
    the value and the digit count of the weights' cancellation.
    """
    half_action = QF3(0, Fraction(4, 5))
    core, shift, cancel = QF3(0), Fraction(0), Fraction(0)
    for k in range(order + 1):
        m = n + k
        w = Fraction(m ** order * (-1) ** (k + order),
                     factorial(k) * factorial(order - k))
        cancel += abs(w)
        term = w * half_action ** m * v[m] / factorial(m - 1)
        if probe == "r":
            term, shift = term * m, shift + w * m
        core = core + term
    with mpmath.workdps(DPS + 60):
        factor = 2 * mpmath.pi
        if probe == "r":
            factor /= mpmath.sqrt(6)
        value = (factor * core.to_float(DPS + 60)
                 - mpmath.mpf(shift.numerator) / shift.denominator)
    return value, len(str(int(cancel)))


def test_acceptance_04b_reference_digit_strings(transforms_at_250):
    """The four transforms at n = 250: exact pin and quoted digit strings.

    Exact pin: each transform (``probe_richardson``, the CLI's path) agrees
    with ``_exact_transform`` (no crosscap transform code) to within
    10^-(DPS - c - 10), c the cancellation digits (36 at N = 20, 50 at
    N = 30).  Measured gaps at DPS = 200: 1.3e-201 (s20), 1.2e-201 (s30),
    4.2e-203 (r20), 1.0e-202 (r30); 04a holds them to 10^(1 - DPS)
    relative.  The same transform taken at n = 249 or at order 21 is 4e-32
    to 2e-27 away and fails.

    Quoted strings: each must match the computed value to the digit count
    its source claims for that estimate, the counts 04a holds against the
    limits: 28 (s20), 30 (s30), 26 (r20), 29 (r30).  Their last printed
    digits are not reproducible: the exact tails differ by 2.2 (s20), 176
    (r20) and 3.4 (r30) units of the last printed digit.  Over orders
    10..40 and indices 220..310, the s20 string is matched at order 20
    only at n = 247-248, the r30 string at order 30 only at n = 249, and the
    r20 string (exact value -0.20000000000000000000000000134443...) by no
    order at any index; index shifts of +-1 or +-2, or (n + a) in place of n
    in r_n, give a different convention for each string.  Nor does one
    input precision explain both tails: r30's 3.4e-30 offset under ~10^50
    cancellation bounds shared input noise near 1e-80, which would leave
    the order-20 tails within ~1e-44, not 2e-29 or 1.8e-28.  The cause in
    the reference computation is unknown.
    """
    printed = {  # quoted string, digits its source claims for the estimate
        "s20": ("2.44948974278317809819728407459", 28),
        "s30": ("2.44948974278317809819728407471", 30),
        "r20": ("-0.200000000000000000000000001520", 26),
        "r30": ("-0.200000000000000000000000000002", 29),
    }
    v = v_seq(280)
    gaps, matched = {}, {}
    for key, (text, claimed) in printed.items():
        exact, cancel_digits = _exact_transform(v, key[0], int(key[1:]), 250)
        with mpmath.workdps(DPS + 60):
            gaps[key] = abs(transforms_at_250[key] - exact)
            tol = mpmath.mpf(10) ** -(DPS - cancel_digits - 10)
        assert gaps[key] < tol, (key, mpmath.nstr(gaps[key], 3))
        with mpmath.workdps(DPS):
            matched[key] = matched_digits(transforms_at_250[key],
                                          mpmath.mpf(text), DPS)
        assert matched[key] >= claimed, (key, matched[key], claimed)
    _report("04b", "quoted strings matched to " + ", ".join(
        f"{k}={matched[k]}/{printed[k][1]}" for k in printed)
        + " digits; exact-transform gaps " + ", ".join(
        f"{k}={mpmath.nstr(gaps[k], 2)}" for k in printed))


def test_acceptance_05_vpm_and_factorization():
    def over_sqrt3(num, den):
        return QF3(0, Fraction(num, 3 * den))

    plus, minus = vpm_series(10)
    expected_plus = [over_sqrt3(1, 2), QF3(0), over_sqrt3(5, 192),
                     QF3(Fraction(-25, 1152)), over_sqrt3(3149, 36864),
                     QF3(Fraction(-15995, 110592))]
    expected_minus = [QF3(1), over_sqrt3(-1, 4), QF3(Fraction(-1, 24)),
                      over_sqrt3(-1459, 11520), QF3(Fraction(-5429, 34560)),
                      over_sqrt3(-114343, 138240)]
    for e in range(6):
        assert plus.coefficient(e) == expected_plus[e], e
        assert minus.coefficient(e) == expected_minus[e], e

    order = 10
    table = vk_table(order, 4)
    v = v_seq(order)

    def conv(xs, ys, m):
        return sum((xs[i] * ys[m - i] for i in range(m + 1)), QF3(0))

    p = [plus.coefficient(e) for e in range(order + 1)]
    m_ = [minus.coefficient(e) for e in range(order + 1)]
    v0 = [v[n] if n >= 2 else QF3(0) for n in range(order + 1)]
    g = [QF3(1) if j == 0 else -conv(p, v0, j) for j in range(order + 1)]
    for k in (3, 4):
        power = [QF3(1)] + [QF3(0)] * order
        for _ in range(k - 1):
            power = [conv(power, p, j) for j in range(order + 1)]
        for _ in range(k):
            power = [conv(power, m_, j) for j in range(order + 1)]
        rhs = [conv(power, g, j) * (-1) ** (k - 1) for j in range(order + 1)]
        for n in range(order + 1):
            assert table.value(n, k) == rhs[n], (k, n)
    _report("05", "known coefficients through x^-5 and the k=3,4 "
                  "factorization identity exact through order 10")


def test_acceptance_06_v0k_closed_form():
    # independent route: the leading-order constraint of the sector ODEs
    # v_{0,k} = -(1/(2 sqrt3 (k-1))) sum_{i=1}^{k-1} v_{0,i} v_{0,k-i}
    inv = QF3(0, 2).inverse()
    derived = [None, QF3(1)]
    for k in range(2, 21):
        acc = sum((derived[i] * derived[k - i] for i in range(1, k)), QF3(0))
        derived.append(-inv * acc / (k - 1))
    table = vk_table(0, 20)
    for k in range(2, 21):
        closed = seed_v0k(k)
        assert closed == derived[k], k
        assert table.value(0, k) == closed, k
    _report("06", "closed form matches the sector-ODE leading order and the "
                  "table for k = 2..20")


def test_acceptance_07_asymptotics_properties():
    t0 = time.monotonic()
    dps = 60
    v = v_seq(250)
    for n in range(30, 251):
        err = relative_error(asym_v(n, 0, dps), v[n], dps)
        assert err * n < 3, n
    v100 = v[100]
    errs = [relative_error(asym_v(100, L, dps), v100, dps) for L in range(6)]
    assert all(errs[i + 1] < errs[i] for i in range(5))
    assert errs[5] < mpmath.mpf("1e-8")
    u = u_seq(100)
    for n in range(20, 101):
        err = relative_error(asym_u(n, 2, dps), u[n], dps)
        assert err * n < 10, n
    dt = time.monotonic() - t0
    _report("07", f"v-sector 3/n bound on 30..250, L-monotone with "
                  f"{mpmath.nstr(errs[5], 3)} at L=5, u-sector 10/n bound "
                  f"on 20..100 in {dt:.1f}s")


def _exact_sminus1(n: int, order: int):
    """estimate_stokes("sminus1", n, order) from its definition, the order-N
    transform at n of (-1)^m [2 pi lam^m v_{m,2} / Gamma(m) - 3 sqrt6 B_m],
    B_m = sum_{l <= min(m//2, (n+N)//2, m-1)} v_{l,3} lam^l / prod_{j<=l}
    (m - j), lam = 4 sqrt3 / 5: two exact Q(sqrt3) sums, combined once at
    DPS + 100 digits since the two parts cancel ~17 digits."""
    lam = QF3(0, Fraction(4, 5))
    top = n + order
    table = vk_table(top, 3)
    lead, brace = QF3(0), QF3(0)
    for k in range(order + 1):
        m = n + k
        w = Fraction((-1) ** (k + order + m) * m ** order,
                     factorial(k) * factorial(order - k))
        lead = lead + w * lam ** m * table.value(m, 2) / factorial(m - 1)
        prod = 1
        for l in range(min(m // 2, top // 2, m - 1) + 1):
            prod *= m - l if l else 1
            brace = brace + w * table.value(l, 3) * lam ** l / prod
    with mpmath.workdps(DPS + 100):
        return (2 * mpmath.pi * lead.to_float(DPS + 100)
                - 3 * mpmath.sqrt(6) * brace.to_float(DPS + 100))


def test_acceptance_08_s_minus1_estimate():
    t0 = time.monotonic()
    est = estimate_stokes("sminus1", n_max=100, order=10, dps=DPS)
    assert est.digits >= 6
    exact = _exact_sminus1(100, 10)
    with mpmath.workdps(DPS + 100):
        rel = abs(est.value / exact - 1)
    assert rel < mpmath.mpf(10) ** (1 - DPS), mpmath.nstr(rel, 3)
    dt = time.monotonic() - t0
    assert dt < 300
    _report("08", f"-sqrt6/12 matched to {est.digits} digits, "
                  f"{mpmath.nstr(rel, 2)} from exact, in {dt:.1f}s")


def test_acceptance_09_richardson_polynomial_exactness():
    rng = random.Random(2024)
    dps = DPS
    orders = (1, 5, 10)
    for trial in range(100):
        order = orders[trial % 3]
        coeffs = [Fraction(rng.randint(-60, 60), rng.randint(1, 30))
                  for _ in range(order + 1)]
        start = rng.randint(1, 12)
        length = order + rng.randint(1, 6)
        with mpmath.workdps(dps):
            vals = tuple(rational_to_float(
                sum(c / Fraction(n) ** j for j, c in enumerate(coeffs)), dps)
                for n in range(start, start + length + 1))
        seq = FloatSeq(start, vals, dps)
        n_eval = start + length - order
        res = richardson(seq, order, n_eval)
        cancel = sum(Fraction((n_eval + k) ** order,
                              factorial(k) * factorial(order - k))
                     for k in range(order + 1))
        with mpmath.workdps(dps + 10):
            scale = max(1, max(abs(x) for x in vals))
            tol = 10 * mpmath.mpf(int(cancel) + 1) * mpmath.mpf(10) ** -dps * scale
            err = abs(res.value - rational_to_float(coeffs[0], dps + 10))
            assert err < tol, (trial, order)
    _report("09", "constant term recovered for 100 random 1/n-polynomials "
                  "at N in {1, 5, 10}")


def test_acceptance_10_intersection_number():
    assert intersection_number(2) == Fraction(7, 240)
    _report("10", "<sigma_2^3>_2 = 7/240 exact")
