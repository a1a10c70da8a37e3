import ast
import pathlib
from fractions import Fraction
from math import factorial, prod

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from crosscap import asymptotics, transseries
from crosscap.asymptotics import (HALF_ACTION, INSTANTON_ACTION, asym_u,
                                  asym_v, asym_vk, relative_error)
from crosscap.exactnum import QF3, SQRT3, SymConst, round_sum
from crosscap.sequences import _brace, u_seq, v_seq
from crosscap.transseries import mu_seq, nu_seq, vk_table

DPS = 60


def test_imports_nothing_from_extrapolation():
    # both float layers sit on the table layer, so extrapolation may read
    # the expansions without an import cycle
    tree = ast.parse(pathlib.Path(asymptotics.__file__).read_text("utf-8"))
    sources = [node.module or "" for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)]
    sources += [alias.name for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names]
    assert not any("extrapolation" in name for name in sources), sources
    assert "sequences" in sources


def test_action_square_is_192_over_25():
    assert INSTANTON_ACTION * INSTANTON_ACTION == QF3(Fraction(192, 25))
    assert HALF_ACTION * 2 == INSTANTON_ACTION


class TestAsymU:
    def test_negative_for_all_n(self):
        for n in (1, 2, 5, 17, 60):
            assert asym_u(n, 0, DPS) < 0

    def test_leading_order_error_at_20(self):
        err = relative_error(asym_u(20, 0, DPS), u_seq(20)[20], DPS)
        assert err < 1 / (2 * 20 - 0.5)

    def test_error_decreases_with_truncation_order(self):
        u20 = u_seq(20)[20]
        errs = [relative_error(asym_u(20, L, DPS), u20, DPS) for L in range(6)]
        assert all(errs[i + 1] < errs[i] for i in range(5))

    def test_order_two_tracks_exact(self):
        u = u_seq(100)
        for n in range(20, 101, 5):
            err = relative_error(asym_u(n, 2, DPS), u[n], DPS)
            assert err * n < 10, n

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            asym_u(0, 0, DPS)
        with pytest.raises(ValueError):
            asym_u(5, -1, DPS)


@pytest.mark.parametrize("special", ["inf", "-inf", "nan"])
def test_relative_error_rejects_special_values(special):
    with pytest.raises(ValueError, match="rational"):
        relative_error(mpmath.mpf(special), 3, 40)


def test_relative_error_rejects_an_exact_zero():
    for zero in (0, Fraction(0), QF3(0)):
        with pytest.raises(ZeroDivisionError, match="exact 0"):
            relative_error(mpmath.mpf(1), zero, 40)


@pytest.mark.parametrize("approx", [2.0, 2])
def test_relative_error_rejects_python_numbers(approx):
    with pytest.raises(TypeError, match=type(approx).__name__):
        relative_error(approx, 3, 40)


class TestAsymV:
    def test_leading_order_error_at_100(self):
        err = relative_error(asym_v(100, 0, DPS), v_seq(100)[100], DPS)
        assert err < 0.05

    def test_order_five_error_at_100(self):
        v100 = v_seq(100)[100]
        errs = [relative_error(asym_v(100, L, DPS), v100, DPS) for L in range(6)]
        assert all(errs[i + 1] < errs[i] for i in range(5))
        assert errs[5] < mpmath.mpf("1e-8")
        print(f"asym_v(100, 5) relative error: {mpmath.nstr(errs[5], 5)}")

    def test_zero_denominator_guard(self):
        with pytest.raises(ValueError):
            asym_v(3, 3, DPS)

    def test_optimal_truncation_moves_right(self):
        def argmin_L(n):
            vn = v_seq(n)[n]
            errs = [relative_error(asym_v(n, L, DPS), vn, DPS)
                    for L in range(min(36, n))]
            return min(range(len(errs)), key=errs.__getitem__)
        assert argmin_L(40) < argmin_L(120)


class TestAsymVk:
    def test_k0_reduces_to_asym_v(self):
        for (n, L) in ((37, 4), (60, 0), (25, 7)):
            assert asym_vk(0, n, L, DPS) == asym_v(n, L, DPS)

    def test_k1_has_no_back_term(self):
        # k-1 = 0 kills the back-propagating term; the value is then the
        # forward piece with doubled sector factor
        val = asym_vk(1, 30, 2, DPS)
        assert mpmath.isfinite(val)

    def test_leading_order_error_k2(self):
        table = vk_table(60, 2)
        err = relative_error(asym_vk(2, 60, 0, DPS), table.value(60, 2), DPS)
        assert err * 60 < 2

    def test_residual_alternates_in_sign(self):
        # remove the forward part of the k = 2 asymptotics; what is left is
        # carried by (-lambda)^(-n) and must alternate
        from math import factorial

        table = vk_table(60, 3)
        row3 = table.row(3)
        with mpmath.workdps(DPS):
            three_sqrt6 = 3 * mpmath.sqrt(6)
            signs = []
            for n in range(40, 61):
                lead = 2 * mpmath.pi * ((HALF_ACTION ** n) * table.value(n, 2)
                                        * Fraction(1, factorial(n - 1))).to_float(DPS)
                cut = n // 2
                acc, power, prod = QF3(0), QF3(1), Fraction(1)
                for l in range(cut + 1):
                    if l:
                        prod *= n - l
                    acc = acc + row3[l] * power / prod
                    power = power * HALF_ACTION
                w = lead - three_sqrt6 * acc.to_float(DPS)
                signs.append(1 if w > 0 else -1)
        assert signs == [(-1) ** (n + 1) for n in range(40, 61)]

    def test_k3_uses_both_directions(self):
        # at k = 3 the forward (row 4) and back-propagating (row 2) pieces
        # both contribute; accuracy should still be O(1/n) at L = 0 and
        # improve sharply with L
        table = vk_table(60, 3)
        err0 = relative_error(asym_vk(3, 60, 0, DPS), table.value(60, 3), DPS)
        err3 = relative_error(asym_vk(3, 60, 3, DPS), table.value(60, 3), DPS)
        assert err0 * 60 < 3
        assert err3 < mpmath.mpf("1e-7")

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            asym_vk(-1, 10, 0, DPS)
        with pytest.raises(ValueError):
            asym_vk(2, 10, 10, DPS)
        with pytest.raises(ValueError, match="n must be >= 1"):
            asym_vk(2, 0, 0, DPS)
        with pytest.raises(ValueError, match="L must be >= 0"):
            asym_vk(2, 10, -1, DPS)


@settings(max_examples=15, deadline=None)
@given(n=st.integers(30, 200))
def test_truncation_error_falls(n):
    # the expansions are asymptotic to all orders: through L = 6 each added
    # term helps for u, v and v_{n,1}; for k = 2, 3 the two directions'
    # errors need not fall monotonically, only overall
    table = vk_table(n, 3)
    cases = {"u": (lambda L: asym_u(n, L, DPS), u_seq(n)[n]),
             "v": (lambda L: asym_v(n, L, DPS), v_seq(n)[n])}
    for k in (1, 2, 3):
        cases[f"vk{k}"] = (lambda L, k=k: asym_vk(k, n, L, DPS),
                           table.value(n, k))
    for name, (approx, exact) in cases.items():
        errs = [relative_error(approx(L), exact, DPS) for L in range(7)]
        if name in ("vk2", "vk3"):
            assert errs[6] < mpmath.mpf("1e-4") * errs[0], (name, n)
        else:
            assert all(errs[L + 1] < errs[L] for L in range(6)), (name, n)


def first_omitted(coeffs, action, L, step):
    """|coeffs[L+1] action^(L+1) / prod_{m<=L+1} step(m)| relative to the
    brace's lead coeffs[0]: the first term a truncation at L leaves out."""
    term = coeffs[L + 1] * action ** (L + 1) \
        / prod(step(m) for m in range(1, L + 2)) / coeffs[0]
    return abs(term.to_float(DPS))


@settings(max_examples=15, deadline=None)
@given(n=st.integers(30, 200))
def test_truncation_error_is_first_omitted_term(n):
    # for u, v and v_{n,1}, one direction only, the error of the L-term
    # expansion is the first omitted term up to a factor of 2 (over all of
    # n in [30, 200], L <= 6 the ratio spans 0.83-1.86); at k = 2, 3 both
    # directions contribute and test_truncation_error_falls covers them
    mu, nu, row2 = mu_seq(7), nu_seq(7), vk_table(7, 2).row(2)
    cases = {
        "u": (lambda L: asym_u(n, L, DPS), u_seq(n)[n], mu, INSTANTON_ACTION,
              lambda m: Fraction(4 * n - 1 - 2 * m, 2)),
        "v": (lambda L: asym_v(n, L, DPS), v_seq(n)[n], nu, HALF_ACTION,
              lambda m: Fraction(n - m)),
        "vk1": (lambda L: asym_vk(1, n, L, DPS), nu_seq(n)[n], row2,
                HALF_ACTION, lambda m: Fraction(n - m)),
    }
    for name, (approx, exact, coeffs, action, step) in cases.items():
        for L in range(7):
            ratio = relative_error(approx(L), exact, DPS) \
                / first_omitted(coeffs, action, L, step)
            assert 0.5 < ratio < 2, (name, n, L, ratio)


def smallest_term(big, top, step):
    """(L*, |t_L*|) for the brace sum_{l<=top} t_l, t_l = big[l] /
    (step(1) ... step(l)): its smallest term, relative to its first."""
    best, den = (0, Fraction(1)), 1
    for l in range(1, top + 1):
        den *= step(l)
        term = Fraction(abs(big[l]), den * abs(big[0]))
        if term < best[1]:
            best = (l, term)
    return best


def error_over_smallest_term(approx, exact, term, dps):
    return relative_error(approx, exact, dps) * term.denominator \
        / term.numerator


def dps_for(term):
    return (term.denominator.bit_length() - term.numerator.bit_length()) \
        * 3 // 10 + 30


# log2 of |relative error| / smallest term at L = L*, as measured over
# every n in [40, 300]: for v_{n,k}, k = 0..5, -2.03 (k = 0, odd n) to
# 4.48 (k = 5, n = 42); for u, -7.68 (n = 299; odd n fall as about 1/n) to
# -1.002 (even n, rising to 1/2 from below).
ALL_ORDERS_BAND = {"vk": (-3, 5), "u": (-8, -1)}


@settings(max_examples=25, deadline=None)
@given(k=st.integers(0, 5), n=st.integers(40, 300))
def test_vk_optimal_truncation_error_is_smallest_term(k, n):
    # the expansion of every sector, truncated at the forward brace's
    # smallest term, misses v_{n,k} by about that term
    L, term = smallest_term(transseries._row(k + 1).grown(n - 1), n - 1,
                            lambda m: 50 * m * (n - m))
    dps = dps_for(term)
    ratio = error_over_smallest_term(asym_vk(k, n, L, dps),
                                     vk_table(n, k).value(n, k), term, dps)
    lo, hi = ALL_ORDERS_BAND["vk"]
    assert 2 ** lo < ratio < 2 ** hi, (k, n, L, ratio)


@settings(max_examples=10, deadline=None)
@given(n=st.integers(40, 300))
def test_u_optimal_truncation_error_is_smallest_term(n):
    L, term = smallest_term(transseries.MU.grown(2 * n - 1), 2 * n - 1,
                            lambda m: 100 * m * (4 * n - 1 - 2 * m))
    dps = dps_for(term)
    ratio = error_over_smallest_term(asym_u(n, L, dps), u_seq(n)[n], term, dps)
    lo, hi = ALL_ORDERS_BAND["u"]
    assert 2 ** lo < ratio < 2 ** hi, (n, L, ratio)


# ---------------------------------------------------------------------------
# QF3 references: the braces summed term by term in Q(sqrt3)
# ---------------------------------------------------------------------------

def ref_brace(coeffs, action_power, L, denom_step):
    """coeffs[0] + sum_{l=1}^{L} coeffs[l] action^l / prod_{m=1}^{l} denom_step(m)."""
    acc = coeffs[0]
    power = QF3(1)
    denom = Fraction(1)
    for l in range(1, L + 1):
        power = power * action_power
        denom *= denom_step(l)
        acc = acc + coeffs[l] * power / denom
    return acc


def ref_asym_u(n, L, dps):
    brace = ref_brace(mu_seq(L), INSTANTON_ACTION, L,
                      lambda m: Fraction(4 * n - 1 - 2 * m, 2))
    # Gamma(2n - 1/2) / sqrt(pi), the inverse of 1/Gamma's coefficient
    g = 1 / SymConst(1, gamma_arg=Fraction(4 * n - 1, 2)).coeff
    return round_sum((brace * (Fraction(25, 192) ** n * g / 5)).parts(-1, -1, 30),
                     dps)


def ref_times_sqrt6_over_pi(z, n, dps):
    exact = HALF_ACTION ** (-n) * z * factorial(n - 1)
    return round_sum(exact.parts(1, -1, 6), dps)


def ref_asym_v(n, L, dps):
    brace = ref_brace(nu_seq(L), HALF_ACTION, L, lambda m: Fraction(n - m))
    return ref_times_sqrt6_over_pi(brace / 2, n, dps)


def ref_asym_vk(k, n, L, dps):
    table = vk_table(L, k + 1)
    fwd = ref_brace(table.row(k + 1), HALF_ACTION, L, lambda m: Fraction(n - m))
    z = fwd * Fraction(k + 1, 2)
    if k >= 2:
        back = ref_brace(table.row(k - 1), -HALF_ACTION, L,
                         lambda m: Fraction(n - m))
        z = z - back * Fraction((k - 1) * (-1) ** n, 24)
    return ref_times_sqrt6_over_pi(z, n, dps)


GRID_N = (1, 2, 3, 7, 30, 61, 100, 201)
GRID_L = (0, 1, 2, 5, 20, 60)


@pytest.mark.parametrize("dps", (30, 60, 200))
def test_evaluators_match_reference_bit_for_bit(dps):
    for n in GRID_N:
        for L in GRID_L:
            assert asym_u(n, L, dps)._mpf_ == ref_asym_u(n, L, dps)._mpf_, (n, L)
            if L < n:
                assert asym_v(n, L, dps)._mpf_ == ref_asym_v(n, L, dps)._mpf_
                for k in range(5):
                    assert (asym_vk(k, n, L, dps)._mpf_
                            == ref_asym_vk(k, n, L, dps)._mpf_), (k, n, L)


@pytest.mark.parametrize("k", range(1, 5))
def test_row_brace_is_the_qf3_sum(k):
    # (2 sqrt3)^(k-1) sum_{l<=L} v_{l,k} (+-A/2)^l / prod_{m<=l} (n-m) is
    # the brace of row k's integers with step +-50 m (n-m), for every L
    row = vk_table(60, k).row(k)
    scale = (2 * SQRT3) ** (k - 1)
    for sign in (1, -1):
        for n in GRID_N:
            acc, power, denom = QF3(0), QF3(1), Fraction(1)
            for L in range(min(60, n - 1) + 1):
                if L:
                    power = power * (sign * HALF_ACTION)
                    denom *= n - L
                acc = acc + row[L] * power / denom
                brace = Fraction(*_brace(transseries.ROWS[k].ints, L,
                                         lambda m: sign * 50 * m * (n - m)))
                assert scale * acc == brace, (sign, n, L)


def test_sminus1_brace_is_the_qf3_sum():
    # the S_-1 probe's B_m = sum_{l<=m/2} v_{l,3} (A/2)^l / ((m-1)...(m-l))
    # is the k = 3 row brace at n = m, L = m//2, over 12
    row3 = vk_table(60, 3).row(3)
    for m in range(1, 121):
        plain = ref_brace(row3, HALF_ACTION, m // 2, lambda l: Fraction(m - l))
        brace = Fraction(*_brace(transseries.ROWS[3].ints, m // 2,
                                 lambda l: 50 * l * (m - l)))
        assert plain == brace / 12, m
