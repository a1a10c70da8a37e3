import copy
import pickle
import random
import warnings
from fractions import Fraction
from math import factorial

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from crosscap import extrapolation
from crosscap.exactnum import QF3, SymConst, rational_to_float
from crosscap.extrapolation import (FloatSeq, PrecisionWarning,
                                    RichardsonResult, StokesEstimate, _weights,
                                    estimate_stokes, matched_digits,
                                    probe_richardson, r_seq, richardson, s_seq,
                                    convergence_rows)


def make_seq(values, dps, start=1):
    with mpmath.workdps(dps):
        vals = tuple(+v for v in values)
    return FloatSeq(start, vals, dps)


class TestProbeSequences:
    def test_s1_closed_form(self):
        seq = s_seq(3, 50)
        with mpmath.workdps(50):
            ref = 2 * mpmath.pi * mpmath.sqrt(3) / 5
            assert abs(seq[1] - ref) < mpmath.mpf("1e-45")

    def test_s_monotone_approach_to_sqrt6(self):
        seq = s_seq(250, 60)
        with mpmath.workdps(60):
            target = mpmath.sqrt(6)
            devs = [abs(seq[n] - target) for n in range(50, 251)]
        assert all(b < a for a, b in zip(devs, devs[1:]))

    def test_r_limit_window(self):
        seq = r_seq(250, 60)
        assert abs(seq[250] + mpmath.mpf("0.2")) < 0.01

    def test_index_bounds(self):
        seq = s_seq(10, 40)
        with pytest.raises(IndexError):
            seq[0]
        with pytest.raises(IndexError):
            seq[11]

    def test_iterates_over_its_values(self):
        seq = s_seq(5, 30)
        assert list(seq) == [seq[n] for n in range(seq.start, seq.last + 1)]
        assert len(seq) == len(list(seq)) == 5
        assert all(seq[n] in seq for n in range(1, 6))


class TestRichardson:
    def test_constant_sequence_fixed(self):
        dps = 60
        with mpmath.workdps(dps):
            values = [mpmath.mpf(3) / 7] * 24
        seq = make_seq(values, dps)
        for order, n in ((0, 1), (3, 5), (10, 11)):
            res = richardson(seq, order, n)
            with mpmath.workdps(dps):
                assert abs(res.value - mpmath.mpf(3) / 7) < mpmath.mpf(10) ** (8 - dps)

    def test_annihilates_one_over_n(self):
        dps = 60
        a, b = Fraction(5, 3), Fraction(-7, 11)
        vals = [rational_to_float(a + b / n, dps) for n in range(1, 30)]
        seq = make_seq(vals, dps)
        res = richardson(seq, 1, 12)
        with mpmath.workdps(dps):
            assert abs(res.value - rational_to_float(a, dps)) < mpmath.mpf(10) ** (10 - dps)

    def test_polynomial_exactness_random(self):
        # order-N transform recovers the constant of any poly in 1/n of
        # degree <= N, up to the data-rounding amplified by the weight sum
        rng = random.Random(101)
        dps = 80
        for _ in range(25):
            order = rng.choice((1, 5, 10))
            coeffs = [Fraction(rng.randint(-50, 50), rng.randint(1, 20))
                      for _ in range(order + 1)]
            start = rng.randint(1, 10)
            length = order + rng.randint(1, 8)
            vals = [rational_to_float(
                        sum(c / Fraction(n) ** j for j, c in enumerate(coeffs)),
                        dps)
                    for n in range(start, start + length + 1)]
            seq = make_seq(vals, dps, start=start)
            n_eval = start + length - order
            res = richardson(seq, order, n_eval)
            cancel = sum(
                Fraction((n_eval + k) ** order,
                         _fact(k) * _fact(order - k)) for k in range(order + 1))
            with mpmath.workdps(dps + 10):
                tol = 10 * mpmath.mpf(int(cancel) + 1) * mpmath.mpf(10) ** -dps \
                    * max(1, max(abs(v) for v in vals))
                assert abs(res.value - rational_to_float(coeffs[0], dps + 10)) < tol

    def test_transformed_prefix(self):
        # row n of the convergence rows is the point transform at n
        for which in ("s", "r"):
            rows = convergence_rows(which, n_max=30, orders=(0, 5), dps=50)
            assert [row[0] for row in rows] == list(range(1, 31))
            for n in (1, 12, 30):
                assert rows[n - 1][2] == probe_richardson(which, 5, n, 50).value
                assert rows[n - 1][1] == probe_richardson(which, 0, n, 50).value

    def test_insufficient_length(self):
        seq = s_seq(20, 40)
        with pytest.raises(ValueError):
            richardson(seq, 10, 15)

    @pytest.mark.parametrize("values", [(1.0, 2.0, 3.0), (1, 2, 3)])
    def test_rejects_python_numbers(self, values):
        with pytest.raises(TypeError, match=type(values[0]).__name__):
            richardson(FloatSeq(1, values, 30), 1, 1)

    def test_precision_warning(self):
        seq = s_seq(80, 40)
        with pytest.warns(PrecisionWarning, match="only 15 guard digits"):
            richardson(seq, 20, 60)

    def test_identity_transform_loses_no_digit(self):
        # order 0 has sum |w| = N! = 1: no digit lost, so no warning at 30
        with warnings.catch_warnings():
            warnings.simplefilter("error", PrecisionWarning)
            res = richardson(FloatSeq(1, (mpmath.mpf(2),), 30), 0, 1)
        assert res.value == 2

    def test_precision_scaling(self):
        vals = {}
        for dps in (60, 120):
            res = richardson(s_seq(60, dps), 5, 50)
            vals[dps] = mpmath.nstr(res.value, 20)
        assert vals[60] == vals[120]


def _fact(k):
    out = 1
    for i in range(2, k + 1):
        out *= i
    return out


class TestDigitMonotonicity:
    def test_matched_digits_nondecreasing_in_order(self):
        # at the n = 250 / 200-digit setup; smaller n puts order 30 past
        # its optimum and the property genuinely breaks there
        dps = 200
        seq = s_seq(280, dps)
        with mpmath.workdps(dps):
            target = mpmath.sqrt(6)
        counts = [matched_digits(richardson(seq, N, 250).value, target, dps)
                  for N in (0, 1, 5, 10, 20, 30)]
        assert all(b >= a for a, b in zip(counts, counts[1:])), counts


class TestReproducibility:
    def test_bit_for_bit(self):
        seq = s_seq(50, 60)
        a = richardson(seq, 8, 40)
        b = richardson(seq, 8, 40)
        assert a.value == b.value
        again = richardson(s_seq(50, 60), 8, 40)
        assert again.value == a.value


class TestMatchedDigits:
    def test_basic(self):
        with mpmath.workdps(50):
            a = mpmath.mpf("2.449489742783")
            b = mpmath.sqrt(6)
        assert 12 <= matched_digits(a, b, 50) <= 14

    def test_exact_match_caps_at_dps(self):
        with mpmath.workdps(30):
            x = mpmath.mpf(7) / 3
        assert matched_digits(x, x, 30) == 30

    def test_zero_target_raises_with_a_message(self):
        with pytest.raises(ZeroDivisionError, match="target of 0"):
            matched_digits(mpmath.mpf(1), mpmath.mpf(0), 30)

    @pytest.mark.parametrize("special", ["inf", "-inf", "nan"])
    def test_rejects_special_values(self, special):
        with pytest.raises(ValueError):
            matched_digits(mpmath.mpf(special), mpmath.mpf(2), 30)
        with pytest.raises(ValueError):
            matched_digits(mpmath.mpf(3), mpmath.mpf(special), 30)


def log10_digits(value, target, dps: int) -> int:
    """matched_digits by its earlier formula, floor(1 - log10(2 rel)) at
    dps digits: the reference for the exact integer comparison."""
    with mpmath.workdps(dps):
        rel = abs(mpmath.mpf(value) / mpmath.mpf(target) - 1)
        if rel == 0:
            return dps
        k = int(mpmath.floor(1 - mpmath.log10(2 * rel)))
    return max(0, min(k, dps))


# (which, n, order, dps) of every fixed estimate_stokes call in the tests
TESTS_ESTIMATES = [
    ("sprime", 80, 10, 80), ("sminus1", 60, 6, 80), ("sminus1", 30, 6, 40),
    ("sminus1", 60, 8, 60), ("sminus1", 50, 10, 60), ("sprime", 250, 30, 200),
    ("sminus1", 100, 10, 200), ("sminus1", 9, 3, 200), ("sminus1", 45, 6, 200),
    ("sminus1", 120, 10, 100), ("sminus1", 250, 30, 200)]
# (which, n, order) of the benchmark's stokes workload and of a session's
# stokes requests, their n growing in 14 steps to half the README example's
REQUEST_GRID = [("sprime", 250, 30), ("sminus1", 100, 10)] + [
    (which, -(-top * j // 14), order)
    for which, top, order in (("sprime", 125, 30), ("sminus1", 50, 10))
    for j in range(1, 15)]


class TestMatchedDigitsAgainstLog10:
    def test_estimates_in_the_tests(self):
        for which, n, order, dps in TESTS_ESTIMATES:
            est = estimate_stokes(which, n, order, dps)
            assert est.digits == log10_digits(est.value, est.target, dps)
        with mpmath.workdps(200):
            targets = {"s": mpmath.sqrt(6), "r": -mpmath.mpf(1) / 5}
        for probe, target in targets.items():
            for order in (0, 1, 5, 10, 20, 30):
                value = probe_richardson(probe, order, 250, 200).value
                assert matched_digits(value, target, 200) == \
                    log10_digits(value, target, 200), (probe, order)

    @pytest.mark.parametrize("dps", [30, 60, 200])
    def test_request_grids(self, dps):
        for which, n, order in REQUEST_GRID:
            est = estimate_stokes(which, n, order, dps)
            assert est.digits == log10_digits(est.value, est.target, dps), \
                (which, n, order)

    @pytest.mark.parametrize("value, target", [
        (3, 2), (1, 2), (6, 1), (-4, 1), (11, 10), (101, 100), (1, 3), (2, 3)])
    def test_at_powers_of_ten(self, value, target):
        # 2 rel = 1, 10, 0.2, ...: exact dyadic boundaries
        for dps in (30, 200):
            assert matched_digits(value, target, dps) == \
                log10_digits(value, target, dps)

    @settings(max_examples=300, deadline=None)
    @given(dps=st.integers(30, 400), num=st.integers(1, 10 ** 60),
           den=st.integers(1, 10 ** 60), negative=st.booleans(),
           kind=st.sampled_from(["exact", "ulps", "near"]),
           ulps=st.integers(-6, 6), lead=st.integers(-99, 99),
           power=st.integers(0, 410))
    def test_near_and_at_the_target(self, dps, num, den, negative, kind,
                                    ulps, lead, power):
        with mpmath.workdps(dps):
            target = mpmath.mpf(-num if negative else num) / den
        man, exp = target.man_exp
        ulp = mpmath.ldexp(1, exp + man.bit_length()
                           - mpmath.libmp.dps_to_prec(dps))
        with mpmath.workdps(2 * dps + 500):  # ulps exact, offsets kept whole
            if kind == "exact":
                value = +target
            elif kind == "ulps":
                value = target + ulps * ulp
            else:
                value = target * (1 + lead * mpmath.mpf(10) ** -power)
        assert matched_digits(value, target, dps) == \
            log10_digits(value, target, dps)


class TestStokesEstimates:
    def test_sprime_small_run(self):
        est = estimate_stokes("sprime", n_max=80, order=10, dps=80)
        assert est.digits >= 12
        print(f"sprime @ (80, 10): {est.digits} digits")

    def test_sminus1_small_run(self):
        est = estimate_stokes("sminus1", n_max=60, order=6, dps=80)
        assert est.digits >= 6
        print(f"sminus1 @ (60, 6): {est.digits} digits")

    def test_unknown_constant(self):
        with pytest.raises(ValueError):
            estimate_stokes("sboth", 10, 2, 40)
        with pytest.raises(ValueError, match="unknown probe 'x'"):
            probe_richardson("x", 2, 10, 60)
        before = set(extrapolation._TRANSFORM_ROWS)
        with pytest.raises(ValueError, match="unknown probe 'x'"):
            convergence_rows("x", 10, (0,), 40)
        assert set(extrapolation._TRANSFORM_ROWS) == before


class TestSectionRows:
    def test_shapes_and_first_row(self):
        rows = convergence_rows("s", n_max=12, orders=(0, 1, 5), dps=40)
        assert len(rows) == 12
        assert rows[0][0] == 1
        seq = s_seq(17, 40)
        assert rows[0][1] == seq[1]
        rows_r = convergence_rows("r", n_max=8, orders=(0, 1), dps=40)
        assert len(rows_r[0]) == 3


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_kernel_returns_constant_term_exactly(data):
    # the order-N kernel annihilates 1/n^j for 1 <= j <= N exactly
    order = data.draw(st.integers(0, 12))
    coeffs = data.draw(st.lists(
        st.fractions(-10**6, 10**6, max_denominator=10**4),
        min_size=1, max_size=order + 1))
    n = data.draw(st.integers(1, 400))
    x = {m: sum((c / Fraction(m) ** j for j, c in enumerate(coeffs)),
                Fraction(0))
         for m in range(n, n + order + 1)}
    assert sum(w * x[m] for m, w in enumerate(_weights(order, n), n)) \
        == coeffs[0] * factorial(order)


class TestInputValidation:
    @pytest.mark.parametrize("call", [
        lambda: estimate_stokes("sprime", 0, 5, 40),
        lambda: estimate_stokes("sminus1", 0, 5, 40),
        lambda: estimate_stokes("sprime", 10, -1, 40),
        lambda: estimate_stokes("sminus1", 10, -1, 40),
        lambda: probe_richardson("r", 3, 0, 40),
        lambda: probe_richardson("s", -1, 5, 40),
        lambda: convergence_rows("s", 0, (0, 1), 40),
        lambda: convergence_rows("r", 5, (0, -1), 40),
        lambda: s_seq(0, 40),
        lambda: r_seq(-3, 40),
        lambda: richardson(s_seq(10, 40), -1, 3),
        lambda: richardson(FloatSeq(0, tuple(mpmath.mpf(1) for _ in range(5)),
                                    40), 2, 0),
    ])
    def test_rejects_n_below_one_or_negative_order(self, call):
        with pytest.raises(ValueError):
            call()

    @pytest.mark.parametrize("special", ["inf", "-inf", "nan"])
    def test_rejects_special_values(self, special):
        values = [mpmath.mpf(m) for m in range(1, 11)]
        values[5] = mpmath.mpf(special)  # index 6
        with pytest.raises(ValueError, match="rational"):
            richardson(FloatSeq(1, tuple(values), 40), 3, 4)


TRANSFORM = RichardsonResult(2, 5, mpmath.mpf("0.5"))
RECORDS = [
    (FloatSeq, {"start": 1, "values": (mpmath.mpf(1), mpmath.mpf(2)), "dps": 30},
     "FloatSeq(start=1, values=(mpf('1.0'), mpf('2.0')), dps=30)"),
    (RichardsonResult, {"order": 2, "index": 5, "value": mpmath.mpf("0.5")},
     "RichardsonResult(order=2, index=5, value=mpf('0.5'))"),
    (StokesEstimate, {"value": mpmath.mpf("0.5"), "target": mpmath.mpf(1),
                      "digits": 0, "transform": TRANSFORM},
     "StokesEstimate(value=mpf('0.5'), target=mpf('1.0'), digits=0, "
     "transform=RichardsonResult(order=2, index=5, value=mpf('0.5')))"),
    (QF3, {"a": Fraction(1, 2), "b": Fraction(3)},
     "QF3(a=Fraction(1, 2), b=Fraction(3, 1))"),
    # already normalized, so its fields read back as given
    (SymConst, {"coeff": Fraction(1, 3), "rad2": 1, "rad3": 1, "pi_half": 0,
                "gamma_arg": Fraction(1, 4)},
     "SymConst(coeff=Fraction(1, 3), rad2=1, rad3=1, pi_half=0, "
     "gamma_arg=Fraction(1, 4))"),
]


@pytest.mark.parametrize("cls, fields, text", RECORDS,
                         ids=[cls.__name__ for cls, _, _ in RECORDS])
def test_result_types_are_frozen_records(cls, fields, text):
    record = cls(*fields.values())
    assert record == cls(**fields)
    assert hash(record) == hash(cls(**fields))
    assert [getattr(record, name) for name in fields] == list(fields.values())
    first = next(iter(fields))
    assert record != cls(**dict(fields, **{first: 7}))
    assert record != tuple(fields.values())
    assert repr(record) == text
    assert pickle.loads(pickle.dumps(record)) == record
    assert copy.deepcopy(record) == record
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, 7)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 7
    with pytest.raises(TypeError):
        cls(*fields.values(), 7)
    with pytest.raises(TypeError):
        cls(**dict(fields, extra=7))
