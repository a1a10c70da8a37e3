import ast
import functools
import pathlib
import pickle
import random
import threading
from fractions import Fraction
from unittest.mock import patch

import mpmath
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from mpmath.libmp import (dps_to_prec, from_rational, fzero, mpf_add, mpf_mul,
                          mpf_pos, mpf_shift)

import crosscap
from crosscap import exactnum, extrapolation
from crosscap.exactnum import (QF3, SQRT3, GammaPoleError, SymbolicConstantError,
                               SymConst, _round_run, rational_to_float,
                               round_sum)
from crosscap.extrapolation import estimate_stokes
from crosscap.sequences import p_of_g, t_of_g, u_seq, v_seq


# an mpf's binary form and the library that makes it
MPMATH_NAMES = {"mpmath", "_mpf_", "man_exp", "libmp"}


def mpmath_touches(tree) -> list:
    """(line, name) of each import of mpmath and each name, attribute or
    string constant in ``MPMATH_NAMES`` in a module's syntax tree."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module.split(".")[0]]
        else:
            names = [getattr(node, key, None) for key in ("id", "attr", "value")]
        found += [(node.lineno, name) for name in names if name in MPMATH_NAMES]
    return found


def test_only_exactnum_imports_mpmath_or_reads_mpf_bits():
    # every float command's mpmath touchpoints sit in one module
    touched = {}
    for path in sorted(pathlib.Path(crosscap.__file__).parent.glob("*.py")):
        found = mpmath_touches(ast.parse(path.read_text("utf-8")))
        if found:
            touched[path.stem] = found
    assert list(touched) == ["exactnum"], touched
    assert crosscap.matched_digits is exactnum.matched_digits
    assert extrapolation.matched_digits is exactnum.matched_digits


def pell(steps: int) -> tuple:
    """(a, b) with a^2 - 3 b^2 = 1, ``steps`` steps of (2 + sqrt3)x from (2, 1)."""
    a, b = 2, 1
    for _ in range(steps):
        a, b = 2 * a + 3 * b, a + 2 * b
    return a, b


def reference(x: QF3, dps: int) -> mpmath.mpf:
    """a + b sqrt3 at dps without cancellation: for a, b of opposite signs,
    a + b sqrt3 = norm/(a - b sqrt3)."""
    with mpmath.workdps(dps):
        a = mpmath.mpf(x.a.numerator) / x.a.denominator
        b = mpmath.mpf(x.b.numerator) / x.b.denominator
        if (x.a >= 0) == (x.b >= 0):
            return a + b * mpmath.sqrt(3)
        norm = x.norm()
        return (mpmath.mpf(norm.numerator) / norm.denominator
                / (a - b * mpmath.sqrt(3)))


# The mpf-arithmetic rounding kernel that round_sum's integer sum replaced:
# each part an mpf product at wp bits, the parts added at wp bits.

@functools.lru_cache(maxsize=64)
def mpf_constant(c, a, b, prec):
    with mpmath.workprec(prec):
        return (c * mpmath.pi ** (mpmath.mpf(int(2 * a)) / 2)
                * mpmath.sqrt(b))._mpf_


def from_ratio(p, q, prec):
    twos = (q & -q).bit_length() - 1
    return mpf_shift(from_rational(p, q >> twos, prec, "n"), -twos)


def reference_round_sum(parts, dps):
    exact = [(const, p, q) for const, (p, q) in parts if p]
    if not exact:
        return mpmath.mp.make_mpf(fzero)
    prec, extra = dps_to_prec(dps), 64
    while True:
        wp = prec + extra
        terms = [mpf_mul(mpf_constant(*const, wp), from_ratio(p, q, wp),
                         wp, "n") for const, p, q in exact]
        total = functools.reduce(lambda x, y: mpf_add(x, y, wp, "n"), terms)
        lost = (max(t[2] + t[3] for t in terms) - total[2] - total[3]
                if total[1] else wp)
        if lost <= extra - 24:
            return mpmath.mp.make_mpf(mpf_pos(total, prec, "n"))
        extra = lost + 64


rationals = st.fractions(min_value=-10 ** 6, max_value=10 ** 6,
                         max_denominator=10 ** 6)
qf3s = st.builds(QF3, rationals, rationals)


class TestQF3:
    def test_conjugate_pair_norm(self):
        assert (QF3(1, 1)) * (QF3(1, -1)) == QF3(-2)

    def test_sqrt3_squares(self):
        assert (-SQRT3) * (-SQRT3) == QF3(3)

    def test_rationalization(self):
        assert 1 / QF3(0, 2) == QF3(0, Fraction(1, 6))

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            QF3(1) / QF3(0)

    def test_div_roundtrip(self):
        rng = random.Random(7)
        for _ in range(200):
            x = QF3(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                    Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
            y = QF3(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                    Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
            if not y:
                continue
            assert (x / y) * y == x

    def test_pow(self):
        two_sqrt3 = QF3(0, 2)
        assert two_sqrt3 ** 2 == QF3(12)
        assert two_sqrt3 ** -1 == QF3(0, Fraction(1, 6))
        assert two_sqrt3 ** 0 == QF3(1)

    def test_mixed_scalars(self):
        assert QF3(0, 1) * Fraction(1, 2) == QF3(0, Fraction(1, 2))
        assert 2 + QF3(0, 1) == QF3(2, 1)
        x = QF3(Fraction(1, 2), -3)
        for r in (2, Fraction(-5, 7)):
            assert r - x == QF3(r - x.a, -x.b) == -(x - r)
            assert r + x == QF3(r + x.a, x.b) == x + r
            assert r * x == QF3(r * x.a, r * x.b) == x * r
            assert (r / x) * x == r and x / r == QF3(x.a / r, x.b / r)
        for op in ("__add__", "__sub__", "__rsub__", "__mul__",
                   "__truediv__", "__rtruediv__", "__pow__"):
            assert getattr(x, op)(1.5) is NotImplemented, op
        for op in (lambda: x + 1.5, lambda: 1.5 - x, lambda: x * 1.5,
                   lambda: 1.5 / x, lambda: x ** 1.5, lambda: QF3(1.5)):
            with pytest.raises(TypeError):
                op()

        class Ratio(Fraction):
            pass
        y = QF3(Ratio(1, 2), Ratio(-3))
        assert y == x and type(y.a) is Ratio

    def test_str(self):
        assert str(QF3(0, -1)) == "-1√3"
        assert str(QF3(Fraction(1, 4))) == "1/4"
        assert str(QF3(0, Fraction(5, 48))) == "5/48√3"
        assert str(QF3(Fraction(1, 2), Fraction(-5, 48))) == "1/2-5/48√3"

    def test_float_value(self):
        val = QF3(1, 1).to_float(50)
        with mpmath.workdps(50):
            assert abs(val - (1 + mpmath.sqrt(3))) < mpmath.mpf(10) ** -48

    def test_float_value_of_cancelling_parts(self):
        # (2 - sqrt3)^41 ~ 3.5e-24 from 24-digit parts: 47 digits cancel
        a, b = pell(40)
        assert len(str(a)) == 24
        val = QF3(a, -b).to_float(50)
        with mpmath.workdps(150):
            ref = 1 / (a + b * mpmath.sqrt(3))
            assert abs(val / ref - 1) < mpmath.mpf(10) ** -49


@settings(max_examples=100, deadline=None)
@given(steps=st.integers(0, 80), scale=rationals.filter(bool),
       nudge=st.integers(-3, 3), dps=st.integers(30, 250))
@example(steps=44, scale=Fraction(1), nudge=0, dps=30)  # cancels to 0.0 at first
def test_float_value_near_cancellation(steps, scale, nudge, dps):
    # scale (a + nudge - b sqrt3) is far smaller than its conjugate
    a, b = pell(steps)
    x = QF3(scale * (a + nudge), -scale * b)
    ref = reference(x, dps + 100)
    with mpmath.workdps(dps + 100):
        assert abs(x.to_float(dps) / ref - 1) < mpmath.mpf(10) ** (1 - dps)


@settings(max_examples=100, deadline=None)
@given(x=qf3s, y=qf3s, z=qf3s)
def test_qf3_field_laws(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    # the norm x x' (x' the conjugate) is multiplicative
    assert (x * y).norm() == x.norm() * y.norm()
    assume(x)
    assert x * x.inverse() == 1


@settings(max_examples=100, deadline=None)
@given(a=st.one_of(rationals, st.integers(-10 ** 30, 10 ** 30)))
def test_rational_qf3_hashes_as_its_value(a):
    # equal values hash equal, so a rational QF3 and its value are one key
    assert QF3(a) == a and hash(QF3(a)) == hash(a)
    assert len({QF3(a), a}) == 1 and {a: 1}.get(QF3(a)) == 1


def gamma_unit_steps(coeff: Fraction, gamma_arg: Fraction) -> tuple:
    """(coeff, gamma_arg) with gamma_arg moved into (-1, 1] one unit step
    of the functional equation at a time: the reference for SymConst."""
    while gamma_arg > 1:
        coeff /= gamma_arg - 1
        gamma_arg -= 1
    while gamma_arg <= -1:
        coeff *= gamma_arg
        gamma_arg += 1
    return coeff, gamma_arg


class TestSymConst:
    def test_gamma_seven_halves_in_denominator(self):
        # Gamma(7/2) = (15/8) sqrt(pi)
        c = SymConst(1, gamma_arg=Fraction(7, 2))
        assert c == SymConst(Fraction(8, 15), pi_half=-1)
        assert c.coeff == Fraction(8, 15)
        assert c.pi_half == -1
        assert c.gamma_arg is None

    def test_t2_shape(self):
        # -u_2 / (2^0 Gamma(9/2)) with u_2 = -49/4608
        c = SymConst(Fraction(49, 4608), gamma_arg=Fraction(9, 2))
        assert c == SymConst(Fraction(7, 4320), pi_half=-1)

    def test_negative_quarter_kept_symbolic(self):
        c = SymConst(-2, rad2=1, rad3=1, gamma_arg=Fraction(-1, 4))
        assert (c.coeff, c.rad2, c.rad3, c.pi_half) == (Fraction(-2), 1, 1, 0)
        assert c.gamma_arg == Fraction(-1, 4)

    def test_radical_merging(self):
        # sqrt2^3 = 2 sqrt2, sqrt3^-1 = sqrt3/3
        c = SymConst(1, rad2=3, rad3=-1)
        assert (c.coeff, c.rad2, c.rad3) == (Fraction(2, 3), 1, 1)

    def test_normalize_idempotent(self):
        # quarter-integer, half-integer and positive integer Gamma arguments
        # (integers <= 0 are poles), and zero coefficients
        rng = random.Random(11)
        for i in range(300):
            gamma_arg = (Fraction(rng.randint(-30, 30) * 2 + 1, 4),
                         Fraction(rng.randint(-30, 30) * 2 + 1, 2),
                         Fraction(rng.randint(1, 30)))[i % 3]
            c = SymConst(Fraction(rng.randint(-40, 40), rng.randint(1, 40)),
                         rad2=rng.randint(-3, 3), rad3=rng.randint(-3, 3),
                         pi_half=rng.randint(-3, 3), gamma_arg=gamma_arg)
            assert SymConst(c.coeff, c.rad2, c.rad3, c.pi_half,
                            c.gamma_arg) == c

    @settings(max_examples=200, deadline=None)
    @given(coeff=rationals, rad2=st.integers(-4, 4), rad3=st.integers(-4, 4),
           pi_half=st.integers(-4, 4),
           gamma_arg=st.one_of(st.none(), st.fractions(-20, 20,
                                                      max_denominator=8)))
    def test_pickle_rebuilds_through_normalization(self, coeff, rad2, rad3,
                                                    pi_half, gamma_arg):
        # __reduce__ passes the normalized fields back to the constructor,
        # so the round trip holds because normalization is idempotent
        assume(gamma_arg is None or gamma_arg.denominator > 1 or gamma_arg > 0)
        c = SymConst(coeff, rad2, rad3, pi_half, gamma_arg)
        clone = pickle.loads(pickle.dumps(c))
        assert clone == c and hash(clone) == hash(c)

    @pytest.mark.parametrize("k", range(26))
    def test_half_integer_gamma_closed_form(self, k):
        # 1/Gamma(k + 1/2) = 2^k / ((2k-1)!! sqrt(pi)), checked up to 51/2
        dfact = 1
        for odd in range(1, 2 * k, 2):
            dfact *= odd
        assert SymConst(1, gamma_arg=Fraction(2 * k + 1, 2)) \
            == SymConst(Fraction(2 ** k, dfact), pi_half=-1)

    def test_gamma_pole(self):
        with pytest.raises(GammaPoleError):
            SymConst(1, gamma_arg=0)
        with pytest.raises(GammaPoleError):
            SymConst(1, gamma_arg=-3)

    def test_to_float_plain(self):
        val = SymConst(Fraction(1, 24)).to_float(50)
        assert mpmath.nstr(val, 10) == "0.04166666667"

    def test_to_float_with_pi(self):
        # 7/(4320 sqrt(pi)); reference digits from an independent evaluation
        # of (49/4608)/Gamma(9/2)
        c = SymConst(Fraction(7, 4320), pi_half=-1)
        val = c.to_float(30)
        with mpmath.workdps(40):
            ref = mpmath.mpf("0.0009141960844523828723695731853994")
            assert abs(val - ref) < mpmath.mpf("1e-32")

    def test_to_float_symbolic_only(self):
        c = SymConst(-2, rad2=1, rad3=1, gamma_arg=Fraction(-1, 4))
        with pytest.raises(SymbolicConstantError):
            c.to_float(30)

    def test_str_forms(self):
        assert str(SymConst(Fraction(1, 24))) == "1/24"
        assert str(SymConst(Fraction(7, 4320), pi_half=-1)) == "7/(4320√π)"
        assert str(SymConst(2, pi_half=-1)) == "2/√π"
        assert str(SymConst(-2, rad2=1, rad3=1, gamma_arg=Fraction(-1, 4))) \
            == "-2√6/Γ(-1/4)"
        assert str(SymConst(0)) == "0"
        assert str(SymConst(3, rad2=1)) == "3√2"
        assert str(SymConst(1, rad3=1, pi_half=2)) == "√3π"
        assert str(SymConst(2, pi_half=4)) == "2π^2"
        assert str(SymConst(Fraction(1, 2), pi_half=3)) == "π√π/2"
        assert str(SymConst(Fraction(-5, 3), rad2=1, rad3=1, pi_half=-3,
                            gamma_arg=Fraction(1, 3))) \
            == "-5√6/(3π√πΓ(1/3))"

    @settings(max_examples=300, deadline=None)
    @given(coeff=st.fractions(-10 ** 20, 10 ** 20, max_denominator=10 ** 20),
           d=st.sampled_from([1, 2, 3, 4]), data=st.data())
    def test_gamma_product_matches_unit_steps(self, coeff, d, data):
        # the one-product normalization against the unit-step loop it
        # replaced, for Gamma arguments a/d in [-60, 300], poles excluded
        a = data.draw(st.integers(-60 * d, 300 * d))
        assume(a % d or a > 0)
        gamma_arg = Fraction(a, d)
        ref_coeff, ref_arg = gamma_unit_steps(coeff, gamma_arg)
        c = SymConst(coeff, gamma_arg=gamma_arg)
        ref = SymConst(ref_coeff, gamma_arg=ref_arg)
        assert (c.coeff, c.rad2, c.rad3, c.pi_half, c.gamma_arg) == \
            (ref.coeff, ref.rad2, ref.rad3, ref.pi_half, ref.gamma_arg)

    def test_gamma_product_matches_unit_steps_on_t_and_p(self):
        # t_g and p_{(n+1)/2} through index 120, with their big coefficients
        u, v = u_seq(120), v_seq(120)
        for n in range(121):
            coeff, arg = gamma_unit_steps(-u[n] * Fraction(2) ** (2 - n),
                                          Fraction(5 * n - 1, 2))
            assert t_of_g(n) == SymConst(coeff, gamma_arg=arg), n
            rational, rad3 = (v[n].a, 0) if v[n].b == 0 else (v[n].b, 1)
            coeff, arg = gamma_unit_steps(rational, Fraction(5 * n - 1, 4))
            assert p_of_g(n + 1) == SymConst(coeff, rad2=3 - n, rad3=rad3,
                                             gamma_arg=arg), n


class TestFloatLayer:
    def test_rational_rounding(self):
        big = Fraction(10 ** 80 + 1, 3)
        val = rational_to_float(big, 40)
        with mpmath.workdps(45):
            ref = mpmath.mpf(10 ** 80 + 1) / 3
            assert abs(val / ref - 1) < mpmath.mpf(10) ** -39

    @pytest.mark.parametrize("dps", [30, 60, 200])
    def test_rational_rounding_is_correct(self, dps):
        prec = dps_to_prec(dps)
        for n, q in enumerate(u_seq(80)):
            want = from_rational(q.numerator, q.denominator, prec, "n")
            assert rational_to_float(q, dps)._mpf_ == want, n

    @settings(max_examples=60, deadline=None)
    @given(p=st.integers(-10 ** 200, 10 ** 200), odd=st.integers(0, 10 ** 200),
           twos=st.integers(0, 3000), dps=st.integers(30, 270))
    def test_power_of_two_denominator_moves_to_the_exponent_exactly(
            self, p, odd, twos, dps):
        q = (2 * odd + 1) << twos
        got = round_sum([((1, 0, 1), (p, q))], dps)._mpf_
        assert got == from_rational(p, q, dps_to_prec(dps), "n")


# c pi^a sqrt(b) as the library uses them; sqrt18 = 3 sqrt2, so b = 18 and
# b = 2 at one a are the same constant over Q
constants = st.tuples(st.sampled_from([1, 2, -1, -3]),
                      st.sampled_from([-1, Fraction(-1, 2), 0, Fraction(1, 2), 1]),
                      st.sampled_from([1, 2, 3, 6, 18, 30]))
ratios = st.tuples(st.integers(-10 ** 600, 10 ** 600),
                   st.builds(lambda odd, twos: (2 * odd + 1) << twos,
                             st.integers(0, 10 ** 300), st.integers(0, 3000)))


@settings(max_examples=150, deadline=None)
@given(consts=st.lists(constants, min_size=1, max_size=3,
                       unique_by=lambda c: (c[1], 2 if c[2] == 18 else c[2])),
       ratios=st.lists(ratios, min_size=3, max_size=3),
       cancel=st.one_of(st.none(), st.tuples(st.integers(1, 10 ** 20),
                                             st.integers(0, 2000))),
       dps=st.integers(30, 400))
@example(consts=[(1, 0, 1)], ratios=[(1, 1 << 3000)] * 3, cancel=(1, 2000),
         dps=30)
def test_round_sum_matches_the_mpf_kernel(consts, ratios, cancel, dps):
    parts = list(zip(consts, ratios))
    if cancel is not None:
        # the first part again, negated and nudged by tiny / (q 2^shift)
        tiny, shift = cancel
        const, (p, q) = parts[0]
        assume(p)
        parts.append((const, ((-p << shift) + tiny, q << shift)))
    got = round_sum(parts, dps)
    assert got._mpf_ == reference_round_sum(parts, dps)._mpf_


def window_parts(terms, d0, steps, i, whole=()):
    """Window i of a ``_round_run`` run as ``round_sum`` parts."""
    d = d0
    for step in steps[:i]:
        d *= step
    return ([(const, (x[i], d)) for const, x in terms]
            + [(const, (y[i], 1)) for const, y in whole])


@settings(max_examples=100, deadline=None)
@given(data=st.data(),
       consts=st.lists(constants, min_size=1, max_size=3,
                       unique_by=lambda c: (c[1], 2 if c[2] == 18 else c[2])),
       windows=st.integers(1, 8), d0=st.integers(1, 10 ** 300),
       dps=st.integers(30, 400))
def test_run_kernel_matches_round_sum_per_window(data, consts, windows, d0,
                                                 dps):
    # the first constant's numerators twice, the second time negated and
    # nudged by a tiny one 40-2000 bits below them, and the other
    # constants' numerators as small as the tiny ones: each window cancels
    # by about that many bits, and one whose tiny and small numerators are
    # all 0 sums to exactly 0.  The tiny numerators are wider than the
    # widest rounding, as a row's are, so the kernel reads only their top.
    # Some runs add a column of integers over 1, as r's -m is, on the first
    # constant or another: on the first, a window's tiny numerator may be
    # -y d_i, cancelling its integer y exactly.  The kernel floors a few
    # windows at a time, so windows widen and cancel across its blocks.
    steps = data.draw(st.lists(st.integers(1, 10 ** 4), min_size=windows - 1,
                               max_size=windows - 1))
    cancels = data.draw(st.lists(st.integers(40, 2000), min_size=windows,
                                 max_size=windows))
    small = st.integers(-2 ** 3000, 2 ** 3000)
    big = [data.draw(st.integers(2 ** 2999, 2 ** 3000)) * data.draw(
        st.sampled_from([1, -1])) << cancel for cancel in cancels]
    tiny = data.draw(st.lists(small, min_size=windows, max_size=windows))
    whole = []
    if data.draw(st.booleans()):
        const = data.draw(st.one_of(st.just(consts[0]), constants))
        ys = data.draw(st.lists(st.one_of(st.integers(-2 ** 64, 2 ** 64),
                                          small),
                                min_size=windows, max_size=windows))
        whole = [(const, ys)]
        if const == consts[0]:
            d = d0
            for i, y in enumerate(ys):
                d *= steps[i - 1] if i else 1
                if data.draw(st.booleans()):
                    tiny[i] = -y * d
    terms = [(consts[0], big),
             (consts[0], [t - b for b, t in zip(big, tiny)])]
    terms += [(const, data.draw(st.lists(small, min_size=windows,
                                         max_size=windows)))
              for const in consts[1:]]
    block = data.draw(st.integers(1, 5))
    want = []
    for i in range(windows):
        try:
            want.append(round_sum(window_parts(terms, d0, steps, i, whole),
                                  dps)._mpf_)
        except ValueError:
            # the windows before it still round alone
            with patch.object(exactnum, "_BLOCK", block), \
                    pytest.raises(ValueError):
                _round_run(terms, d0, steps, dps, whole)
            break
    with patch.object(exactnum, "_BLOCK", block):
        got = _round_run([(const, x[:len(want)]) for const, x in terms], d0,
                         steps, dps,
                         [(const, y[:len(want)]) for const, y in whole])
    assert [value._mpf_ for value in got] == want


def test_run_kernel_rejects_a_window_that_sums_to_zero():
    # 3 sqrt2 - sqrt18 = 0 exactly: right after a window that cancelled
    # 2000 bits and widened, and alone; it must not widen forever
    terms = [((1, 0, 2), [3 << 2000, 3]), ((1, 0, 18), [1 - (1 << 2000), -1])]
    outcome = []

    def run():
        for first in (0, 1):
            try:
                _round_run([(const, x[first:]) for const, x in terms],
                           7, [11][first:], 60)
            except ValueError:
                outcome.append(first)

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive() and outcome == [0, 1]
    got = _round_run([(const, x[:1]) for const, x in terms], 7, [], 60)
    assert got[0]._mpf_ == round_sum(window_parts(terms, 7, [], 0), 60)._mpf_
    assert [value._mpf_ for value in
            _round_run([((1, 0, 2), [0, 0])], 7, [11], 60)] == [fzero] * 2


def test_round_sum_rejects_dependent_parts_that_sum_to_zero():
    # 3 sqrt2 - sqrt18 = 0: no precision resolves it, so it must not widen
    # forever; the same constants with a nonzero sum still round
    outcome = []

    def run():
        try:
            round_sum([((1, 0, 2), (3, 1)), ((1, 0, 18), (-1, 1))], 30)
        except ValueError:
            outcome.append("ValueError")

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive() and outcome == ["ValueError"]
    got = round_sum([((1, 0, 2), (3, 1)), ((1, 0, 18), (-1, 1)),
                     ((1, 0, 1), (1, 10 ** 300))], 30)
    assert got._mpf_ == from_rational(1, 10 ** 300, dps_to_prec(30), "n")


def test_round_sum_cancelling_group_beside_a_nonzero_part():
    # 3 sqrt2 - sqrt18 = 0 exactly and hides the far smaller pi sqrt3 part,
    # so the first widening checks for 0, finds pi sqrt3's group nonzero
    # and widens past the cancellation
    tiny = ((1, 1, 3), (1, 2 ** 100))
    for dps in (30, 200):
        got = round_sum([((3, 0, 2), (1, 1)), ((-1, 0, 18), (1, 1)), tiny],
                        dps)
        assert got._mpf_ == round_sum([tiny], dps)._mpf_


def test_round_sum_raises_when_every_group_cancels():
    # sqrt12 = 2 sqrt3 at the same power of pi
    with pytest.raises(ValueError):
        round_sum([((3, 0, 2), (1, 1)), ((-1, 0, 18), (1, 1)),
                   ((1, 1, 3), (1, 2)), ((-1, 1, 12), (1, 4))], 30)


def test_parts_in_distinct_groups_build_no_fraction():
    # sminus1's two parts, pi sqrt3 and sqrt6, cancel to the first widening,
    # whose check for an exact 0 needs no Fraction for one-term groups
    estimate_stokes("sminus1", 100, 10, 60)
    with patch.object(exactnum, "_sums_to_zero",
                      wraps=exactnum._sums_to_zero) as checked, \
            patch.object(exactnum, "Fraction",
                         side_effect=AssertionError("Fraction built")):
        estimate_stokes("sminus1", 100, 10, 60)
    assert checked.call_count >= 1
