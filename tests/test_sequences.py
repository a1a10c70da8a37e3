from fractions import Fraction

import pytest

from crosscap.asymptotics import HALF_ACTION
from crosscap.exactnum import QF3, SymConst
from crosscap.sequences import (_from_scaled, extend_u, extend_v,
                                intersection_number, p_of_g, t_of_g, u_seq,
                                v_seq)


class TestUSeq:
    def test_first_values(self):
        # u_1, u_2, u_3 evaluated by hand from the quadratic recursion
        assert u_seq(0) == [Fraction(1)]
        u = u_seq(3)
        assert u[1] == Fraction(-1, 48)
        assert u[2] == Fraction(-49, 4608)
        assert u[3] == Fraction(-1225, 55296)

    def test_negative_through_250(self):
        u = u_seq(250)
        assert all(x < 0 for x in u[1:])

    def test_prefix_extension_matches_scratch(self):
        full: list[int] = []
        extend_u(full, 60)
        partial: list[int] = []
        extend_u(partial, 50)
        extend_u(partial, 60)
        assert partial == full

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            u_seq(-1)


class TestVSeq:
    def test_first_values(self):
        v = v_seq(3)
        assert v[0] == QF3(0, -1)
        assert v[1] == QF3(Fraction(1, 4))
        assert v[2] == QF3(0, Fraction(5, 48))
        assert v[3] == QF3(Fraction(25, 96))

    def test_parity_structure(self):
        for n, x in enumerate(v_seq(250)):
            if n % 2 == 0:
                assert x.a == 0, n
            else:
                assert x.b == 0, n

    def test_prefix_extension_matches_scratch(self):
        u: list[int] = []
        extend_u(u, 30)
        full: list[int] = []
        extend_v(full, u, 60)
        partial: list[int] = []
        extend_v(partial, u, 50)
        extend_v(partial, u, 60)
        assert partial == full
        # R_m = 8^m sqrt3^(m-1) v_m
        assert [_from_scaled(r, 8 ** m, m - 1)
                for m, r in enumerate(full)] == v_seq(60)

    def test_growth_law(self):
        # (A/2) |v_{n+1}| / (n |v_n|) -> 1, within 2/n for n in 50..250
        v = v_seq(251)
        dps = 60
        vals = [x.to_float(dps) for x in v]
        lam = HALF_ACTION.to_float(dps)
        devs = {}
        for n in range(50, 251):
            ratio = lam * abs(vals[n + 1]) / (n * abs(vals[n]))
            devs[n] = abs(ratio - 1)
            assert devs[n] * n < 2, n
        assert devs[250] < devs[50]


class TestMapConstants:
    def test_t_first_three(self):
        assert t_of_g(0) == SymConst(2, pi_half=-1)
        assert t_of_g(1) == SymConst(Fraction(1, 24))
        assert t_of_g(2) == SymConst(Fraction(7, 4320), pi_half=-1)

    def test_p_first_three(self):
        assert p_of_g(1) == SymConst(-2, rad2=1, rad3=1, gamma_arg=Fraction(-1, 4))
        assert p_of_g(2) == SymConst(Fraction(1, 2))
        # sqrt6/(3 Gamma(1/4)): sqrt6 in the numerator
        assert p_of_g(3) == SymConst(Fraction(1, 3), rad2=1, rad3=1,
                                     gamma_arg=Fraction(1, 4))

    def test_p_integer_g_positive_numeric(self):
        for g in range(1, 21):
            c = p_of_g(2 * g)
            assert c.gamma_arg is None, g
            assert c.to_float(40) > 0, g

    def test_p_rejects_zero(self):
        with pytest.raises(ValueError):
            p_of_g(0)


class TestIntersectionNumbers:
    def test_genus_two(self):
        # direct substitution of u_2 = -49/4608 into the closed form
        assert intersection_number(2) == Fraction(7, 240)

    def test_genus_three(self):
        # (3g-3)! * (-4^g/((5g-5)(5g-3))) * u_3 with u_3 = -1225/55296,
        # substituted by hand: 720 * (-64/120) * (-1225/55296) = 1225/144
        assert intersection_number(3) == Fraction(1225, 144)

    def test_genus_one_domain_error(self):
        with pytest.raises(ValueError):
            intersection_number(1)
