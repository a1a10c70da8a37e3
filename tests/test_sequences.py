from fractions import Fraction
from functools import cache
from itertools import product
from math import comb, factorial, prod
from unittest.mock import patch

import pytest

from crosscap import sequences
from crosscap.asymptotics import HALF_ACTION
from crosscap.exactnum import QF3, SymConst
from crosscap.sequences import (_from_scaled, extend_u, extend_v,
                                intersection_number, p_of_g, t_of_g, u_seq,
                                v_seq)


def no_public_values():
    """Patch every table's ``upto`` to raise: a library reader that grows
    from the integers alone still works under it."""
    return patch.object(sequences.Table, "upto",
                        side_effect=AssertionError("public values read"))


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

    def test_p_matches_the_qf3_formula(self):
        # p_{(n+1)/2} = v_n / (2^((n-3)/2) Gamma((5n-1)/4)), with v_n a
        # rational or a rational times sqrt3 by parity
        v = v_seq(399)
        for twog in range(1, 401):
            n = twog - 1
            rational, rad3 = (v[n].a, 0) if v[n].b == 0 else (v[n].b, 1)
            ref = SymConst(rational, rad2=3 - n, rad3=rad3,
                           gamma_arg=Fraction(5 * n - 1, 4))
            got = p_of_g(twog)
            assert (got, str(got), repr(got)) == (ref, str(ref), repr(ref))

    def test_p_integer_g_positive_numeric(self):
        for g in range(1, 21):
            c = p_of_g(2 * g)
            assert c.gamma_arg is None, g
            assert c.to_float(40) > 0, g

    def test_p_rejects_zero(self):
        with pytest.raises(ValueError):
            p_of_g(0)

    def test_t_rejects_negative(self):
        with pytest.raises(ValueError):
            t_of_g(-1)

    def test_repeat_builds_no_symconst(self):
        # from empty tables, grown out of order; every value is the closed
        # form, and a repeat reads the cached constants
        u, v = u_seq(300), v_seq(299)
        with patch.object(sequences.T, "ints", []), \
                patch.object(sequences.P, "ints", []):
            with no_public_values():
                t_of_g(120)
                p_of_g(77)
                ts = [t_of_g(g) for g in range(301)]
                ps = [p_of_g(twog) for twog in range(1, 301)]
            for g in range(301):
                assert ts[g] == SymConst(-u[g] * Fraction(4, 2 ** g),
                                         gamma_arg=Fraction(5 * g - 1, 2)), g
            for n in range(300):
                rational, rad3 = (v[n].a, 0) if v[n].b == 0 else (v[n].b, 1)
                assert ps[n] == SymConst(rational, rad2=3 - n, rad3=rad3,
                                         gamma_arg=Fraction(5 * n - 1, 4)), n
            with patch.object(SymConst, "__init__",
                              side_effect=AssertionError("built again")):
                assert all(t_of_g(g) is ts[g] for g in range(301))
                assert all(p_of_g(twog) is ps[twog - 1]
                           for twog in range(1, 301))


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

    @pytest.mark.parametrize("g", range(2, 8))
    def test_matches_virasoro_recursion(self, g):
        # <tau_2^(3g-3)>_g from the DVV recursion, which never reads u
        with no_public_values():
            got = intersection_number(g)
        assert got == psi_intersection(g, (0, 0, 3 * g - 3))

    def test_reads_the_u_integers(self):
        # from an empty U with no public values read, every number is the
        # closed form on u_g
        u = u_seq(40)
        with patch.object(sequences.U, "ints", []), no_public_values():
            for g in range(2, 41):
                assert intersection_number(g) == factorial(3 * g - 3) * \
                    Fraction(-(4 ** g), (5 * g - 5) * (5 * g - 3)) * u[g], g


def _double_factorial(m: int) -> int:
    """m!! for odd m >= -1, with (-1)!! = 1."""
    return prod(range(m, 0, -2))


def _bump(counts: tuple, d: int, step: int) -> tuple:
    """The multiplicity vector ``counts`` with one more tau_d if step is 1,
    one fewer if -1, trailing zeros stripped."""
    out = list(counts) + [0] * (d + 1 - len(counts))
    out[d] += step
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


@cache
def psi_intersection(g: int, counts: tuple) -> Fraction:
    """<tau_0^counts[0] tau_1^counts[1] ...>_g, the psi-class intersection
    numbers, by the Virasoro (DVV) recursion (Dijkgraaf, Verlinde and
    Verlinde, Nucl. Phys. B 348 (1991) 435; Witten, Surveys Diff. Geom. 1
    (1991) 243): peeling tau_(k+1), the largest class present,

        (2k+3)!! <tau_(k+1) tau_D>_g
          = sum_j (2k+2d_j+1)!!/(2d_j-1)!! <tau_D, d_j -> d_j+k>_g
          + 1/2 sum_(r+s=k-1) (2r+1)!! (2s+1)!! (<tau_r tau_s tau_D>_(g-1)
              + sum_(I u J = D) <tau_r tau_I>_(g1) <tau_s tau_J>_(g-g1)),

    from <tau_0^3>_0 = 1 and <tau_1>_1 = 1/24.  A marking is a multiplicity
    vector, so a split I u J of D is a sub-vector a <= D, counted
    prod C(D_d, a_d) times, and its genus g1 is fixed by the dimension."""
    n = sum(counts)
    if g < 0 or sum(d * c for d, c in enumerate(counts)) != 3 * g - 3 + n:
        return Fraction(0)
    if (g, counts) in ((0, (3,)), (1, (0, 1))):
        return Fraction(1) if g == 0 else Fraction(1, 24)
    k = len(counts) - 2
    if k < 0:
        return Fraction(0)
    rest = _bump(counts, k + 1, -1)
    total = Fraction(0)
    for d, c in enumerate(rest):
        if c:
            total += c * Fraction(_double_factorial(2 * k + 2 * d + 1),
                                  _double_factorial(2 * d - 1)) \
                * psi_intersection(g, _bump(_bump(rest, d, -1), d + k, 1))
    for r in range(k):
        s = k - 1 - r
        pair = Fraction(_double_factorial(2 * r + 1)
                        * _double_factorial(2 * s + 1), 2)
        joined = psi_intersection(g - 1, _bump(_bump(rest, r, 1), s, 1))
        for part in product(*(range(c + 1) for c in rest)):
            left = _bump(tuple(part), r, 1)
            other = _bump(tuple(c - a for c, a in zip(rest, part)), s, 1)
            dim = sum(d * c for d, c in enumerate(left)) - sum(left) + 3
            if dim % 3 == 0:
                joined += prod(map(comb, rest, part)) \
                    * psi_intersection(dim // 3, left) \
                    * psi_intersection(g - dim // 3, other)
        total += pair * joined
    return total / _double_factorial(2 * k + 3)
