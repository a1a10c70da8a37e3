from collections import Counter
from fractions import Fraction
from math import comb, factorial, prod

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from crosscap.exactnum import SymConst, round_sum
from crosscap.extrapolation import matched_digits
from crosscap.sequences import p_of_g
from crosscap.specgeom import (SpectralCurveError, alpha2_series,
                               quadrangulation_counts, rp2_correlator_series,
                               x02_series)

# P(z, C) = 0 from _extend_quad's docstring, C = sum c[m] z^m, as
# {power of C: {power of z: coeff}}
CERTIFICATE = {4: {6: 3}, 3: {5: 12, 4: -6}, 2: {4: 18, 3: 24, 2: 1},
               1: {3: 12, 2: 66, 1: 8, 0: -2}, 0: {2: 3, 1: 36, 0: 10}}


def certificate(z, c, dz=False):
    """P(z, c), or its z-derivative P_z(z, c) when dz is true."""
    return sum(a * (j * z ** (j - 1) if dz else z ** j) * c ** k
               for k, row in CERTIFICATE.items() for j, a in row.items())


def truncated_mul(f, g, n):
    """The first n coefficients of the product of the series f and g."""
    return [sum(f[i] * g[e - i] for i in range(e + 1)) for e in range(n)]


def puiseux(a1, terms):
    """a_0 .. a_{terms-1} of the branch C = sum a_k s^k of P(z, C) = 0 at
    z = 1/12 - s^4/432, so s^4 = 36 (1 - 12z), from a_0 = 60 and a_1.

    P(1/12, C) = (C - 60)^4 / 995328, so a_k first enters P at s^(k+3), as
    4 a_1^3 a_k / 995328: each a_k solves that order with itself read as 0.
    """
    top = terms + 2
    # sum_j A_kj z^j for each power k of C, a polynomial in s^4
    z_rows = {k: [0] * (top + 1) for k in CERTIFICATE}
    for k, row in CERTIFICATE.items():
        for j, coeff in row.items():
            for i in range(min(j, top // 4) + 1):
                z_rows[k][4 * i] += (coeff * comb(j, i)
                                     * Fraction(1, 12) ** (j - i)
                                     * Fraction(-1, 432) ** i)
    a = [Fraction(60), Fraction(a1)]
    while len(a) < terms:
        order = len(a) + 3
        c = a + [0] * (order + 1 - len(a))
        residue, c_pow = 0, [1] + [0] * order
        for k in range(5):
            if k:
                c_pow = truncated_mul(c_pow, c, order + 1)
            residue += sum(z_rows[k][i] * c_pow[order - i]
                           for i in range(0, order + 1, 4))
        a.append(-residue * 995328 / (4 * a1 ** 3))
    return a


def expansion(a, n, dps):
    """[z^n] sum_k a_k s^k, rounded once: s^k = 6^(k/2) (1 - 12z)^(k/4) and
    [z^n] (1 - 12z)^(k/4) = 12^n prod_{j<n} (j - k/4) / n!
                          = 3^n prod_{j<n} (4j - k) / n!,
    so the even k sum to a rational and the odd k to a rational times sqrt6."""
    sums = [0, 0]
    for k, a_k in enumerate(a):
        sums[k % 2] += a_k * 6 ** (k // 2) * prod(4 * j - k for j in range(n))
    scale = Fraction(3 ** n, factorial(n))
    return round_sum([((1, 0, 1), (sums[0] * scale).as_integer_ratio()),
                      ((1, 0, 6), (sums[1] * scale).as_integer_ratio())], dps)


class TestAlpha2:
    def test_leading_coefficients(self):
        a2 = alpha2_series(6)
        assert a2.coefficient(0) == 1
        assert a2.coefficient(1) == -12

    def test_defining_identity(self):
        # 24 lam alpha^2 + 1 = sqrt(1 + 48 lam), squared and over 48 lam
        order = 200
        a2 = alpha2_series(order)
        assert (a2.low, a2.order) == (0, order)
        a = a2.coefficients(0, order)
        square = truncated_mul(a, a, order)
        residue = [12 * s + c for s, c in zip([0] + square, a)]
        assert residue == [1] + [0] * order


class TestX02:
    def test_principal_and_constant(self):
        x02 = x02_series(6)
        assert x02.low == -1
        assert x02.coefficient(-1) == Fraction(-1, 4)
        assert x02.coefficient(0) == -2

    def test_defining_identity(self):
        order = 12
        x02 = x02_series(order)
        a2 = alpha2_series(order)
        # -4 lam x0^2 - 1 - 8 lam alpha^2 through lam^(order + 1)
        residue = [-4 * x - 8 * a for x, a in zip(x02.coefficients(-1, order),
                                                   [0] + a2.coefficients(0, order))]
        assert residue == [1] + [0] * (order + 1)


class TestCorrelator:
    def test_first_two_coefficients(self):
        corr = rp2_correlator_series(4)
        assert corr.coefficient(0) == 5
        assert corr.coefficient(1) == -152  # = c_2 * (-4) = 38 * (-4)

    @pytest.mark.parametrize("order", [1, 5, 12, 25])
    def test_principal_part_exactly_zero(self, order):
        corr = rp2_correlator_series(order)
        assert corr.low >= 0


class TestQuadrangulationCounts:
    def test_first_seven(self):
        assert quadrangulation_counts(7) == \
            [5, 38, 331, 3098, 30330, 306276, 3163737]

    def test_integral_positive_through_20(self):
        counts = quadrangulation_counts(20)
        assert len(counts) == 20
        assert all(isinstance(c, int) and c > 0 for c in counts)
        assert all(b > a for a, b in zip(counts, counts[1:]))

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 120))
    def test_positive_integers_from_the_known_start(self, n):
        counts = quadrangulation_counts(n)
        assert len(counts) == n
        assert all(type(c) is int and c > 0 for c in counts)
        assert counts[:5] == [5, 38, 331, 3098, 30330][:n]

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            quadrangulation_counts(0)

    def test_certificate_equation_through_z199(self):
        n = 200
        c = quadrangulation_counts(n)
        powers = [[1] + [0] * (n - 1), c]
        for _ in range(3):
            last = powers[-1]
            powers.append([sum(last[i] * c[e - i] for i in range(e + 1))
                           for e in range(n)])
        total = [0] * n
        for k, row in CERTIFICATE.items():
            for j, a in row.items():
                for e in range(j, n):
                    total[e] += a * powers[k][e - j]
        assert total == [0] * n


def gluing_counts(n):
    """{chi: rooted connected maps with n quartic vertices and Euler
    characteristic chi}, by brute force over the real-symmetric Wick rule.

    Vertex v is Tr M^4 = M_ab M_bc M_cd M_da: half-edges 4v..4v+3 in its
    cyclic order, half-edge h = M_ij running from corner h (index i) to
    corner next(h) (index j).  Every pairing of the 4n half-edges is glued
    in every way, each pair M_ij M_kl untwisted (i = l, j = k) or twisted
    (i = k, j = l).  The classes of corners are the index cycles, the F
    faces, so chi = n - 2n + F.  A map with automorphism group G arises
    from n! 8^n / |G| gluings (relabellings, rotations and reflections of
    its vertices) and has 8n / |G| roots, so dividing by (n-1)! 8^(n-1)
    counts rooted maps; every division must be exact.
    """
    nxt = [h - h % 4 + (h + 1) % 4 for h in range(4 * n)]
    counts = Counter()

    def glue(free, faces, nfaces, vertices):
        # faces and vertices: a class label per corner and per vertex
        h, rest = free[0], free[1:]
        for i, k in enumerate(rest):
            joined = [vertices[h // 4] if c == vertices[k // 4] else c
                      for c in vertices]
            links = (((h, nxt[k]), (nxt[h], k)), ((h, k), (nxt[h], nxt[k])))
            if len(rest) == 1:  # the last pair: count without relabelling
                if len(set(joined)) == 1:
                    for (p, q), (r, s) in links:
                        a, b, c, d = faces[p], faces[q], faces[r], faces[s]
                        counts[nfaces - n - (a != b)
                               - (c != d and {c, d} != {a, b})] += 1
                return
            left = rest[:i] + rest[i + 1:]
            for (p, q), (r, s) in links:
                labels, f = faces, nfaces
                a, b = labels[p], labels[q]
                if a != b:
                    labels, f = [a if x == b else x for x in labels], f - 1
                c, d = labels[r], labels[s]
                if c != d:
                    labels, f = [c if x == d else x for x in labels], f - 1
                glue(left, labels, f, joined)

    glue(tuple(range(4 * n)), list(range(4 * n)), 4 * n, list(range(n)))
    scale = factorial(n - 1) * 8 ** (n - 1)
    assert all(total % scale == 0 for total in counts.values()), counts
    return {chi: total // scale for chi, total in counts.items()}


class TestBruteForceOracle:
    # rooted quadrangulations with n faces by chi: the dual maps' counts
    TABLE = {1: {2: 2, 1: 5, 0: 5},
             2: {2: 9, 1: 38, 0: 83, -1: 62},
             3: {2: 54, 1: 331, 0: 1162, -1: 1924, -2: 1281}}

    def test_counts_by_euler_characteristic(self):
        counts = {n: gluing_counts(n) for n in self.TABLE}
        assert counts == self.TABLE
        # the projective plane's row is the quartic curve's, the sphere's
        # Tutte's 2 3^n (2n)! / (n! (n+2)!)
        assert [counts[n][1] for n in counts] == quadrangulation_counts(3)
        assert all(counts[n][2] == Fraction(2 * 3 ** n * factorial(2 * n),
                                            factorial(n) * factorial(n + 2))
                   for n in counts)

class TestLeadingConstant:
    """c_n ~ K 12^n n^(-5/4) with K = 2 p_{1/2} exactly: the singular
    expansion of C at z = 1/12, then Flajolet-Odlyzko transfer."""

    def test_fourfold_root_at_the_singularity(self):
        # P(1/12, C) is the quartic (C - 60)^4 / 995328: it agrees at 5 points
        z = Fraction(1, 12)
        assert [certificate(z, 60 + d) for d in range(5)] == \
            [Fraction(d ** 4, 995328) for d in range(5)]
        assert certificate(z, 60, dz=True) == 2304

    def test_constant_is_twice_p_one_half(self):
        # C = 60 + c1 t + ..., t = (1 - 12z)^(1/4): the t^4 terms of P give
        # c1^4 / 995328 = P_z(1/12, 60) / 12, so c1^4 = 13824^2 = (48^2 6)^2
        z = Fraction(1, 12)
        c1_4 = 995328 * certificate(z, 60, dz=True) / 12
        assert c1_4 == 13824 ** 2 and 13824 == 48 ** 2 * 6
        # [z^m] t = 12^m prod_{j<m} (j - 1/4) / m! ~ 12^m m^(-5/4) / Gamma(-1/4)
        # and Gamma(-1/4) < 0, so c_n > 0 takes c1 = -48 sqrt6; c_n = c[n-1]
        # puts 12^(n-1), so K = c1 / (12 Gamma(-1/4))
        assert mpmath.gamma(mpmath.mpf(-1) / 4) < 0
        const = SymConst(Fraction(-48, 12), rad2=1, rad3=1,
                         gamma_arg=Fraction(-1, 4))
        p = p_of_g(1)
        assert const == SymConst(2 * p.coeff, rad2=p.rad2, rad3=p.rad3,
                                 pi_half=p.pi_half, gamma_arg=p.gamma_arg)

    def test_transfer_fit_matches(self):
        # c_n / (12^n n^(-5/4)) fitted by n^(-j/4), j < 20, at 20 points
        ns = range(2000, 2761, 40)
        counts = quadrangulation_counts(ns[-1])
        dps = 120
        with mpmath.workdps(dps):
            powers = mpmath.matrix([[mpmath.mpf(n) ** (-mpmath.mpf(j) / 4)
                                     for j in range(20)] for n in ns])
            scaled = mpmath.matrix([mpmath.mpf(counts[n - 1])
                                    / mpmath.mpf(12) ** n
                                    * mpmath.mpf(n) ** (mpmath.mpf(5) / 4)
                                    for n in ns])
            fitted = mpmath.lu_solve(powers, scaled)[0]
            exact = -4 * mpmath.sqrt(6) / mpmath.gamma(mpmath.mpf(-1) / 4)
        # measured: |fitted / exact - 1| = 2.9e-17
        assert matched_digits(fitted, exact, dps) == 17


class TestPuiseuxExpansion:
    """C's regular branch at z = 1/12 solved exactly in s = sqrt6 (1 -
    12z)^(1/4), and its coefficients of z^n against the counts."""

    def test_first_coefficients(self):
        assert puiseux(-48, 7) == [60, -48, 12, -2, Fraction(11, 3),
                                   Fraction(-21, 8), Fraction(2, 3)]

    def test_expansion_matches_the_counts(self):
        # measured: 7, 13 and 20 digits at n = 600 through s^11, s^24 and
        # s^40; the counts' index n is the power of z
        a = puiseux(-48, 41)
        count = quadrangulation_counts(601)[600]
        assert [matched_digits(expansion(a[:terms], 600, 40), count, 40)
                for terms in (12, 25, 41)] == [7, 13, 20]

    def test_other_real_branch_counts_negative(self):
        # a_1 = +48 is C(-s): its odd terms, the sqrt6 part, change sign
        a = puiseux(48, 12)
        assert a == [(-1) ** k * x for k, x in enumerate(puiseux(-48, 12))]
        assert all(expansion(a, n, 30) < 0 for n in (1, 10, 100, 600))


@pytest.mark.parametrize("build", [alpha2_series, x02_series,
                                   rp2_correlator_series])
@pytest.mark.parametrize("order", [0, -3])
def test_series_reject_order_below_one(build, order):
    with pytest.raises(ValueError):
        build(order)
