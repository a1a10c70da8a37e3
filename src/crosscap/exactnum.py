"""Exact arithmetic foundations: the quadratic field Q(sqrt3), canonical
symbolic constants with Gamma normalization, and the float type, in the one
module that imports mpmath or reads an mpf's bits: exact values rounded once
to mpmath floats, printed, read back exactly and compared in digits.

Rationals are plain ``fractions.Fraction`` throughout; every operation in
this module is pure, and all values are immutable after construction,
deletion included: ``QF3`` and ``SymConst`` share one base, ``_Record``.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import isqrt, prod

DEFAULT_DPS = 200


class GammaPoleError(ValueError):
    """Gamma evaluated at a non-positive integer."""


class SymbolicConstantError(ValueError):
    """Numeric evaluation requested for a symbolic-only constant."""


def _check_dps(dps: int) -> None:
    """Reject a precision below one digit, before any other work."""
    if dps < 1:
        raise ValueError("dps must be >= 1")


class _Record:
    """Immutable record: fields set once, in ``__slots__`` order, equal and
    hashed by value, shown as Name(field=value, ...)."""

    __slots__ = ()

    def __init__(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _astuple(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __reduce__(self):
        return self.__class__, self._astuple()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"


# The one zero every QF3 component defaults to.
_ZERO = Fraction(0)


def _as_fraction(x) -> Fraction:
    # isinstance against Fraction, an ABC, is slow for an int
    if type(x) is Fraction:
        return x
    if isinstance(x, int):
        return Fraction(x) if x else _ZERO
    if isinstance(x, Fraction):
        return x
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


# ---------------------------------------------------------------------------
# exact -> float: one rounding
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=64)
def _dps_to_prec(dps: int) -> int:
    import mpmath
    return mpmath.libmp.dps_to_prec(dps)


@functools.lru_cache(maxsize=64)
def _constant(c: int, a, b: int, prec: int) -> tuple:
    """c pi^a sqrt(b) at prec bits as a signed (mantissa, exponent) pair; a
    is an integer or a half-integer."""
    import mpmath
    with mpmath.workprec(prec):
        sign, man, exp, _ = (c * mpmath.pi ** (mpmath.mpf(int(2 * a)) / 2)
                             * mpmath.sqrt(b))._mpf_
    return -man if sign else man, exp


def round_sum(parts, dps: int = DEFAULT_DPS):
    """The sum of c pi^a sqrt(b) p/q over the ((c, a, b), (p, q)) ``parts``,
    rounded once to dps digits, within 10^(1 - dps) relative, as an
    ``mpmath.mpf``.

    c, p, q are integers, a is an integer or a half-integer and b > 0.  Each
    part becomes one integer, its value floored at a common binary exponent
    by the keep-bits rule (``_round_window``): wp + 4 bits below the
    largest part, wp being 64 bits past dps, again wider while the parts
    cancel more than 40 of them; the integers are summed exactly and
    rounded once.  That exponent comes from the bit lengths of p and q, not
    from the value p/q, so one value written two ways (3/5 and 9/15) can be
    floored one exponent apart; the rounded sum agrees unless the exact sum
    lies within about 2^-60 of a final-bit unit of a rounding boundary
    (2^-27 at the most cancellation accepted, the integer sum keeping at
    least 28 bits past the final precision).  ``_round_run`` rounds a run
    of windows by the same rule, each constant over the run's
    denominators stepped from window to window within (i + 1) 2^-(wp+31)
    relative after i windows, so its values agree with this function's
    under the same bound.

    Constants with the same a and the same squarefree part of b are
    linearly dependent over Q, and their parts can sum to exactly 0, which
    no precision resolves: the first widening checks for that exactly and
    raises ``ValueError``, as does dps < 1.
    """
    _check_dps(dps)
    exact = [(const, p, q) for const, (p, q) in parts if p]

    def total_at(wp: int) -> tuple:
        # each part is below 2^(top + 1), and the largest at least 2^(top - 2)
        terms, top = [], None
        for const, p, q in exact:
            man, exp = _constant(*const, wp)
            terms.append((man, exp, p, q))
            bits = man.bit_length() + exp + p.bit_length() - q.bit_length()
            if top is None or bits > top:
                top = bits
        low = top - wp - 4
        total = 0
        for man, exp, p, q in terms:
            total += ((p * man << exp - low) // q if exp >= low
                      else p * man // (q << low - exp))
        return total, low

    return _round_window(total_at, exact, _dps_to_prec(dps), 64)[0]


def _round_run(terms, d0: int, steps, dps: int = DEFAULT_DPS) -> list:
    """The windows i = 0..k of a run, each rounded as ``round_sum`` rounds
    the parts ((c, a, b), (x[i], d_i)) of the (const, x) ``terms``, every x
    of length k + 1 and d_i = d0 steps[0] ... steps[i-1] with positive
    integer steps: a list of ``mpmath.mpf``.

    The keep-bits rule is ``round_sum``'s (``_round_window``); only the
    parts' integers are found another way.  Each term holds
    c pi^a sqrt(b) / d_i as a fixed-point integer R 2^e of W = wp + 32
    bits, stepped to the next window by one division by the step, shifted
    so that R keeps W bits, and recomputed from d_i only when a window
    widens.  Each floor there loses under 2^-(W-1) of R, so after i steps R
    is below the exact quotient by at most (i + 1) 2^-(W-1) relative: less
    than the constant's own rounding, 2^-wp, for runs under 2^31 windows.
    x[i] is read only down to 2^(low - e) / R, its lower bits moving the
    part by under one unit of 2^low, and the product is floored once more,
    so each part is within two units of 2^low, and the constant's error,
    where ``round_sum``'s is within one: the values keep its contract,
    agreeing with it unless the exact sum lies within about 2^-60 of a
    final-bit unit of a rounding boundary (2^-27 at the most cancellation
    accepted).

    Each window starts at the width the previous window was accepted at,
    so a row whose cancellation grows, as S_-1's high orders do, widens
    about once per 40 bits of it instead of once per window.  A window
    that cancels past its width widens, and its first widening checks for
    an exact 0 and raises ``ValueError`` as ``round_sum``'s does; so does
    dps < 1.
    """
    _check_dps(dps)
    prec, extra = _dps_to_prec(dps), 64
    width, recips, values = None, [], []
    for i, x in enumerate(zip(*(xs for _, xs in terms))):
        if i and recips:
            # each R 2^e, c pi^a sqrt(b) / d_{i-1}, to / d_i, kept W bits wide
            s = steps[i - 1]
            stepped = []
            for r, e in recips:
                t = width - r.bit_length() + s.bit_length()
                stepped.append(((r << t) // s, e - t))
            recips = stepped

        def total_at(wp: int) -> tuple:
            nonlocal recips, width
            if width != wp + 32:
                width, d = wp + 32, prod(steps[:i], start=d0)
                recips = []
                for const, _ in terms:
                    man, exp = _constant(*const, wp)
                    t = width + d.bit_length() - man.bit_length()
                    recips.append(((man << t) // d, exp - t))
            # each term below 2^bits and at least 2^(bits - 2): top = bits - 1
            top = max(xi.bit_length() + r.bit_length() + e
                      for xi, (r, e) in zip(x, recips) if xi) - 1
            low = top - wp - 4
            total = 0
            for xi, (r, e) in zip(x, recips):
                if xi:
                    # low - e > 0, R being wider than wp + 5 bits; the j bits
                    # of xi below 2^(low - e) / R move it by under one unit
                    shift = low - e
                    j = max(0, shift - r.bit_length())
                    total += (xi >> j) * r >> shift - j
            return total, low

        # the window's parts share d_i, so they sum to 0 as the xi do over 1
        exact = [(const, xi, 1) for (const, _), xi in zip(terms, x) if xi]
        value, extra = _round_window(total_at, exact, prec, extra)
        values.append(value)
    return values


def _round_window(total_at, exact, prec: int, extra: int) -> tuple:
    """The keep-bits rule both kernels share: one window of nonzero parts
    (c pi^a sqrt(b), p, q) rounded to prec bits, and the extra bits it
    was accepted at.  ``total_at(wp)`` floors each part at 2^low, low =
    top - wp - 4 with the largest part near 2^top, and returns the exact
    integer sum of the floors and low; wp is prec + extra.  A sum that
    lost at most extra - 24 bits to cancellation keeps at least 28 bits
    past prec and is rounded to nearest once; otherwise extra becomes
    the bits lost plus 64, after the first widening has checked the
    parts for an exact 0 (``_sums_to_zero``) and raised ``ValueError``
    on one.
    """
    import mpmath
    if not exact:
        return mpmath.mp.make_mpf(mpmath.libmp.fzero), extra
    first = True
    while True:
        wp = prec + extra
        total, low = total_at(wp)
        # bits cancelled; a zero total lost them all (the exact sum of
        # nonzero parts is not 0)
        lost = wp + 4 - total.bit_length()
        if lost <= extra - 24:
            # from_man_exp's rounding, with the bit count taken directly
            man = mpmath.libmp.MPZ(abs(total))
            return mpmath.mp.make_mpf(mpmath.libmp.normalize(
                int(total < 0), man, low, man.bit_length(), prec,
                "n")), extra
        if first and _sums_to_zero(exact):
            raise ValueError("the parts' constants are linearly dependent "
                             "over Q and the parts sum to exactly 0")
        first, extra = False, lost + 64


def _nstr(x, dps: int) -> str:
    """The printed decimal string of an ``mpmath.mpf`` at dps digits."""
    import mpmath
    return mpmath.nstr(x, dps, strip_zeros=True)


def _sums_to_zero(exact) -> bool:
    """Whether the (c pi^a sqrt(b), p, q) terms, p != 0, sum to exactly 0:
    each term is collected on the first constant pi^a sqrt(b0) with b b0 a
    square, as c p sqrt(b b0) / (q b0), and the groups are independent over
    Q.  A group of one term is 0 only if its c is, so only groups of two or
    more terms are summed, as Fractions."""
    groups: dict = {}
    for (c, a, b), p, q in exact:
        b0 = next((b0 for a0, b0 in groups
                   if a0 == a and isqrt(b * b0) ** 2 == b * b0), b)
        groups.setdefault((a, b0), []).append((c * isqrt(b * b0), p, q * b0))
    for terms in groups.values():
        if len(terms) == 1:
            if terms[0][0]:
                return False
        elif sum(Fraction(c * p, q) for c, p, q in terms):
            return False
    return True


def _mpf_ratio(x) -> tuple:
    """The exact value of an ``mpmath.mpf`` as integers (p, q), q a power of
    two; nan and the infinities, whose bit count is negative, raise
    ``ValueError``, and any other type, a Python float or int included,
    raises ``TypeError``."""
    mpf = getattr(x, "_mpf_", None)
    if mpf is None:
        raise TypeError(f"expected an mpmath.mpf, got {type(x).__name__}")
    sign, man, exp, bc = mpf
    if bc < 0:
        raise ValueError(f"cannot convert {x} to a rational number")
    if sign:
        man = -man
    return (man << exp, 1) if exp >= 0 else (man, 1 << -exp)


def matched_digits(value, target, dps: int) -> int:
    """Largest k with |value/target - 1| <= 0.5 * 10^(1-k), capped at dps:
    k = 1 - c for the least integer c with 2 rel <= 10^c, rel the quotient
    at dps digits, compared exactly in integers.  The inputs are anything
    ``mpmath.mpf`` converts, ints included, rounded to dps first, where
    ``relative_error`` and ``richardson`` take only an mpf, exactly.  Nan
    or inf raises ``ValueError``, a target of 0 ``ZeroDivisionError``.
    """
    _check_dps(dps)
    import mpmath
    with mpmath.workdps(dps):
        value, target = mpmath.mpf(value), mpmath.mpf(target)
        if not (mpmath.isfinite(value) and mpmath.isfinite(target)):
            raise ValueError(f"matched digits of {value} against {target}")
        if not target:
            raise ZeroDivisionError("matched digits against a target of 0")
        rel = abs(value / target - 1)
    if rel == 0:
        return dps
    num, den = _mpf_ratio(rel)  # rel = num/den, den a power of two
    # 2 rel >= 2^(bits of num - bits of den + 1): start c below the least
    c = int((num.bit_length() - den.bit_length() + 1) * 0.3010299956639812) - 2
    while 2 * num * 10 ** max(-c, 0) > den * 10 ** max(c, 0):
        c += 1
    return max(0, min(1 - c, dps))


def rational_to_float(q, dps: int = DEFAULT_DPS):
    """Round an exact rational once to ``dps`` decimal digits, as an
    ``mpmath.mpf``."""
    return round_sum([((1, 0, 1), _as_fraction(q).as_integer_ratio())], dps)


# ---------------------------------------------------------------------------
# Q(sqrt3)
# ---------------------------------------------------------------------------

class QF3(_Record):
    """Element a + b*sqrt(3) of Q(sqrt3) with exact Fraction components."""

    __slots__ = ("a", "b")

    def __init__(self, a=_ZERO, b=_ZERO) -> None:
        # the two slots set directly, in half the time _Record.__init__
        # takes: a QF3 is made once for each table value published
        object.__setattr__(self, "a", _as_fraction(a))
        object.__setattr__(self, "b", _as_fraction(b))

    @classmethod
    def _coerce(cls, x) -> "QF3 | None":
        if isinstance(x, QF3):
            return x
        if isinstance(x, (int, Fraction)):
            return cls(x)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QF3(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return QF3(-self.a, -self.b)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QF3(self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QF3(o.a - self.a, o.b - self.b)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QF3(self.a * o.a + 3 * self.b * o.b, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def norm(self) -> Fraction:
        return self.a * self.a - 3 * self.b * self.b

    def inverse(self) -> "QF3":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt3)")
        return QF3(self.a / n, -self.b / n)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        result, base = QF3(1), self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __hash__(self) -> int:
        # a rational hashes as its Fraction, which it equals
        return hash(self.a) if self.b == 0 else hash((self.a, self.b))

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    def parts(self, c: int = 1, a=0, b: int = 1) -> list:
        """This value times c pi^a sqrt(b), as ``round_sum`` parts."""
        return [((c, a, b), self.a.as_integer_ratio()),
                ((c, a, 3 * b), self.b.as_integer_ratio())]

    def to_float(self, dps: int = DEFAULT_DPS):
        return round_sum(self.parts(), dps)

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        if self.a == 0:
            return f"{self.b}√3"
        sign = "+" if self.b > 0 else "-"
        return f"{self.a}{sign}{abs(self.b)}√3"


SQRT3 = QF3(0, 1)


# ---------------------------------------------------------------------------
# canonical symbolic constants
# ---------------------------------------------------------------------------

class SymConst(_Record):
    """Canonical constant coeff * sqrt2^rad2 * sqrt3^rad3 * pi^(pi_half/2) / Gamma(gamma_arg).

    The constructor normalizes: arbitrary integer radical exponents are
    reduced to {0, 1}, and the Gamma argument a/d is moved into (-1, 1] by
    the functional equation, m unit steps taken at once as one exact
    product over the progression a - m d, ..., a - d (or a, ..., a + (m-1) d
    going up), with integer and half-integer Gammas absorbed into ``coeff``
    and ``pi_half``.  Equality is field-by-field on the canonical form.
    """

    __slots__ = ("coeff", "rad2", "rad3", "pi_half", "gamma_arg")

    def __init__(self, coeff, rad2: int = 0, rad3: int = 0,
                 pi_half: int = 0, gamma_arg=None) -> None:
        coeff = _as_fraction(coeff)
        gamma_arg = None if gamma_arg is None else _as_fraction(gamma_arg)

        if gamma_arg is not None:
            if gamma_arg.denominator == 1 and gamma_arg <= 0:
                raise GammaPoleError(f"Gamma({gamma_arg}) is a pole")
            a, d = gamma_arg.numerator, gamma_arg.denominator
            # m unit steps at once: Gamma(x) = Gamma(x - m) (x - 1)...(x - m)
            if gamma_arg > 1:
                m = (a - 1) // d
                coeff *= Fraction(d ** m, prod(range(a - m * d, a, d)))
                gamma_arg = Fraction(a - m * d, d)
            elif gamma_arg <= -1:
                m = -a // d
                coeff *= Fraction(prod(range(a, a + m * d, d)), d ** m)
                gamma_arg = Fraction(a + m * d, d)
            if gamma_arg == 1:
                gamma_arg = None
            elif gamma_arg == Fraction(1, 2):
                pi_half -= 1
                gamma_arg = None
            elif gamma_arg == Fraction(-1, 2):
                coeff *= Fraction(-1, 2)
                pi_half -= 1
                gamma_arg = None

        q2, rad2 = divmod(rad2, 2)
        q3, rad3 = divmod(rad3, 2)
        coeff *= Fraction(2) ** q2 * Fraction(3) ** q3

        if coeff == 0:
            rad2 = rad3 = pi_half = 0
            gamma_arg = None

        super().__init__(coeff, rad2, rad3, pi_half, gamma_arg)

    def to_float(self, dps: int = DEFAULT_DPS):
        if self.gamma_arg is not None:
            raise SymbolicConstantError(
                f"symbolic-only constant: Gamma({self.gamma_arg}) is not "
                "evaluated numerically")
        const = (1, Fraction(self.pi_half, 2), 2 ** self.rad2 * 3 ** self.rad3)
        return round_sum([(const, self.coeff.as_integer_ratio())], dps)

    def _pi_tokens(self, half: int) -> str:
        whole, rem = divmod(half, 2)
        out = ""
        if whole == 1:
            out += "π"
        elif whole > 1:
            out += f"π^{whole}"
        if rem:
            out += "√π"
        return out

    def __str__(self) -> str:
        if self.coeff == 0:
            return "0"
        num = self.coeff.numerator
        den = self.coeff.denominator
        sign = "-" if num < 0 else ""
        num = abs(num)

        if self.rad2 and self.rad3:
            rad = "√6"
        elif self.rad2:
            rad = "√2"
        elif self.rad3:
            rad = "√3"
        else:
            rad = ""

        num_str = rad + (self._pi_tokens(self.pi_half) if self.pi_half > 0 else "")
        if num != 1 or not num_str:
            num_str = str(num) + num_str

        den_tokens = []
        if den != 1:
            den_tokens.append(str(den))
        if self.pi_half < 0:
            den_tokens.append(self._pi_tokens(-self.pi_half))
        if self.gamma_arg is not None:
            den_tokens.append(f"Γ({self.gamma_arg})")
        if not den_tokens:
            return sign + num_str
        den_str = "".join(den_tokens)
        if len(den_tokens) > 1:
            den_str = f"({den_str})"
        return f"{sign}{num_str}/{den_str}"
