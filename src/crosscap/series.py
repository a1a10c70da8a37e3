"""Truncated Laurent/power series over an exact coefficient field.

Coefficients are ``fractions.Fraction`` (or int) or
:class:`~crosscap.exactnum.QF3`.  A series knows its coefficients for
exponents in ``[low, order]`` and tracks the truncation order
pessimistically: addition keeps ``min`` of the known orders, and the product
of f and g is known through ``min(f.order + g.low, g.order + f.low)``.

Products run on integers: a coefficient list is scaled to integer
numerators over one common denominator (a QF3 list to two, its rational and
its sqrt3 parts), the convolution sums integer products, and each output
coefficient becomes a Fraction or QF3 once.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .exactnum import QF3


class SeriesError(ValueError):
    pass


def _is_scalar(x) -> bool:
    return isinstance(x, (int, Fraction, QF3))


def _over_qf3(*series) -> bool:
    """Whether any of the series has QF3 coefficients."""
    return any(isinstance(s.zero, QF3) or any(isinstance(c, QF3) for c in s.coeffs)
               for s in series)


def _scale(coeffs: list, qf3: bool) -> tuple[list[int], list[int] | None, int]:
    """Integers A, B and D > 0 with coeffs[i] = (A[i] + B[i] sqrt3) / D, D
    the lcm of the denominators; B is None when ``qf3`` is false."""
    if qf3:
        coeffs = [QF3._coerce(c) for c in coeffs]
        parts = [[c.a for c in coeffs], [c.b for c in coeffs]]
    else:
        parts = [coeffs]
    den = lcm(*(x.denominator for xs in parts for x in xs))
    scaled = [[x.numerator * (den // x.denominator) for x in xs] for xs in parts]
    return scaled[0], (scaled[1] if qf3 else None), den


def _convolve(xs: list[int], ys: list[int], n: int) -> list[int]:
    """The first n coefficients of the product of two integer series, each
    known to at least n terms."""
    return [sum(map(int.__mul__, xs[:e + 1], ys[e::-1])) for e in range(n)]


def _unscale(re: list[int], im: list[int] | None, den: int) -> list:
    """Coefficients re[i] / den, or (re[i] + im[i] sqrt3) / den when ``im``
    is given; one Fraction or QF3 per coefficient."""
    if im is None:
        return [Fraction(x, den) for x in re]
    return [QF3(Fraction(x, den), Fraction(y, den)) for x, y in zip(re, im)]


class Series:
    """Exact series  sum_{e=low}^{order} c_e * t^e  with truncation tracking."""

    __slots__ = ("low", "coeffs", "zero")

    def __init__(self, coeffs, low: int = 0, zero=Fraction(0)) -> None:
        coeffs = list(coeffs)
        # strip known-zero leading terms so the leading coefficient is nonzero
        while coeffs and not coeffs[0]:
            coeffs.pop(0)
            low += 1
        self.low = low
        self.coeffs = coeffs
        self.zero = zero

    @classmethod
    def from_terms(cls, terms: dict, order: int, zero=Fraction(0)) -> "Series":
        """Exact polynomial given by ``terms``, declared known through ``order``."""
        if terms and order < max(terms):
            raise SeriesError("declared order below a given term")
        if not terms:
            return cls([], order + 1, zero)
        low = min(terms)
        coeffs = [terms.get(e, zero) for e in range(low, order + 1)]
        return cls(coeffs, low, zero)

    @property
    def order(self) -> int:
        return self.low + len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, e: int):
        """Coefficient of t^e; raises beyond the known order."""
        if e > self.order:
            raise SeriesError(f"coefficient {e} beyond truncation order {self.order}")
        if e < self.low:
            return self.zero
        return self.coeffs[e - self.low]

    def coefficients(self, lo: int, hi: int) -> list:
        return [self.coefficient(e) for e in range(lo, hi + 1)]

    def truncate(self, order: int) -> "Series":
        if order >= self.order:
            return self
        return Series(self.coeffs[: order - self.low + 1], self.low, self.zero)

    def shift(self, k: int) -> "Series":
        """Multiply by t^k."""
        return Series(self.coeffs, self.low + k, self.zero)

    def _scalar_series(self, c) -> "Series":
        return Series.from_terms({0: c}, self.order, self.zero)

    def __add__(self, other):
        if _is_scalar(other):
            other = self._scalar_series(other)
        if not isinstance(other, Series):
            return NotImplemented
        lo = min(self.low, other.low)
        hi = min(self.order, other.order)
        if lo > hi:
            return Series([], hi + 1, self.zero)
        coeffs = [self.coefficient(e) + other.coefficient(e) for e in range(lo, hi + 1)]
        return Series(coeffs, lo, self.zero)

    __radd__ = __add__

    def __neg__(self):
        return Series([-c for c in self.coeffs], self.low, self.zero)

    def __sub__(self, other):
        if _is_scalar(other):
            other = self._scalar_series(other)
        if not isinstance(other, Series):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """Product; coefficient e is the convolution sum over the operands'
        coefficients, taken on their integer numerators over one common
        denominator each."""
        if _is_scalar(other):
            return Series([c * other for c in self.coeffs], self.low, self.zero)
        if not isinstance(other, Series):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return Series([], min(self.order, other.order) + 1, self.zero)
        n = min(len(self.coeffs), len(other.coeffs))
        qf3 = _over_qf3(self, other)
        a, b, d = _scale(self.coeffs[:n], qf3)
        c, e, d2 = _scale(other.coeffs[:n], qf3)
        re, im = _convolve(a, c, n), None
        if qf3:
            re = [x + 3 * y for x, y in zip(re, _convolve(b, e, n))]
            im = [x + y for x, y in zip(_convolve(a, e, n), _convolve(b, c, n))]
        return Series(_unscale(re, im, d * d2),
                      self.low + other.low, self.zero)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        """Coefficient equality over the common known exponent range."""
        if not isinstance(other, Series):
            return NotImplemented
        lo = min(self.low, other.low)
        hi = min(self.order, other.order)
        return all(self.coefficient(e) == other.coefficient(e) for e in range(lo, hi + 1))

    def __str__(self) -> str:
        if self.is_zero():
            return f"O(t^{self.order + 1})"
        parts = [f"({c})t^{e}" for e, c in enumerate(self.coeffs, start=self.low) if c]
        return " + ".join(parts) + f" + O(t^{self.order + 1})"

    def __repr__(self) -> str:
        return f"Series({self.coeffs!r}, low={self.low})"
