"""Truncated Laurent/power series over an exact coefficient field.

Coefficients are ``fractions.Fraction`` (or int) or
:class:`~crosscap.exactnum.QF3`.  A series knows its coefficients for
exponents in ``[low, order]``; below ``low`` they are ``zero``, above
``order`` unknown.  The library builds every series from its coefficients
and does no arithmetic on one.
"""

from __future__ import annotations

from fractions import Fraction


class SeriesError(ValueError):
    pass


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
