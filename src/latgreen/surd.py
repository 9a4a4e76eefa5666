"""Exact arithmetic in Q(sqrt(3)).

The 1/pi series of the registry have their multipliers, expansion points
and targets in this quadratic field.  QSqrt3 holds those records and
checks exact identities between them (the printed multipliers against
the general form).  Their partial sums are not carried here: exact
components would carry the field conjugate of the sum, thousands of bits
long, so analytic sums them in fixed point.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

import mpmath as mp

Q = Fraction
Rational = Union[int, Fraction]


class QSqrt3:
    """a + b*sqrt(3) with exact rational a, b."""

    __slots__ = ("a", "b")

    def __init__(self, a: Rational = 0, b: Rational = 0):
        self.a = Q(a)
        self.b = Q(b)

    def __repr__(self) -> str:
        return f"QSqrt3({self.a}, {self.b})"

    def __eq__(self, other: object) -> bool:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self) -> int:
        return hash((self.a, self.b))

    def __add__(self, other):
        o = _coerce(other)
        return QSqrt3(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return QSqrt3(-self.a, -self.b)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        o = _coerce(other)
        return QSqrt3(self.a * o.a + 3 * self.b * o.b, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def to_mpf(self) -> mp.mpf:
        """Value at the current mpmath working precision."""
        r3 = mp.sqrt(mp.mpf(3))
        return (
            mp.mpf(self.a.numerator) / self.a.denominator
            + (mp.mpf(self.b.numerator) / self.b.denominator) * r3
        )


def _coerce(x) -> QSqrt3 | None:
    if isinstance(x, QSqrt3):
        return x
    if isinstance(x, (int, Fraction)):
        return QSqrt3(x)
    return None

