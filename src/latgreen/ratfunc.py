"""Dense univariate polynomials and rational functions over Fraction.

Just enough commutative algebra for operator bookkeeping: Euclidean
division, gcd, rational root extraction for indicial equations, and
normalized rational-function arithmetic for the symmetric-square and
Wronskian identities.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

from .series import _numerators

Q = Fraction


class Poly:
    """Coefficients ascending; the zero polynomial has coeffs ()."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[Fraction | int]):
        cs = [Q(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def x(cls) -> "Poly":
        return cls((0, 1))

    @classmethod
    def const(cls, c) -> "Poly":
        return cls((c,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    @property
    def lead(self) -> Fraction:
        return self.coeffs[-1] if self.coeffs else Q(0)

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly((other,))
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly((other,))
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [Q(0)] * (n - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            a[i] += c
        return Poly(a)

    __radd__ = __add__

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly((other,))
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly([c * other for c in self.coeffs])
        if not self.coeffs or not other.coeffs:
            return Poly(())
        out = [Q(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        out = Poly((1,))
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Poly(()), self
        quo = [Q(0)] * (dq + 1)
        ob = other.coeffs
        for k in range(dq, -1, -1):
            if len(rem) == k + len(ob):
                f = rem[-1] / ob[-1]
                quo[k] = f
                for i, c in enumerate(ob):
                    rem[k + i] -= f * c
                while rem and rem[-1] == 0:
                    rem.pop()
        return Poly(quo), Poly(rem)

    def __call__(self, x):
        out = x * 0 if not isinstance(x, (int, Fraction)) else Q(0)
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def derivative(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def monic(self) -> "Poly":
        if not self:
            return self
        inv = 1 / self.lead
        return Poly([c * inv for c in self.coeffs])

    def __repr__(self):
        if not self:
            return "Poly(0)"
        bits = []
        for i, c in enumerate(self.coeffs):
            if c:
                bits.append(f"{c}*x^{i}" if i else f"{c}")
        return "Poly(" + " + ".join(bits) + ")"


def poly_gcd(a: Poly, b: Poly) -> Poly:
    while b:
        a, b = b, a.divmod(b)[1]
    return a.monic()


def rational_roots(p: Poly) -> tuple[list[Fraction], Poly]:
    """All rational roots with multiplicity, plus the root-free cofactor:
    p divided by x^v and by the monic linear factor of each nonzero root.
    Candidates a/b come from the primitive integer form of what is left:
    a divides its constant coefficient and b its leading one."""
    if not p:
        raise ValueError("zero polynomial")
    v = next(i for i, c in enumerate(p.coeffs) if c)
    roots = [Q(0)] * v
    cur = Poly(p.coeffs[v:])
    while cur.degree >= 1:
        ints, _ = _numerators(cur.coeffs)
        g = gcd(*ints)
        found = None
        for num in _divisors(abs(ints[0]) // g):
            for den in _divisors(abs(ints[-1]) // g):
                for s in (1, -1):
                    cand = Q(s * num, den)
                    if cur(cand) == 0:
                        found = cand
                        break
                if found is not None:
                    break
            if found is not None:
                break
        if found is None:
            break
        roots.append(found)
        cur, rem = cur.divmod(Poly((-found, 1)))
        assert not rem
    return sorted(roots), cur


def _divisors(n: int) -> list[int]:
    if n == 0:
        return [1]
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            out.add(n // d)
        d += 1
    return sorted(out)


class RatFunc:
    """num/den with gcd removed and den monic."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if isinstance(num, (int, Fraction)):
            num = Poly((num,))
        if den is None:
            den = Poly((1,))
        elif isinstance(den, (int, Fraction)):
            den = Poly((den,))
        if not den:
            raise ZeroDivisionError("zero denominator")
        if num:
            g = poly_gcd(num, den)
            if g.degree >= 1:
                num = num.divmod(g)[0]
                den = den.divmod(g)[0]
        else:
            den = Poly((1,))
        lead = den.lead
        if lead != 1:
            num = num * (1 / lead)
            den = den.monic()
        self.num = num
        self.den = den

    @classmethod
    def x(cls) -> "RatFunc":
        return cls(Poly.x())

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            other = RatFunc(other)
        return isinstance(other, RatFunc) and self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return bool(self.num)

    def _coerce(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            return RatFunc(other)
        return other

    def __add__(self, other):
        o = self._coerce(other)
        return RatFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        return RatFunc(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if not o.num:
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def derivative(self) -> "RatFunc":
        return RatFunc(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def __call__(self, x):
        return self.num(x) / self.den(x)

    def __repr__(self):
        return f"RatFunc({self.num!r}, {self.den!r})"
