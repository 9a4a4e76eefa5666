"""Truncated power-series algebra over exact rationals.

A PowerSeries holds coefficients c_0..c_N of sum c_n z^n; N is the
truncation order, i.e. the last index at which the coefficients are
known to be correct.  All arithmetic is exact (fractions.Fraction) and
never pretends to know more than it does: the product of series valid
to orders N1 and N2 is valid to min(N1, N2), and that is the order of
the result.

_numerators, which puts a sequence of rationals over their least
common denominator, is the package's one place that clears
denominators: products convolve the integer numerators of each factor
and build one Fraction per output coefficient, operator fits build
integer rows from them, and a primitive integer vector is _numerators
followed by one gcd.  binomial_transform is the weight-w binomial
transform shared by the lattice tables and the Moebius pull-back.
_ratio is the package's one hypergeometric term ratio, two integer
polynomials expanded once: hyper_terms reads exact Fraction terms from
it, for the terminating a_l forms and the half-circle moments, and
hyper_terms_fixed integer terms in fixed point for every numeric pFq
sum.  horner_fixed, the other fixed-point kernel, sums a power series
with fixed-point coefficients at an exact rational point; between them
they take every numeric series sum of the package with integers only,
one floor per step, under the proved rounding bound of fixed_bits.
compose is Horner evaluation truncated to the orders that reach the
result, and reversion is Lagrange inversion whose result is checked by
composing it back.

A LogSeries represents sum_j f_j(z) log(z)^j / j! with PowerSeries
parts f_j.  This is the normalization in which a Frobenius basis at a
MUM point reads y_0 = f_0, y_1 = y_0 log z + g, y_2 = y_0 log^2 z/2 +
g log z + h, ..., i.e. part j of y_k is the same power series for
every k >= j.  theta = z d/dz acts part-wise as f_j -> theta f_j +
f_{j+1}, which is all the ODE machinery needs.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from math import comb, lcm, prod
from operator import mul
from typing import Iterable, Sequence, Union

from .errors import (
    BadConstantTerm,
    BadInnerConstant,
    NotReversible,
    ZeroConstantTerm,
)

Q = Fraction
Scalar = Union[int, Fraction]


def _q(x: Scalar) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def _numerators(cs: Sequence[Scalar]) -> tuple[list[int], int]:
    """Integer numerators of cs over their least common denominator."""
    d = lcm(*(c.denominator for c in cs))
    return [c.numerator * (d // c.denominator) for c in cs], d


def binomial_transform(f: Sequence[Scalar], w: Scalar) -> list[Scalar]:
    """g_n = sum_j C(n,j) w^(n-j) f_j for n < len(f): the coefficients of
    f(z/(1-wz))/(1-wz).  Row k of the difference triangle holds
    r_k(j) = sum_i C(k,i) w^(k-i) f_(j+i); r_(k+1)(j) = r_k(j+1) + w r_k(j),
    and g_n = r_n(0)."""
    row, out = list(f), []
    while row:
        out.append(row[0])
        row = [b + w * a for a, b in zip(row, row[1:])]
    return out


# -- fixed-point summation ----------------------------------------------------
#
# A real r is held as the integer R = floor(2^W r) or close to it, "W-bit
# fixed point", and an error of k units means |R - 2^W r| <= k.  The two
# kernels below take every step with exact integer arithmetic followed by
# one floor, so each step costs at most one unit, and the bounds follow.

FIXED_GUARD = 16


def fixed_bits(prec_bits: int, n: int) -> int:
    """W = prec_bits + 2 log2(n) + guard for a sum of n + 1 terms: the
    kernels' rounding error, at most (n + 1)^2 / 2 < 4^bitlength(n) units,
    is then below 2^-(prec_bits + FIXED_GUARD)."""
    return prec_bits + 2 * n.bit_length() + FIXED_GUARD


def horner_fixed(coeffs: Sequence[int], num: int, shift: int, den: int = 1) -> int:
    """sum_n c_n x^n in fixed point, by Horner's rule, for fixed-point c_n
    and the exact rational x = num / (den 2^shift), den > 0.

    Each step is acc <- floor(acc x) + c_n, one floor, since
    floor(floor(y / 2^shift) / den) = floor(y / (den 2^shift)).  With
    e_n the error of acc after the step for c_n and e_N = 0 (acc starts
    at c_N exactly), e_n = x e_(n+1) - f_n with 0 <= f_n < 1, so for
    |x| <= 1 the result is at most sum_(k<N) |x|^k <= N units from
    2^W sum c_n x^n, plus sum |x|^n |d_n| when c_n itself is d_n units
    off.  The coefficients are never scaled by a power of x, so large
    c_n cost no precision.
    """
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * num >> shift) // den + c
    return acc


def _poly_at(cs: Sequence[int], n: int) -> int:
    v = 0
    for c in cs:
        v = v * n + c
    return v


def _expand(factors: Sequence[tuple[int, int]], scale: int) -> list[int]:
    """scale prod (p + q n) over factors, as integer coefficients in n,
    highest power first."""
    cs = [scale]
    for p, q in factors:
        cs = [a * q + b * p for a, b in zip(cs + [0], [0] + cs)]
    return cs


def _ratio(upper: Sequence[Fraction], lower: Sequence[Fraction], num: int):
    """Integer polynomials P and Q in n, highest power first, with
    P(n) / Q(n) = num prod(u + n) / ((n + 1) prod(l + n)): the term ratio
    t_(n+1)/t_n of sum_n prod (u)_n / prod (l)_n x^n / n! at x = num,
    expanded once.  A nonpositive integer upper parameter -l makes P(l),
    and so every term past n = l, zero."""
    ups = [(u.numerator, u.denominator) for u in upper]
    lows = [(l.numerator, l.denominator) for l in lower] + [(1, 1)]
    return (_expand(ups, num * prod(q for _, q in lows)),
            _expand(lows, prod(q for _, q in ups)))


def hyper_terms(upper: Sequence[Fraction], lower: Sequence[Fraction], x=1):
    """The exact terms t_0 = 1, t_1, ... of
    sum_n prod (u)_n / prod (l)_n x^n / n! for rational x, as Fractions,
    by the integer term ratio _ratio: one multiplication and one division
    per term.  Numeric sums take the same ratio in fixed point,
    hyper_terms_fixed."""
    x = Q(x)
    top, bottom = _ratio(upper, lower, x.numerator)
    t = Q(1)
    for n in count():
        yield t
        t = t * _poly_at(top, n) / (x.denominator * _poly_at(bottom, n))


def hyper_terms_fixed(upper: Sequence[Fraction], lower: Sequence[Fraction], num: int,
                      shift: int, one: int):
    """t_0 = one, t_1, ... of sum_n prod (u)_n / prod (l)_n x^n / n! in
    fixed point, for x = num / 2^shift and one = 2^W.

    This is hyper_terms' term ratio, x = num / 2^shift times the integer
    polynomial quotient P(n) / Q(n) of _ratio at num, taken with one floor
    division: t_(n+1) = floor(t_n P(n) / (Q(n) 2^shift)).  A term costs
    one long multiplication, one shift and one division by the small
    integer Q(n); the shift and the division are one floor while Q(n) > 0, which positive lower parameters ensure (a
    negative Q(n) can cost a second unit).  With r_n = t_(n+1)/t_n
    exact, the error e_n of t_n obeys e_0 = 0 and
    e_(n+1) = r_n e_n - f_n, 0 <= f_n < 1, so
    |e_n| <= sum_(1<=k<=n) |t_n / t_k| units.  That is at most n when
    every |r_k| <= 1, as for |x| <= 1 and 0 < u <= l pairwise with n!
    counted as a lower 1 (the bcc and Rogers sums), and N + 1 terms then
    carry less than N^2 / 2 units in all (fixed_bits).  Where some ratio
    exceeds 1, the bound on e_n is n max_(k<=n) |t_n / t_k| instead.
    """
    top, bottom = _ratio(upper, lower, num)
    t = one
    for n in count():
        yield t
        t = (t * _poly_at(top, n) >> shift) // _poly_at(bottom, n)


class PowerSeries:
    """Exact rational power series truncated at a fixed order."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar], order: int | None = None):
        cs = [_q(c) for c in coeffs]
        if order is not None:
            if order < 0:
                raise ValueError("order must be >= 0")
            if len(cs) < order + 1:
                cs.extend([Q(0)] * (order + 1 - len(cs)))
            else:
                cs = cs[: order + 1]
        if not cs:
            cs = [Q(0)]
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def constant(c: Scalar, order: int) -> "PowerSeries":
        return PowerSeries([_q(c)], order=order)

    @staticmethod
    def one(order: int) -> "PowerSeries":
        return PowerSeries.constant(1, order)

    @staticmethod
    def zero(order: int) -> "PowerSeries":
        return PowerSeries.constant(0, order)

    @staticmethod
    def var(order: int) -> "PowerSeries":
        """The series z itself."""
        return PowerSeries([0, 1], order=order)

    # -- basic queries -------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> Fraction:
        if n < 0 or n > self.order:
            raise IndexError(f"coefficient {n} outside truncation order {self.order}")
        return self.coeffs[n]

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def valuation(self) -> int | None:
        """Index of the first nonzero coefficient, None for the zero series."""
        for i, c in enumerate(self.coeffs):
            if c != 0:
                return i
        return None

    def agrees_with(self, other: "PowerSeries", through: int) -> bool:
        if through > min(self.order, other.order):
            raise ValueError("comparison beyond common truncation order")
        return self.coeffs[: through + 1] == other.coeffs[: through + 1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[:6])
        tail = ", ..." if self.order >= 6 else ""
        return f"PowerSeries([{head}{tail}]; order={self.order})"

    # -- ring operations -----------------------------------------------------

    def truncate(self, order: int) -> "PowerSeries":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return PowerSeries(self.coeffs[: order + 1])

    def __add__(self, other: "PowerSeries | Scalar") -> "PowerSeries":
        if isinstance(other, (int, Fraction)):
            cs = list(self.coeffs)
            cs[0] += _q(other)
            return PowerSeries(cs)
        n = min(self.order, other.order)
        return PowerSeries([self.coeffs[i] + other.coeffs[i] for i in range(n + 1)])

    __radd__ = __add__

    def __neg__(self) -> "PowerSeries":
        return PowerSeries([-c for c in self.coeffs])

    def __sub__(self, other: "PowerSeries | Scalar") -> "PowerSeries":
        if isinstance(other, (int, Fraction)):
            return self + (-_q(other))
        return self + (-other)

    def __rsub__(self, other: Scalar) -> "PowerSeries":
        return (-self) + _q(other)

    def __mul__(self, other: "PowerSeries | Scalar") -> "PowerSeries":
        if isinstance(other, (int, Fraction)):
            k = _q(other)
            return PowerSeries([c * k for c in self.coeffs])
        n = min(self.order, other.order)
        a, da = _numerators(self.coeffs[: n + 1])
        b, db = _numerators(other.coeffs[: n + 1])
        rb, d = b[::-1], da * db
        # rb[n-m:] is b_m, ..., b_0, so each sum is c_m = sum_j a_j b_(m-j)
        return PowerSeries([Q(sum(map(mul, a[: m + 1], rb[n - m:])), d)
                            for m in range(n + 1)])

    __rmul__ = __mul__

    def __truediv__(self, other: "PowerSeries | Scalar") -> "PowerSeries":
        if isinstance(other, (int, Fraction)):
            k = _q(other)
            if k == 0:
                raise ZeroDivisionError("division of series by zero scalar")
            return self * (1 / k)
        return self.div(other)

    def div(self, other: "PowerSeries") -> "PowerSeries":
        if other.coeffs[0] == 0:
            raise ZeroConstantTerm("series division needs a unit constant term")
        n = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        inv_b0 = 1 / b[0]
        out = [Q(0)] * (n + 1)
        for i in range(n + 1):
            acc = a[i]
            for j in range(1, min(i, other.order) + 1):
                if b[j] != 0:
                    acc -= b[j] * out[i - j]
            out[i] = acc * inv_b0
        return PowerSeries(out)

    def shift(self, l: int) -> "PowerSeries":
        """Multiply by z^l (l >= 0).  Order grows by l: coefficients stay valid."""
        if l < 0:
            raise ValueError("shift exponent must be >= 0")
        return PowerSeries([Q(0)] * l + list(self.coeffs))

    def pow(self, k: int) -> "PowerSeries":
        if k < 0:
            return PowerSeries.one(self.order).div(self.pow(-k))
        result = PowerSeries.one(self.order)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # -- calculus ------------------------------------------------------------

    def theta(self) -> "PowerSeries":
        """z d/dz, coefficient-wise n*c_n.  Preserves the truncation order."""
        return PowerSeries([n * c for n, c in enumerate(self.coeffs)])

    def derivative(self) -> "PowerSeries":
        """d/dz; the result is valid one order lower."""
        if self.order == 0:
            return PowerSeries([Q(0)])
        return PowerSeries([n * self.coeffs[n] for n in range(1, self.order + 1)])

    def integrate(self) -> "PowerSeries":
        """Formal antiderivative with zero constant term; valid one order higher."""
        out = [Q(0)] * (self.order + 2)
        for n, c in enumerate(self.coeffs):
            out[n + 1] = c / (n + 1)
        return PowerSeries(out)

    def exp(self) -> "PowerSeries":
        if self.coeffs[0] != 0:
            raise BadConstantTerm("exp needs a series with zero constant term")
        n = self.order
        a = self.coeffs
        out = [Q(0)] * (n + 1)
        out[0] = Q(1)
        # f' = a' f  =>  n f_n = sum_{j=1..n} j a_j f_{n-j}
        for m in range(1, n + 1):
            acc = Q(0)
            for j in range(1, m + 1):
                if a[j] != 0:
                    acc += j * a[j] * out[m - j]
            out[m] = acc / m
        return PowerSeries(out)

    def log(self) -> "PowerSeries":
        if self.coeffs[0] != 1:
            raise BadConstantTerm("log needs a series with constant term 1")
        n = self.order
        a = self.coeffs
        out = [Q(0)] * (n + 1)
        # a g' = a'  =>  m a_0 g_m = m a_m - sum_{j=1..m-1} j g_j a_{m-j}
        for m in range(1, n + 1):
            acc = m * a[m]
            for j in range(1, m):
                if a[m - j] != 0:
                    acc -= j * out[j] * a[m - j]
            out[m] = acc / m
        return PowerSeries(out)

    def sqrt(self) -> "PowerSeries":
        if self.coeffs[0] != 1:
            raise BadConstantTerm("sqrt implemented for constant term 1 only")
        return (self.log() * Q(1, 2)).exp()

    # -- composition ---------------------------------------------------------

    def compose(self, inner: "PowerSeries") -> "PowerSeries":
        """a(b(z)) for b(0) = 0, by Horner evaluation truncated to what
        reaches the result: the partial sum r_i = a_i + b r_(i+1) is later
        multiplied by b^i, so only its first n - i + 1 coefficients count."""
        if inner.coeffs[0] != 0:
            raise BadInnerConstant("composition needs inner constant term 0")
        n = min(self.order, inner.order)
        b_over_z = PowerSeries(inner.coeffs[1: n + 1])
        result = PowerSeries([self.coeffs[n]])
        for i in range(n - 1, -1, -1):
            result = (result * b_over_z).shift(1) + self.coeffs[i]
        return result

    def reversion(self) -> "PowerSeries":
        """Compositional inverse b with a(b(q)) = q; needs a_0 = 0, a_1 != 0.

        Lagrange inversion: with h(w) = w/a(w), b_k = [w^(k-1)] h(w)^k / k.
        One division and n - 1 products give every h^k; the result is then
        checked by composing it back into a.
        """
        if self.coeffs[0] != 0 or self.order < 1 or self.coeffs[1] == 0:
            raise NotReversible("reversion needs a(0)=0 and a'(0) invertible")
        n = self.order
        h = PowerSeries.one(n - 1).div(PowerSeries(self.coeffs[1:]))
        out, hk = [Q(0), h.coeffs[0]], h
        for k in range(2, n + 1):
            hk = hk * h
            out.append(hk.coeffs[k - 1] / k)
        b = PowerSeries(out)
        if not self.compose(b).agrees_with(PowerSeries.var(n), n):
            raise NotReversible("reversion did not verify: a(b(q)) != q")
        return b


class LogSeries:
    """sum_j parts[j] * log(z)^j / j! with exact PowerSeries parts.

    All parts are kept at a common truncation order (the minimum of the
    inputs).  The list of parts is normalized so the top part is nonzero
    unless the whole object is zero.
    """

    __slots__ = ("parts",)

    def __init__(self, parts: Sequence[PowerSeries]):
        if not parts:
            raise ValueError("need at least one part")
        n = min(p.order for p in parts)
        ps = [PowerSeries(p.coeffs[: n + 1]) for p in parts]
        while len(ps) > 1 and ps[-1].is_zero():
            ps.pop()
        self.parts: tuple[PowerSeries, ...] = tuple(ps)

    @property
    def order(self) -> int:
        return self.parts[0].order

    @property
    def log_degree(self) -> int:
        return len(self.parts) - 1

    def part(self, j: int) -> PowerSeries:
        if j < len(self.parts):
            return self.parts[j]
        return PowerSeries.zero(self.order)

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.parts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LogSeries):
            return NotImplemented
        return self.parts == other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def __repr__(self) -> str:
        return f"LogSeries(log_degree={self.log_degree}, order={self.order})"

    def __add__(self, other: "LogSeries") -> "LogSeries":
        m = max(len(self.parts), len(other.parts))
        return LogSeries([self.part(j) + other.part(j) for j in range(m)])

    def __neg__(self) -> "LogSeries":
        return LogSeries([-p for p in self.parts])

    def __sub__(self, other: "LogSeries") -> "LogSeries":
        return self + (-other)

    def __mul__(self, other: "LogSeries | PowerSeries | Scalar") -> "LogSeries":
        if isinstance(other, (int, Fraction)):
            return LogSeries([p * _q(other) for p in self.parts])
        if isinstance(other, PowerSeries):
            other = LogSeries([other])
        # (sum f_j L^j/j!)(sum g_k L^k/k!) : part m = sum_{j+k=m} C(m,j) f_j g_k
        parts = []
        top = self.log_degree + other.log_degree
        for m in range(top + 1):
            acc: PowerSeries | None = None
            for j in range(m + 1):
                k = m - j
                if j > self.log_degree or k > other.log_degree:
                    continue
                term = (self.parts[j] * other.parts[k]) * comb(m, j)
                acc = term if acc is None else acc + term
            if acc is None:
                acc = PowerSeries.zero(min(self.order, other.order))
            parts.append(acc)
        return LogSeries(parts)

    __rmul__ = __mul__

    def theta(self) -> "LogSeries":
        """z d/dz: part j -> theta(f_j) + f_{j+1} (log-lowering included)."""
        parts = []
        for j in range(len(self.parts)):
            p = self.parts[j].theta()
            if j + 1 < len(self.parts):
                p = p + self.parts[j + 1]
            parts.append(p)
        return LogSeries(parts)
