"""Theta-form differential operators and the structure checks built on them.

An operator here is sum_{l=0}^{k} z^l P_l(theta) with theta = z d/dz and
exact rational P_l.  Everything acts on series in the operator's own
variable: for the even-step lattices that variable is the one in which
the stored table IS the solution, i.e. y = sum a_{2n} z^n with raw
integer counts (so bcc4's theta^4 - 16z(2theta+1)^4 kills
sum C(2n,n)^4 z^n directly, and the quadratic map back to the physical
expansion variable is recorded in the operator's note string).

The Frobenius machinery works at a MUM point by running the coefficient
recurrence over truncated jets in the local exponent eps; the jet
coefficients are exactly the log-part series of the basis
    y_j = sum_{m<=j} A_{j-m} log(z)^m / m!,
which is the layout LogSeries stores.  The Yukawa coupling, instanton
inversion, the five Calabi-Yau structure conditions, the Appell
symmetric-square test and the fifth-order Wronskian chain all sit on
top of that basis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, gcd
from typing import Sequence

from .errors import (
    FitFailure,
    InsufficientTerms,
    NotMUM,
    NotSymmetricSquare,
    UnknownOperator,
)
# nullspace_fraction is not called here; perfbench/spans.py wraps it by this name
from .linalg import nullspace_fraction, nullspace_modular
from .ratfunc import Poly, RatFunc, rational_roots
from .reports import ConditionReport, VerifyReport
from .series import LogSeries, PowerSeries

Q = Fraction

# Rows a fit needs beyond its unknowns before it is attempted.
_GUARD = 5


def _falling(i: int) -> Poly:
    """theta (theta-1) ... (theta-i+1); empty product for i=0."""
    p = Poly([1])
    for m in range(i):
        p = p * Poly([-m, 1])
    return p


def _stirling2(n: int) -> list[list[int]]:
    s = [[0] * (n + 1) for _ in range(n + 1)]
    s[0][0] = 1
    for j in range(1, n + 1):
        for i in range(1, j + 1):
            s[j][i] = i * s[j - 1][i] + s[j - 1][i - 1]
    return s


class ThetaOperator:
    """sum_l z^l P_l(theta), exact rational coefficients.

    p[l][j] is the theta^j coefficient of P_l.  Content normalization
    (integer entries, unit gcd, first nonzero entry of P_0 positive) is
    applied on construction so equality means equality.
    """

    __slots__ = ("p", "note")

    def __init__(self, p: Sequence[Sequence], note: str = ""):
        rows = [[Q(c) for c in row] for row in p]
        if not rows:
            raise ValueError("need at least P_0")
        # trim trailing zero polynomials (degree) and trailing zero coeffs
        while len(rows) > 1 and all(c == 0 for c in rows[-1]):
            rows.pop()
        width = max(len(r) for r in rows)
        for r in rows:
            r.extend([Q(0)] * (width - len(r)))
        while width > 1 and all(r[width - 1] == 0 for r in rows):
            for r in rows:
                r.pop()
            width -= 1
        den = 1
        for r in rows:
            for c in r:
                den = den * c.denominator // gcd(den, c.denominator)
        ints = [[int(c * den) for c in r] for r in rows]
        g = 0
        for r in ints:
            for c in r:
                g = gcd(g, c)
        if g == 0:
            raise ValueError("zero operator")
        first = next(c for r in ints for c in r if c != 0)
        if first < 0:
            g = -g
        self.p: tuple[tuple[Fraction, ...], ...] = tuple(
            tuple(Q(c, g) for c in r) for r in ints
        )
        self.note = note

    @property
    def order(self) -> int:
        return len(self.p[0]) - 1

    @property
    def degree(self) -> int:
        return len(self.p) - 1

    def P(self, l: int) -> Poly:
        return Poly(list(self.p[l]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ThetaOperator):
            return NotImplemented
        return self.p == other.p

    def __hash__(self) -> int:
        return hash(self.p)

    def __repr__(self) -> str:
        return f"ThetaOperator(order={self.order}, degree={self.degree})"

    # -- action on series ----------------------------------------------------

    def apply(self, f: "LogSeries | PowerSeries") -> LogSeries:
        if isinstance(f, PowerSeries):
            f = LogSeries.from_power_series(f)
        thetas = [f]
        for _ in range(self.order):
            thetas.append(thetas[-1].theta())
        acc: LogSeries | None = None
        for l, row in enumerate(self.p):
            term: LogSeries | None = None
            for j, c in enumerate(row):
                if c == 0:
                    continue
                t = thetas[j] * c
                term = t if term is None else term + t
            if term is None:
                continue
            term = term.shift(l)
            acc = term if acc is None else acc + term
        assert acc is not None
        return acc

    def annihilates(self, f: "LogSeries | PowerSeries") -> VerifyReport:
        out = self.apply(f)
        n = out.order
        for i in range(n + 1):
            for part in out.parts:
                if part[i] != 0:
                    return VerifyReport(False, n, first_mismatch=i,
                                        note="first nonzero output coefficient")
        return VerifyReport(True, n)

    def is_mum(self) -> bool:
        """P_0 proportional to theta^order."""
        row = self.p[0]
        return row[-1] != 0 and all(c == 0 for c in row[:-1])

    def series_solution(self, n_max: int) -> PowerSeries:
        """The log-free solution normalized to 1 at 0 (needs MUM)."""
        if not self.is_mum():
            raise NotMUM("series solution at 0 requires P_0 = c theta^r")
        out = [Q(1)]
        for n in range(1, n_max + 1):
            s = Q(0)
            for l in range(1, min(n, self.degree) + 1):
                pl = self.p[l]
                m = n - l
                acc, pw = Q(0), Q(1)
                for c in pl:
                    if c:
                        acc += c * pw
                    pw *= m
                s += acc * out[m]
            out.append(-s / (self.p[0][-1] * Q(n) ** self.order))
        return PowerSeries(out)


# -- registry ----------------------------------------------------------------


def _op_bcc4() -> ThetaOperator:
    th = Poly([0, 1])
    p0 = th ** 4
    p1 = Poly([1, 2]) ** 4 * Q(-16)
    return ThetaOperator([p0.coeffs, p1.coeffs],
                         note="kills sum C(2n,n)^4 z^n; physical P(0;w)=y(w^2/256)")


def _op_sc4() -> ThetaOperator:
    th = Poly([0, 1])
    p0 = th ** 4
    p1 = Poly([1, 2]) ** 2 * Poly([2, 5, 5]) * Q(-4)
    p2 = Poly([1, 1]) ** 2 * Poly([1, 2]) * Poly([3, 2]) * Q(256)
    return ThetaOperator(
        [p0.coeffs, p1.coeffs, p2.coeffs],
        note="kills sum binom(2n,n) S_n^(4) z^n; physical P(0;w)=y(w^2/64)")


def _op_diamond4() -> ThetaOperator:
    th = Poly([0, 1])
    p0 = th ** 4
    p1 = -Poly([5, 28, 63, 70, 35])
    p2 = Poly([1, 1]) ** 2 * Poly([285, 518, 259])
    p3 = Poly([1, 1]) ** 2 * Poly([2, 1]) ** 2 * Q(-225)
    return ThetaOperator(
        [p0.coeffs, p1.coeffs, p2.coeffs, p3.coeffs],
        note="kills sum S_n^(5) z^n; physical P(0;w)=y(w^2/25)")


def _op_fcc4() -> ThetaOperator:
    th = Poly([0, 1])
    p0 = th ** 4
    p1 = Poly([0, -4, -19, -30, 39])
    p2 = Poly([-192, -676, -1057, -1070, 16]) * 2
    p3 = Poly([316, 600, 566, 171]) * Poly([2, 3]) * Q(-36)
    p4 = Poly([702, 2173, 2635, 1542, 384]) * Q(-(2 ** 5) * 3 ** 3)
    p5 = Poly([4584, 8378, 5571, 1393]) * Poly([1, 1]) * Q(-(2 ** 6) * 3 ** 3)
    p6 = Poly([98, 105, 31]) * Poly([1, 1]) * Poly([2, 1]) * Q(-(2 ** 10) * 3 ** 5)
    p7 = Poly([1, 1]) * Poly([2, 1]) ** 2 * Poly([3, 1]) * Q(-(2 ** 12) * 3 ** 7)
    return ThetaOperator(
        [p0.coeffs, p1.coeffs, p2.coeffs, p3.coeffs,
         p4.coeffs, p5.coeffs, p6.coeffs, p7.coeffs],
        note="kills the 4d fcc count series sum a_n z^n (a_2=24); "
             "singular points 0, 1/24, -1/3, -1/4, -1/8, -1/12")


def _op_sc3() -> ThetaOperator:
    # Mechanical rewrite of the third-order x-space ODE
    # 4x^2(x-1)(x-9)f''' + 12x(2x^2-15x+9)f'' + 3(9x^2-44x+12)f' + 3(x-2)f = 0
    # into theta form, then rescaled so P_0 = theta^3 and the solution is the
    # raw even-count series sum a_{2n} z^n (a_1 = 6).
    return ThetaOperator(
        [[0, 0, 0, 1],
         [-6, -32, -60, -40],
         [108, 396, 432, 144]],
        note="kills sum a_{2n}(sc3) z^n; z = x/36 with x the physical z^2")


def _op_iwan(d: int) -> ThetaOperator:
    th = Poly([0, 1])
    p0 = th ** d
    p1 = Poly([1, 2]) ** d * Q(-(2 ** d))
    return ThetaOperator([p0.coeffs, p1.coeffs],
                         note=f"kills sum C(2n,n)^{d} z^n (hyper-bcc, d={d})")


def triple_operator(order: int, a, b, c) -> ThetaOperator:
    """Order-2 and order-3 operators of the Beukers/Zagier families."""
    th = Poly([0, 1])
    a, b, c = Q(a), Q(b), Q(c)
    if order == 2:
        p0 = th * th
        p1 = -Poly([b, a, a])
        p2 = Poly([1, 1]) ** 2 * c
    elif order == 3:
        p0 = th ** 3
        p1 = -(Poly([1, 2]) * Poly([b, a, a]))
        p2 = Poly([1, 1]) ** 3 * c
    else:
        raise ValueError("triple operators exist for orders 2 and 3")
    return ThetaOperator([p0.coeffs, p1.coeffs, p2.coeffs],
                         note=f"triple ({a},{b},{c}) order {order}")


_REGISTRY = {
    "bcc4": _op_bcc4,
    "sc4": _op_sc4,
    "diamond4": _op_diamond4,
    "fcc4": _op_fcc4,
    "sc3": _op_sc3,
    "apery-zeta2": lambda: triple_operator(2, 11, 3, -1),
    "apery-zeta3": lambda: triple_operator(3, 17, 5, 1),
}


def registry(name: str) -> ThetaOperator:
    if name in _REGISTRY:
        return _REGISTRY[name]()
    if name.startswith("iwan"):
        try:
            d = int(name[4:])
        except ValueError:
            raise UnknownOperator(name) from None
        if d < 1:
            raise UnknownOperator(name)
        return _op_iwan(d)
    raise UnknownOperator(name)


def registry_names() -> list[str]:
    return sorted(_REGISTRY) + ["iwan<d>"]


def rescale_operator(op: ThetaOperator, lam) -> ThetaOperator:
    """Operator for y(z/lam) when op kills y(z): P_l picks up lam^l."""
    lam = Q(lam)
    rows, s = [], Q(1)
    for row in op.p:
        rows.append([c * s for c in row])
        s *= lam
    return ThetaOperator(rows, note=op.note + f" [z -> {lam} z]")


# -- D-form conversions ------------------------------------------------------


def to_dform(op: ThetaOperator) -> list[Poly]:
    """Polynomials B_i with op = sum_i B_i(z) D^i, via theta^j = sum S2(j,i) z^i D^i."""
    r = op.order
    s2 = _stirling2(r)
    out = [Poly([0]) for _ in range(r + 1)]
    for l, row in enumerate(op.p):
        for i in range(r + 1):
            c = sum(row[j] * s2[j][i] for j in range(i, r + 1))
            if c:
                out[i] = out[i] + Poly([Q(0)] * (l + i) + [c])
    return out


def from_dform(bs: Sequence[Poly], note: str = "") -> ThetaOperator:
    """Inverse of to_dform: z^m D^i = z^(m-i) * theta(theta-1)..;  the whole
    operator is premultiplied by the z power that clears negative shifts."""
    terms: dict[int, Poly] = {}
    for i, b in enumerate(bs):
        fall = _falling(i)
        for m, c in enumerate(b.coeffs):
            if c == 0:
                continue
            l = m - i
            terms[l] = terms.get(l, Poly([0])) + fall * c
    if not terms:
        raise ValueError("zero operator")
    lo = min(terms)
    hi = max(terms)
    rows = []
    for l in range(lo, hi + 1):
        rows.append(list(terms.get(l, Poly([0])).coeffs))
    return ThetaOperator(rows, note=note)


def monic_dform(op: ThetaOperator) -> list[RatFunc]:
    """[a_0 .. a_{r-1}] with op equivalent to D^r + a_{r-1} D^(r-1) + ... + a_0."""
    bs = to_dform(op)
    top = bs[-1]
    if not top:
        raise ValueError("leading D coefficient vanishes")
    return [RatFunc(b, top) for b in bs[:-1]]


# -- exchange format ---------------------------------------------------------


def write_operator(op: ThetaOperator) -> str:
    lines = []
    for l, row in enumerate(op.p):
        body = " ".join(
            str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
            for c in row)
        lines.append(f"{l} : {body}")
    return "\n".join(lines) + "\n"


def parse_operator(text: str, note: str = "") -> ThetaOperator:
    rows: dict[int, list[Fraction]] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, body = line.partition(":")
        l = int(head.strip())
        rows[l] = [Q(tok) for tok in body.split()]
    if not rows or min(rows) != 0:
        raise ValueError("operator file must contain lines l : c_0 ... starting at l=0")
    k = max(rows)
    return ThetaOperator([rows.get(l, [Q(0)]) for l in range(k + 1)], note=note)


# -- fitting -----------------------------------------------------------------


def _row_scale_int(row: list[Fraction]) -> list[int]:
    den = 1
    for c in row:
        den = den * c.denominator // gcd(den, c.denominator)
    return [int(c * den) for c in row]


def fit_ode(series: PowerSeries, r: int, k: int, note: str = "") -> ThetaOperator | None:
    """Exact annihilator of shape sum_{l<=k} z^l P_l(theta), deg P_l <= r.

    Returns None when the only solution is zero.  The linear system runs
    over every available coefficient, at least _GUARD more than the
    unknowns, so the extra rows are confirmatory by construction.  It is
    solved by the modular route (mod-p elimination, CRT and rational
    reconstruction), which checks its lifted basis exactly against every
    row; the operator is then re-verified against the series before
    being returned.
    """
    unknowns = (r + 1) * (k + 1)
    n_terms = series.order + 1
    if n_terms < unknowns + _GUARD:
        raise InsufficientTerms(
            f"need {unknowns + _GUARD} coefficients for r={r} k={k}, have {n_terms}")
    rows = []
    for n in range(n_terms):
        row = [Q(0)] * unknowns
        for l in range(min(n, k) + 1):
            fm = series[n - l]
            if fm == 0:
                continue
            pw = Q(1)
            base = l * (r + 1)
            for j in range(r + 1):
                row[base + j] = fm * pw
                pw *= n - l
        rows.append(row)
    int_rows = [_row_scale_int(row) for row in rows]
    basis = nullspace_modular(int_rows, unknowns)
    if not basis:
        return None
    if len(basis) > 1:
        raise FitFailure(
            f"nullspace dimension {len(basis)} for r={r} k={k}: shape too generous")
    v = basis[0]
    op = ThetaOperator([[v[l * (r + 1) + j] for j in range(r + 1)]
                        for l in range(k + 1)], note=note)
    check = op.annihilates(series)
    if not check:
        raise FitFailure("candidate operator fails re-verification")
    return op


def fit_minimal_degree(series: PowerSeries, r: int, k_max: int,
                       note: str = "") -> ThetaOperator:
    """First k in 1..k_max admitting a fit.  InsufficientTerms is raised
    at the first shape the series is too short for."""
    for k in range(1, k_max + 1):
        op = fit_ode(series, r, k, note=note)
        if op is not None:
            return op
    raise FitFailure(f"no order-{r} operator of degree <= {k_max}")


# -- indicial data -----------------------------------------------------------


@dataclass(frozen=True)
class IndicialReport:
    exponents_zero: tuple[Fraction, ...]
    exponents_infinity: tuple[Fraction, ...]
    zero_complete: bool
    infinity_complete: bool
    mum: bool
    condition_three: bool


def indicial(op: ThetaOperator) -> IndicialReport:
    """Exponents at 0 (roots of P_0) and infinity (roots of P_k negated).

    Exponent lists only contain rational roots; the *_complete flags say
    whether they account for the full degree.
    """
    z_roots, z_cof = rational_roots(op.P(0))
    r = op.order
    mum = len(z_roots) == r and all(x == 0 for x in z_roots)
    pk = op.P(op.degree)
    i_roots, i_cof = rational_roots(Poly([c * (-1) ** j for j, c in enumerate(pk.coeffs)]))
    i_roots = sorted(i_roots)
    cond3 = False
    if len(i_roots) == 4 and i_cof.degree == 0 and all(x > 0 for x in i_roots):
        cond3 = i_roots[0] + i_roots[3] == i_roots[1] + i_roots[2]
    return IndicialReport(
        exponents_zero=tuple(sorted(z_roots)),
        exponents_infinity=tuple(i_roots),
        zero_complete=z_cof.degree == 0,
        infinity_complete=i_cof.degree == 0,
        mum=mum,
        condition_three=cond3,
    )


# -- Frobenius basis via eps-jets --------------------------------------------


def _jmul(a: tuple, b: tuple, r: int) -> tuple:
    out = [Q(0)] * r
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j in range(r - i):
            bj = b[j]
            if bj:
                out[i + j] += ai * bj
    return tuple(out)


def _jinv(a: tuple, r: int) -> tuple:
    if a[0] == 0:
        raise ZeroDivisionError("jet not invertible")
    out = [Q(0)] * r
    out[0] = 1 / a[0]
    for m in range(1, r):
        acc = Q(0)
        for j in range(1, m + 1):
            if a[j]:
                acc += a[j] * out[m - j]
        out[m] = -acc * out[0]
    return tuple(out)


def _jpoly(coeffs: Sequence[Fraction], n: int, r: int) -> tuple:
    """P(n + eps) truncated at eps^r, by Horner with base (n, 1, 0, ...)."""
    out = (Q(0),) * r
    base = (Q(n), Q(1)) + (Q(0),) * (r - 2) if r >= 2 else (Q(n),)
    for c in reversed(coeffs):
        out = _jmul(out, base, r)
        out = (out[0] + c,) + out[1:]
    return out


@dataclass(frozen=True)
class FrobeniusBasis:
    solutions: tuple[LogSeries, ...]
    order: int

    def __iter__(self):
        return iter(self.solutions)

    def __getitem__(self, j: int) -> LogSeries:
        return self.solutions[j]

    def log_free_parts(self) -> tuple[PowerSeries, ...]:
        """A_0 .. A_{r-1}: the log^0 part of each basis element."""
        return tuple(y.part(0) for y in self.solutions)


def frobenius(op: ThetaOperator, n_max: int) -> FrobeniusBasis:
    """Canonical basis at a MUM point: y_j has pure log-degree j and the
    non-top series parts all vanish at 0."""
    if not op.is_mum():
        raise NotMUM("Frobenius basis implemented at MUM points only")
    r = op.order
    lead = op.p[0][-1]
    jets: list[tuple] = [(Q(1),) + (Q(0),) * (r - 1)]
    for n in range(1, n_max + 1):
        s = (Q(0),) * r
        for l in range(1, min(n, op.degree) + 1):
            pl = _jpoly(op.p[l], n - l, r)
            s = tuple(x + y for x, y in zip(s, _jmul(pl, jets[n - l], r)))
        p0 = _jpoly(op.p[0], n, r)  # = lead*(n+eps)^r, invertible for n >= 1
        a_n = _jmul(tuple(-x for x in s), _jinv(p0, r), r)
        jets.append(a_n)
    cols = [PowerSeries([jets[n][m] for n in range(n_max + 1)]) for m in range(r)]
    sols = [LogSeries([cols[j - m] for m in range(j + 1)]) for j in range(r)]
    return FrobeniusBasis(tuple(sols), n_max)


def theta_wronskian(yj: LogSeries, yk: LogSeries) -> LogSeries:
    """x * (y_j y_k' - y_j' y_k), i.e. y_j theta y_k - theta y_j . y_k."""
    return yj * yk.theta() - yj.theta() * yk


def wronskian_cy_check(op: ThetaOperator, n_max: int) -> VerifyReport:
    """Calabi-Yau condition two in its Wronskian form: among the pairwise
    Wronskians of the Frobenius basis, w_{03} = w_{12}.  Both sides are
    carried as x*w (the theta form), which drops the common 1/x and keeps
    everything a clean LogSeries; the identity is unaffected."""
    if op.order != 4:
        raise NotMUM("Wronskian condition is for order-4 operators")
    y = frobenius(op, n_max).solutions
    diff = theta_wronskian(y[0], y[3]) - theta_wronskian(y[1], y[2])
    if diff.is_zero():
        return VerifyReport(True, n_max)
    bad = min(p.valuation() for p in diff.parts if p.valuation() is not None)
    return VerifyReport(False, n_max, first_mismatch=bad,
                        note="w03 - w12 has a nonzero coefficient")


# -- Yukawa coupling and instanton numbers -----------------------------------


def _moebius(n: int) -> int:
    if n == 1:
        return 1
    res, m = 1, n
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            res = -res
        p += 1
    if m > 1:
        res = -res
    return res


@dataclass(frozen=True)
class YukawaData:
    q_coeffs: tuple[Fraction, ...]      # q(z) = z exp(A_1/A_0), from z^1
    z_coeffs: tuple[Fraction, ...]      # inverse series z(q), from q^1
    K_coeffs: tuple[Fraction, ...]      # K(q) from q^0 (= 1)
    instantons: tuple[Fraction, ...]    # N_k for k = 1..depth
    s: int                              # minimal integer with s*N_k integral
    note: str = ""

    def rebuilt_K(self) -> tuple[Fraction, ...]:
        """1 + sum_k k^3 N_k q^k/(1-q^k), for the round-trip invariant."""
        depth = len(self.instantons)
        out = [Q(0)] * (depth + 1)
        out[0] = Q(1)
        for k0, nk in enumerate(self.instantons):
            k = k0 + 1
            for m in range(k, depth + 1, k):
                out[m] += k ** 3 * nk
        return tuple(out)


def yukawa(op: ThetaOperator, n_max: int, depth: int | None = None,
           note: str = "") -> YukawaData:
    """Mirror map and normalized Yukawa coupling of an order-4 MUM operator.

    K(q) = 1 + (q d/dq)^2 [ (A_2/A_0 - (A_1/A_0)^2/2) at z(q) ], and the
    N_k come out of c_m = sum_{k|m} k^3 N_k by Moebius inversion, so
    depth (default n_max) may not exceed n_max.
    """
    if op.order != 4:
        raise NotMUM("Yukawa data needs an order-4 operator")
    if depth is None:
        depth = n_max
    if depth > n_max:
        raise InsufficientTerms(
            f"instanton depth {depth} needs {depth} terms, have {n_max}")
    basis = frobenius(op, n_max)
    a0, a1, a2 = basis.log_free_parts()[:3]
    b = a1.div(a0)
    c = a2.div(a0)
    w = c - b * b * Q(1, 2)
    qz = PowerSeries.var(n_max) * b.exp()
    zq = qz.reversion()
    wq = w.compose(zq)
    kq = wq.theta().theta() + 1
    inst = []
    for k in range(1, depth + 1):
        acc = Q(0)
        for d in range(1, k + 1):
            if k % d == 0:
                mu = _moebius(d)
                if mu:
                    acc += mu * kq[k // d]
        inst.append(acc / k ** 3)
    s = 1
    for nk in inst:
        s = s * nk.denominator // gcd(s, nk.denominator)
    return YukawaData(
        q_coeffs=tuple(qz.coeffs[1:]),
        z_coeffs=tuple(zq.coeffs[1:]),
        K_coeffs=tuple(kq.coeffs),
        instantons=tuple(inst),
        s=s,
        note=note or op.note,
    )


def moebius_pullback(f: PowerSeries, a) -> PowerSeries:
    """g(z) = f(z/(1-az))/(1-az):  g_n = sum_j C(n,j) a^(n-j) f_j."""
    a = Q(a)
    n = f.order
    out = []
    for m in range(n + 1):
        acc = Q(0)
        for j in range(m + 1):
            fj = f[j]
            if fj:
                acc += comb(m, j) * a ** (m - j) * fj
        out.append(acc)
    return PowerSeries(out)


# -- the five structure conditions -------------------------------------------


def cy_conditions_report(op: ThetaOperator, n_max: int) -> list[ConditionReport]:
    """The five Calabi-Yau conditions for an order-4 operator, each as its
    own pass/fail record.  Condition two is checked through the equivalent
    Wronskian identity; condition five reports the minimal integral scale s
    and requires it to be stable between depth/2 and depth."""
    out: list[ConditionReport] = []
    ind = indicial(op)
    out.append(ConditionReport(
        "one: maximal unipotent monodromy", ind.mum,
        detail=f"exponents at 0: {list(ind.exponents_zero)}"
               + ("" if ind.zero_complete else " (plus irrational exponents)")))
    if op.order != 4 or not ind.mum:
        out.append(ConditionReport("two: Wronskian identity w03 = w12", False,
                                   detail="not an order-4 MUM operator"))
        out.append(ConditionReport(
            "three: exponents at infinity", ind.condition_three,
            detail=f"exponents at infinity: {list(ind.exponents_infinity)}"))
        out.append(ConditionReport("four: integral holomorphic solution", False,
                                   detail="skipped"))
        out.append(ConditionReport("five: integral instanton numbers", False,
                                   detail="skipped"))
        return out
    w = wronskian_cy_check(op, n_max)
    out.append(ConditionReport("two: Wronskian identity w03 = w12", bool(w),
                               detail=f"checked through order {w.checked_through}"))
    lam = list(ind.exponents_infinity)
    out.append(ConditionReport(
        "three: exponents at infinity", ind.condition_three,
        detail=f"lambda = {lam}; lam1+lam4 = lam2+lam3 "
               f"{'holds' if ind.condition_three else 'fails'}"))
    y0 = op.series_solution(n_max)
    integral = all(cn.denominator == 1 for cn in y0.coeffs)
    out.append(ConditionReport(
        "four: integral holomorphic solution", integral,
        detail=f"y_0 coefficients integral through order {n_max}"))
    depth = max(4, n_max // 4)
    yk = yukawa(op, n_max, depth=depth)
    half = yk.instantons[: max(2, depth // 2)]
    s_half = 1
    for nk in half:
        s_half = s_half * nk.denominator // gcd(s_half, nk.denominator)
    stable = s_half == yk.s
    out.append(ConditionReport(
        "five: integral instanton numbers", stable,
        detail=f"minimal s with s*N_k integral through k={depth}: {yk.s}"
               + ("" if stable else " (still growing with depth)"),
        data={"s": yk.s}))
    return out


# -- Appell symmetric square -------------------------------------------------


def symmetric_square_check(op3) -> tuple[RatFunc, RatFunc, VerifyReport]:
    """Test whether a third-order operator is the symmetric square of a
    second-order one:  f''' + 3P f'' + (2P^2 + P' + 4Q) f' + (4PQ + 2Q') f.

    Accepts a ThetaOperator or a monic D-form [a_0, a_1, a_2] of RatFunc.
    Returns the second-order data (P, Q) with g'' + P g' + Q g = 0, or
    raises NotSymmetricSquare with the residual."""
    if isinstance(op3, ThetaOperator):
        if op3.order != 3:
            raise ValueError("need a third-order operator")
        a0, a1, a2 = monic_dform(op3)
    else:
        a0, a1, a2 = op3
    p = a2 / 3
    q = (a1 - 2 * p * p - p.derivative()) / 4
    residual = a0 - (4 * p * q + 2 * q.derivative())
    if residual:
        raise NotSymmetricSquare(f"f-coefficient residual {residual!r}")
    return p, q, VerifyReport(True, 0, note="4PQ + 2Q' identity exact")


# -- fifth-order Wronskian chain ---------------------------------------------


@dataclass
class FifthOrderReport:
    op5: ThetaOperator
    conditions: list[ConditionReport] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.conditions)


def _poly_series_ratio(num: Poly, den: Poly, order: int) -> PowerSeries:
    """num/den as a power series; common x-valuation cancelled first."""
    nv = next((i for i, c in enumerate(num.coeffs) if c), None)
    dv = next((i for i, c in enumerate(den.coeffs) if c), None)
    if dv is None:
        raise ZeroDivisionError("zero denominator")
    if nv is None:
        return PowerSeries.zero(order)
    v = min(nv, dv)
    ns = PowerSeries(list(num.coeffs[v:]), order=order)
    ds = PowerSeries(list(den.coeffs[v:]), order=order)
    return ns.div(ds)


def wronskian_fifth_order(op4: ThetaOperator, n_max: int,
                          k_max: int = 12) -> FifthOrderReport:
    """The Wronskian chain of an order-4 MUM operator.

    Builds w0 = x w_{01} and w1 = x w_{02} from the Frobenius basis, fits
    the fifth-order annihilator of w0, and verifies, as exact series
    identities:

      * the same operator kills w1 (log part included);
      * S := x W(w0, w1) equals y_0^2 E with E = exp(-(1/5) Rhat),
        Rhat = int (Phat - 10/x),  x Phat = x b_4/b_5 of the fitted
        operator  (the x^2 y_0^2 exp(-1/2 int P) form of the identity,
        with the x-powers made explicit);
      * the compatibility x P = 2 + (2/5) x Phat between the two
        subleading coefficients;
      * sqrt(S) exp(Rhat/10) recovers y_0 exactly.  The x^(5/2) sqrt(W)
        exp(-(1/5) int Phat) variant instead reproduces
        y_0 exp(-(3/10) Rhat); the report records how far that deviates.
    """
    if op4.order != 4 or not op4.is_mum():
        raise NotMUM("fifth-order chain needs an order-4 MUM operator")
    conds: list[ConditionReport] = []
    y = frobenius(op4, n_max).solutions
    w0_ls = theta_wronskian(y[0], y[1])
    conds.append(ConditionReport(
        "w0 log-free with w0(0) = 1",
        w0_ls.log_degree == 0 and w0_ls.part(0)[0] == 1))
    w0 = w0_ls.part(0)
    w1 = theta_wronskian(y[0], y[2])
    rho = w1.part(0)
    conds.append(ConditionReport(
        "w1 = w0 log z + rho structure",
        w1.log_degree == 1 and w1.part(1) == w0))

    op5 = fit_minimal_degree(w0, 5, k_max, note="annihilates x w01 of " + (op4.note or "op4"))
    conds.append(ConditionReport(
        "fifth-order operator kills w1", bool(op5.annihilates(w1)),
        detail=f"degree {op5.degree}"))

    # S = x W(w0, w1) = w0^2 + w0 theta(rho) - theta(w0) rho, log-free by
    # the same cancellation as w0 itself.
    s_series = w0 * w0 + w0 * rho.theta() - w0.theta() * rho
    conds.append(ConditionReport("S(0) = 1", s_series[0] == 1))

    d4 = to_dform(op4)
    d5 = to_dform(op5)
    x = Poly([0, 1])
    xp = _poly_series_ratio(x * d4[3], d4[4], n_max)      # x P
    xph = _poly_series_ratio(x * d5[4], d5[5], n_max)     # x Phat
    conds.append(ConditionReport("(x P)(0) = 6", xp[0] == 6))
    conds.append(ConditionReport("(x Phat)(0) = 10", xph[0] == 10))
    conds.append(ConditionReport(
        "x P = 2 + (2/5) x Phat",
        xp == PowerSeries([Q(2)], order=n_max) + xph * Q(2, 5)))

    # Rhat = int (Phat - 10/x) dx:  (x Phat - 10)/x has valuation >= 0.
    rhat = PowerSeries(list((xph - 10).coeffs[1:])).integrate()
    rhat = PowerSeries(rhat.coeffs, order=n_max)
    e_series = (rhat * Q(-1, 5)).exp()
    y0 = y[0].part(0)
    conds.append(ConditionReport(
        "S = y_0^2 exp(-(1/5) int(Phat - 10/x))",
        (y0 * y0 * e_series).agrees_with(s_series, n_max)))

    recovered = s_series.sqrt() * (rhat * Q(1, 10)).exp()
    conds.append(ConditionReport(
        "sqrt(S) exp(Rhat/10) = y_0",
        recovered.agrees_with(y0, n_max)))

    printed_variant = s_series.sqrt() * (rhat * Q(-1, 5)).exp()
    expected_printed = y0 * (rhat * Q(-3, 10)).exp()
    dev = printed_variant - y0
    v = dev.valuation()
    conds.append(ConditionReport(
        "x^(5/2) sqrt(W) exp(-(1/5) int Phat) equals y_0 exp(-(3/10) Rhat)",
        printed_variant.agrees_with(expected_printed, n_max),
        detail=("that variant equals y_0 itself"
                if v is None else
                f"variant first differs from y_0 at order {v}")))
    return FifthOrderReport(op5=op5, conditions=conds)


# -- integrality checks for the triple families ------------------------------


def triple_integrality(op: ThetaOperator, n_y0: int = 50,
                       n_q: int = 30) -> list[ConditionReport]:
    """Integrality of y_0 and of the mirror-type series q(z) = z exp(g/y_0)
    for the order-2/order-3 two-parameter families."""
    basis = frobenius(op, max(n_y0, n_q))
    a0 = basis.log_free_parts()[0]
    a1 = basis.log_free_parts()[1]
    qz = PowerSeries.var(n_q) * a1.truncate(n_q).div(a0.truncate(n_q)).exp()
    conds = [
        ConditionReport(
            "y_0 integral", all(c.denominator == 1 for c in a0.coeffs[: n_y0 + 1]),
            detail=f"through n = {min(n_y0, a0.order)}"),
        ConditionReport(
            "q-series integral", all(c.denominator == 1 for c in qz.coeffs),
            detail=f"through n = {qz.order}"),
    ]
    return conds
